"""Pushdown automata and their per-length slice grammars."""

from fractions import Fraction
from itertools import product as iproduct

import random

import pytest

from countgen.cfg import Grammar, dump_grammar, earley_count, to_cnf
from countgen.coins import FAIL, CoinSource
from countgen.describe import Bound, estimate_census, sample_report
from countgen.exceptions import SizeGuard
from countgen.pda import (
    Pda,
    SliceGrammar,
    _single_moves,
    build_slice_grammar,
    count_accepting,
    load_pda,
    pda_accepts,
    pda_slice_description,
)


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


# a^k b^k: push a marker per a, pop per b; helper states keep every move
# either consuming or altering the stack, never both
ANBN = Pda(
    states=("load", "drain", "load@a", "drain@b"),
    input_alphabet=("a", "b"),
    stack_alphabet=("Z", "X"),
    init_stack="Z",
    finals=frozenset({"drain"}),
    moves=(
        ("consume", "load", "a", "Z", "load@a"),
        ("consume", "load", "a", "X", "load@a"),
        ("push", "load@a", "Z", "X", "load"),
        ("push", "load@a", "X", "X", "load"),
        ("consume", "load", "b", "X", "drain@b"),
        ("consume", "drain", "b", "X", "drain@b"),
        ("pop", "drain@b", "X", "drain"),
    ),
)


def anbn_member(w):
    k = len(w) // 2
    return len(w) % 2 == 0 and k >= 1 and w == "a" * k + "b" * k


# accepts "a" along two distinct silent routes: 2 accepting computations
TWO_WAY_A = Pda(
    states=("s", "l", "r", "f"),
    input_alphabet=("a",),
    stack_alphabet=("Z",),
    init_stack="Z",
    finals=frozenset({"f"}),
    moves=(
        ("consume", "s", None, "Z", "l"),
        ("consume", "s", None, "Z", "r"),
        ("consume", "l", "a", "Z", "f"),
        ("consume", "r", "a", "Z", "f"),
    ),
)

# balanced-bracket-ish: a pushes, b pops, accept at the base (Dyck prefix)
DYCK = Pda(
    states=("run", "run@a", "run@b"),
    input_alphabet=("a", "b"),
    stack_alphabet=("Z", "X"),
    init_stack="Z",
    finals=frozenset({"run"}),
    moves=(
        ("consume", "run", "a", "Z", "run@a"),
        ("consume", "run", "a", "X", "run@a"),
        ("push", "run@a", "Z", "X", "run"),
        ("push", "run@a", "X", "X", "run"),
        ("consume", "run", "b", "X", "run@b"),
        ("pop", "run@b", "X", "run"),
    ),
)


def dyck_member(w):
    height = 0
    for ch in w:
        height += 1 if ch == "a" else -1
        if height < 0:
            return False
    return height == 0 and len(w) >= 1


def reference_slice_grammar(m: Pda, n: int) -> SliceGrammar:
    """The slice grammar over every plausible configuration pair.

    ``build_slice_grammar`` before it built only live pairs: every pair
    with equal stack top and j1 <= j2, left to ``to_cnf`` to prune.
    """
    if n < 1:
        raise ValueError("slice length must be >= 1")
    consume, push, pop = _single_moves(m)
    positions = range(1, n + 2)
    pairs = [
        (q1, q2, top, j1, j2)
        for top in m.stack_alphabet
        for q1 in m.states
        for q2 in m.states
        for j1 in positions
        for j2 in positions
        if j1 <= j2
    ]
    productions = []
    start = "@start"
    for q1, q2, top, j1, j2 in pairs:
        c1 = (q1, top, j1)
        c2 = (q2, top, j2)
        for q, sym, mtop, q2m in consume:
            if q != q1 or mtop != top or q2m != q2:
                continue
            if sym is None and j1 == j2:
                productions.append(((c1, c2, 1), ()))
            elif sym is not None and j2 == j1 + 1:
                productions.append(((c1, c2, 1), (sym,)))
        for qd in m.states:
            for jd in range(j1, j2 + 1):
                d = (qd, top, jd)
                for flag in (0, 1):
                    productions.append(
                        ((c1, c2, 0), ((c1, d, 1), (d, c2, flag)))
                    )
        for q, mtop, pushed, qp in push:
            if q != q1 or mtop != top:
                continue
            d1 = (qp, pushed, j1)
            for qq, ptop, qr in pop:
                if ptop != pushed or qr != q2:
                    continue
                d2 = (qq, pushed, j2)
                for flag in (0, 1):
                    productions.append(
                        ((c1, c2, 1), ((d1, d2, flag),))
                    )
                if d1 == d2:
                    productions.append(((c1, c2, 1), ()))
    for qf in m.finals:
        c_in = (m.start_state, m.init_stack, 1)
        c_fin = (qf, m.init_stack, n + 1)
        for flag in (0, 1):
            productions.append((start, ((c_in, c_fin, flag),)))
    variables = [start] + sorted(
        {lhs for lhs, _ in productions if lhs != start}
        | {s for _, rhs in productions for s in rhs if isinstance(s, tuple) and len(s) == 3},
        key=str,
    )
    raw = Grammar(
        tuple(variables), m.input_alphabet, start, tuple(productions)
    )
    raw_vars = len(variables)
    raw_prods = len(productions)
    cnf = to_cnf(raw, drop_epsilon=True)
    return SliceGrammar(
        grammar=cnf,
        n=n,
        raw_variables=raw_vars,
        raw_productions=raw_prods,
        pruned_variables=raw_vars - len(cnf.variables),
        pruned_productions=raw_prods
        - sum(len(cnf.binary[a]) + len(cnf.unary[a]) for a in cnf.variables),
    )


def random_pda(rng: random.Random) -> Pda:
    """1-4 states, 1-2 stack symbols, silent consumes among the moves."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    stack = ("Z", "X")[: rng.randint(1, 2)]
    inputs = ("a", "b")[: rng.randint(1, 2)]
    moves = []
    for _ in range(rng.randint(3, 12)):
        kind = rng.choice(("consume", "consume", "push", "pop"))
        q, q2, top = rng.choice(states), rng.choice(states), rng.choice(stack)
        if kind == "consume":
            moves.append(("consume", q, rng.choice(inputs + (None,)), top, q2))
        elif kind == "push":
            moves.append(("push", q, top, rng.choice(stack), q2))
        else:
            moves.append(("pop", q, top, q2))
    finals = frozenset(rng.sample(states, rng.randint(1, len(states))))
    return Pda(states, inputs, stack, "Z", finals, tuple(moves))


def same_cnf(a: SliceGrammar, b: SliceGrammar) -> bool:
    return (a.grammar.variables, dump_grammar(a.grammar)) == (
        b.grammar.variables,
        dump_grammar(b.grammar),
    )


class TestComputationSearch:
    def test_anbn_counts(self):
        assert count_accepting(ANBN, "ab") == 1
        assert count_accepting(ANBN, "aabb") == 1
        assert count_accepting(ANBN, "abab") == 0
        assert count_accepting(ANBN, "") == 0

    def test_two_routes(self):
        assert count_accepting(TWO_WAY_A, "a") == 2

    def test_budget_guard(self):
        looping = Pda(
            states=("s",),
            input_alphabet=("a",),
            stack_alphabet=("Z",),
            init_stack="Z",
            finals=frozenset({"s"}),
            moves=(("consume", "s", None, "Z", "s"),),
        )
        with pytest.raises(SizeGuard):
            count_accepting(looping, "a")


class TestSliceGrammar:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_anbn_language_agreement(self, n):
        sliced = build_slice_grammar(ANBN, n)
        derived = {
            w for w in words_of("ab", n) if earley_count(sliced.grammar, w) > 0
        }
        accepted = {w for w in words_of("ab", n) if anbn_member(w)}
        assert derived == accepted

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dyck_language_agreement(self, n):
        sliced = build_slice_grammar(DYCK, n)
        derived = {
            w for w in words_of("ab", n) if earley_count(sliced.grammar, w) > 0
        }
        accepted = {w for w in words_of("ab", n) if dyck_member(w)}
        assert accepted == {w for w in words_of("ab", n) if pda_accepts(DYCK, w)}
        assert derived == accepted

    def test_two_route_machine(self):
        sliced = build_slice_grammar(TWO_WAY_A, 1)
        count = earley_count(sliced.grammar, "a")
        assert 1 <= count <= count_accepting(TWO_WAY_A, "a")

    @pytest.mark.parametrize("machine,member", [(ANBN, anbn_member), (DYCK, dyck_member)])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_ambiguity_domination(self, machine, member, n):
        sliced = build_slice_grammar(machine, n)
        for w in words_of("ab", n):
            trees = earley_count(sliced.grammar, w)
            computations = count_accepting(machine, w)
            assert trees <= computations

    def test_prune_statistics_recorded(self):
        sliced = build_slice_grammar(ANBN, 2)
        assert sliced.pruned_variables > 0
        assert sliced.raw_productions > 0
        assert sliced.pruned_variables <= sliced.raw_variables

    @pytest.mark.parametrize("machine", [ANBN, DYCK, TWO_WAY_A], ids=["anbn", "dyck", "two-way-a"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_live_pairs_give_the_reference_cnf(self, machine, n):
        assert same_cnf(build_slice_grammar(machine, n), reference_slice_grammar(machine, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_live_pairs_give_the_reference_cnf_on_random_machines(self, n):
        rng = random.Random(n)
        nonempty = 0
        for _ in range(200):
            machine = random_pda(rng)
            sliced = build_slice_grammar(machine, n)
            assert same_cnf(sliced, reference_slice_grammar(machine, n))
            g = sliced.grammar
            nonempty += bool(g.binary[g.start] or g.unary[g.start])
        assert nonempty >= 80

    def test_only_live_productions_emitted(self):
        assert build_slice_grammar(DYCK, 8).raw_productions == 72
        assert build_slice_grammar(ANBN, 8).raw_productions == 20

    def test_grammar_size_scales_polynomially(self):
        sizes = []
        for n in (2, 3, 4):
            g = build_slice_grammar(ANBN, n).grammar
            sizes.append(
                sum(len(g.binary[a]) + len(g.unary[a]) for a in g.variables)
            )
        # cubic-ish growth, nothing exponential
        assert sizes[2] <= sizes[0] * (4 / 2) ** 4


class TestSampling:
    def test_unambiguous_unique_word(self):
        desc = pda_slice_description(ANBN, 4, Bound(const=1))
        w = sample_report(desc, 4, CoinSource(1)).value
        assert w in ("aabb", FAIL)
        got = {
            sample_report(pda_slice_description(ANBN, 4, Bound(const=1)), 4, CoinSource(s)).value
            for s in range(12)
        }
        assert "aabb" in got

    def test_two_route_uniform_over_slice(self):
        desc = pda_slice_description(TWO_WAY_A, 1, Bound(const=2))
        values = set()
        for seed in range(12):
            w = sample_report(desc, 1, CoinSource(seed)).value
            if w is not FAIL:
                values.add(w)
        assert values == {"a"}

    def test_dyck_census_estimate(self):
        n = 6
        brute = sum(1 for w in words_of("ab", n) if dyck_member(w))
        hits = 0
        runs = 25
        for seed in range(runs):
            desc = pda_slice_description(DYCK, n, Bound(coeff=1, power=1, const=1))
            est = estimate_census(desc, n, Fraction(1, 2), CoinSource(seed))
            assert est is not FAIL
            if Fraction(brute, 2) <= est <= Fraction(3 * brute, 2):
                hits += 1
        assert hits / runs > 0.6

    def test_sampled_words_are_members(self):
        desc = pda_slice_description(DYCK, 4, Bound(coeff=1, power=1, const=1))
        for seed in range(30):
            w = sample_report(desc, 4, CoinSource(seed)).value
            if w is not FAIL:
                assert dyck_member(w)


class TestLoader:
    TEXT = """
state s f
input a
stack Z
init Z
final f
consume s a Z f
"""

    def test_load(self):
        m = load_pda(self.TEXT)
        assert m.start_state == "s"
        assert count_accepting(m, "a") == 1
        assert not pda_accepts(m, "aa")

    def test_silent_move_dash(self):
        m = load_pda(self.TEXT + "consume f - Z s\n")
        assert any(move[2] is None for move in m.moves if move[0] == "consume")
