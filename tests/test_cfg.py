"""CNF grammars: census, tree sampling, weighted Earley chart, conversion."""

import hashlib
import random
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product as iproduct

import pytest

from countgen import cfg, coins, pda
from countgen.cfg import (
    CnfGrammar,
    TreeTable,
    Grammar,
    cfl_description,
    dump_grammar,
    earley_count,
    enumerate_trees,
    format_tree,
    load_grammar,
    random_tree,
    to_cnf,
    tree_census,
    tree_census_table,
    tree_yield,
    _fresh_terminal_wrapper,
)
from countgen.coins import FAIL, CoinSource, TapeSource, bit_size, draw_uniform, outcome_law
from countgen.describe import Bound, estimate_census, sample_report
from countgen.exceptions import AmbiguityExceeded, EmptySlice, EpsilonInLanguage, TapeExhausted
from countgen.pda import build_slice_grammar
from test_pda import ANBN as ANBN_PDA
from test_pda import DYCK


def productive_variables(g: CnfGrammar) -> set:
    """The variables that derive some word."""
    productive = {a for a in g.variables if g.unary[a]}
    changed = True
    while changed:
        changed = False
        for a in g.variables:
            if a not in productive and any(
                b in productive and c in productive for b, c in g.binary[a]
            ):
                productive.add(a)
                changed = True
    return productive


def reachable_variables(g: CnfGrammar) -> set:
    """The variables that occur in some derivation from the start symbol."""
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        for v in (v for bc in g.binary[frontier.pop()] for v in bc):
            if v not in reachable:
                reachable.add(v)
                frontier.append(v)
    return reachable


def check_no_useless(g: CnfGrammar) -> None:
    """Every variable is both productive and reachable from the start."""
    live = productive_variables(g) & reachable_variables(g)
    dead = [a for a in g.variables if a not in live]
    if dead:
        raise ValueError(f"useless variables: {dead!r}")


def validate_cfl_bound(g: CnfGrammar, bound: Bound, up_to: int) -> None:
    """Check the tree-count bound on every derivable word of length <= up_to."""
    for n in range(1, up_to + 1):
        for w in dict.fromkeys(map(tree_yield, enumerate_trees(g, g.start, n))):
            count = earley_count(g, w)
            if count > bound(n):
                raise AmbiguityExceeded(f"{w!r} has {count} trees, bound {bound(n)}")


CATALAN = CnfGrammar(
    variables=("S",),
    terminals=("a",),
    start="S",
    binary={"S": [("S", "S")]},
    unary={"S": ["a"]},
)

PAIR = CnfGrammar(
    variables=("S", "X", "Y"),
    terminals=("a", "b"),
    start="S",
    binary={"S": [("X", "Y")]},
    unary={"X": ["a"], "Y": ["b"]},
)

# a^n b^n in CNF: S -> A T | A B ; T -> S B
ANBN = CnfGrammar(
    variables=("S", "T", "A", "B"),
    terminals=("a", "b"),
    start="S",
    binary={"S": [("A", "T"), ("A", "B")], "T": [("S", "B")]},
    unary={"A": ["a"], "B": ["b"]},
)

# words over ab with as many left as right letters? no: balanced blocks
MIXED = CnfGrammar(
    variables=("S", "A", "B"),
    terminals=("a", "b"),
    start="S",
    binary={"S": [("A", "S"), ("A", "B")], "A": [("A", "A")]},
    unary={"S": ["a"], "A": ["a"], "B": ["b"]},
)

GRAMMARS = [CATALAN, PAIR, ANBN, MIXED]


def fresh_copy(g):
    """An equal grammar whose tree table is not yet built."""
    return CnfGrammar(g.variables, g.terminals, g.start, g.binary, g.unary)


# concatenation of two even palindromes, ambiguity linear in n
PALINDROME_PAIRS = Grammar(
    ("S", "A", "B"),
    ("a", "b"),
    "S",
    (
        ("S", ("A", "B")),
        ("A", ("a", "A", "a")),
        ("A", ("b", "A", "b")),
        ("A", ()),
        ("B", ("a", "B", "a")),
        ("B", ("b", "B", "b")),
        ("B", ()),
    ),
)


def leftmost_derivation_count(g, word):
    """Oracle: expand sentential forms leftmost-first, counting full derivations."""

    def expand(form, remaining):
        if not form:
            return 1 if not remaining else 0
        head, tail = form[0], form[1:]
        if head in g.terminals:
            if remaining and remaining[0] == head:
                return expand(tail, remaining[1:])
            return 0
        if len(tail) > len(remaining):
            return 0
        total = 0
        for b, c in g.binary[head]:
            total += expand((b, c) + tail, remaining)
        for t in g.unary[head]:
            if remaining and remaining[0] == t:
                total += expand(tail, remaining[1:])
        return total

    return expand((g.start,), tuple(word))


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


class TestTreeCensus:
    def test_catalan_numbers(self):
        assert [tree_census(CATALAN, "S", n) for n in range(1, 6)] == [1, 1, 2, 5, 14]

    def test_unambiguous_pair(self):
        assert tree_census(PAIR, "S", 2) == 1
        assert tree_census(PAIR, "S", 3) == 0

    def test_unreachable_length(self):
        assert tree_census(ANBN, "S", 3) == 0
        assert tree_census(ANBN, "S", 4) == 1

    @pytest.mark.parametrize("g", GRAMMARS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_tree_enumeration(self, g, n):
        assert tree_census(g, g.start, n) == len(enumerate_trees(g, g.start, n))

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_grown_out_of_order_matches_fresh(self, g):
        table = tree_census_table(g, 0)
        for n in (3, 9, 5):
            assert table.grow(n) is table
        for n in range(10):
            fresh = tree_census_table(g, n)
            assert {a: row[: n + 1] for a, row in table.items()} == fresh
        assert table == tree_census_table(g, 9)

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_description_census_out_of_order(self, g):
        desc = cfl_description(g, Bound(const=100))
        for n in (3, 9, 5, 1, 7):
            assert desc.census(n) == tree_census(g, g.start, n)
        for n in (0, -2):
            with pytest.raises(ValueError, match="^yield length must be >= 1$"):
                desc.census(n)

    def test_every_reader_builds_one_table_per_grammar(self, monkeypatch):
        built, build = [], cfg.tree_census_table

        def counting(g, n):
            built.append(g)
            return build(g, n)

        monkeypatch.setattr(cfg, "tree_census_table", counting)
        grammars = [fresh_copy(g) for g in GRAMMARS]
        for g in grammars:
            n = next(n for n in range(1, 7) if tree_census(g, g.start, n))
            random_tree(g, n, CoinSource(0))
            enumerate_trees(g, g.start, 6)
            validate_cfl_bound(g, Bound(const=100), 5)
            assert cfl_description(g, Bound(const=100)).census(8) == tree_census(g, g.start, 8)
        assert built == grammars
        assert [g.tree_table.grammar for g in grammars] == grammars

    def test_second_read_returns_the_kept_table(self):
        g = fresh_copy(PAIR)
        assert not {"tree_table", "earley_tables"} & vars(g).keys()
        table, tables = g.tree_table, g.earley_tables
        assert g.tree_table is table and g.earley_tables is tables
        # kept under the public names
        assert vars(g)["tree_table"] is table and vars(g)["earley_tables"] is tables


class TestRandomTree:
    def test_two_trees_uniform_by_enumeration(self):
        trees = enumerate_trees(CATALAN, "S", 3)
        assert len(trees) == 2
        law = outcome_law(lambda src: random_tree(CATALAN, 3, src))
        ok = 1 - law.get(FAIL, Fraction(0))
        for t in trees:
            assert law[t] / ok == Fraction(1, 2)

    def test_exact_uniformity_n4(self):
        trees = enumerate_trees(CATALAN, "S", 4)
        law = outcome_law(lambda src: random_tree(CATALAN, 4, src))
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law.get(FAIL, Fraction(0)) < Fraction(1, 4)
        for t in trees:
            assert law[t] / ok == Fraction(1, 5)

    def test_leaf_case(self):
        assert random_tree(CATALAN, 1, CoinSource(0)) == ("S", "a")

    def test_unambiguous_unique_tree(self):
        t = random_tree(PAIR, 2, CoinSource(9))
        assert t == ("S", ("X", "a"), ("Y", "b"))

    def test_empty_slice(self):
        with pytest.raises(EmptySlice):
            random_tree(ANBN, 3, CoinSource(0))

    def test_failure_rate_within_bound(self):
        n = 6
        kappa = 3 + (n - 1).bit_length()
        runs = 3000
        fails = sum(
            random_tree(CATALAN, n, CoinSource(seed)) is FAIL
            for seed in range(runs)
        )
        assert fails / runs <= (2 * n - 1) / 2**kappa

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_shared_grown_table_keeps_law_and_bits(self, g):
        grown = fresh_copy(g)
        grown.tree_table.grow(9)
        for n in range(1, 4):
            if tree_census(g, g.start, n) == 0:
                continue

            def run(src, grammar):
                return random_tree(grammar, n, src), src.bits_consumed

            fresh = outcome_law(lambda src: run(src, fresh_copy(g)))
            assert outcome_law(lambda src: run(src, grown)) == fresh
            assert outcome_law(lambda src: run(src, g)) == fresh

    def test_yields_have_requested_length(self):
        for seed in range(100):
            t = random_tree(MIXED, 5, CoinSource(seed))
            if t is not FAIL:
                assert len(tree_yield(t)) == 5

    def test_chi_square_at_n7(self):
        from collections import Counter

        from scipy.stats import chisquare

        counts = Counter()
        for seed in range(10_000):
            t = random_tree(CATALAN, 7, CoinSource(seed))
            if t is not FAIL:
                counts[t] += 1
        assert len(counts) == tree_census(CATALAN, "S", 7)
        assert chisquare(list(counts.values())).pvalue > 0.01


# The split searches random_tree used before its split plans: a
# single-ended scan, and the two-ended (boustrophedonic) one, which takes
# split points alternately from both ends.


def _locate_linear(g, table, a, length, r):
    acc = 0
    for k in range(1, length):
        for b, c in g.binary[a]:
            acc += table[b][k] * table[c][length - k]
            if acc >= r:
                return b, c, k
    raise AssertionError("rank exceeded tree census")


def _bucket(g, table, a, length, k):
    return sum(table[b][k] * table[c][length - k] for b, c in g.binary[a])


def _locate_boustrophedon(g, table, a, length, r):
    total = table[a][length]
    lo, hi = 1, length - 1
    prefix = 0  # weight of consumed buckets 1..lo-1
    suffix = 0  # weight of consumed buckets hi+1..length-1
    from_left = True
    while True:
        if from_left:
            w = _bucket(g, table, a, length, lo)
            if prefix + w >= r:
                k, acc = lo, prefix
                break
            prefix += w
            lo += 1
        else:
            w = _bucket(g, table, a, length, hi)
            suffix += w
            if r > total - suffix:
                k, acc = hi, total - suffix
                break
            hi -= 1
        from_left = not from_left
    for b, c in g.binary[a]:
        acc += table[b][k] * table[c][length - k]
        if acc >= r:
            return b, c, k
    raise AssertionError("rank exceeded bucket weight")


def reference_random_tree(g, n, src, locate=_locate_boustrophedon, table=None):
    """random_tree as it was before the inline scan, with a given search."""
    table = tree_census_table(g, n) if table is None else table
    if table[g.start][n] == 0:
        raise EmptySlice(f"no derivation trees of yield length {n}")
    kappa = 3 + bit_size(n)

    def generate(a, length):
        r = draw_uniform(src, table[a][length], kappa)
        if r is FAIL:
            return FAIL
        if length == 1:
            return (a, g.unary[a][r - 1])
        b, c, k = locate(g, table, a, length, r)
        left = generate(b, k)
        if left is FAIL:
            return FAIL
        right = generate(c, length - k)
        if right is FAIL:
            return FAIL
        return (a, left, right)

    return generate(g.start, n)


def random_cnf(seed):
    """A seeded random CNF grammar over ab, useless variables allowed."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(1, 5))]
    pairs = [(b, c) for b in names for c in names]
    binary = {a: rng.sample(pairs, min(rng.randint(0, 4), len(pairs))) for a in names}
    unary = {a: rng.sample(["a", "b"], rng.randint(0, 2)) for a in names}
    unary[names[0]] = unary[names[0]] or ["a"]
    return CnfGrammar(names, ("a", "b"), names[-1], binary, unary)


# sha256 of the dumps of random_cnf(0) .. random_cnf(11), first 16 digits
RANDOM_CNF_DIGEST = "2c512cfeb41d115f"


def dyck_slice(n):
    return build_slice_grammar(DYCK, n).grammar


# The grammars random_tree is checked on against reference_random_tree, with
# the yield lengths sampled: every length to 12, then every third to 40 (a
# Dyck slice grammar has one length).  Some random grammars have variables
# with two terminals, so leaf draws remain beside the forced trees
# random_tree takes from TreeTable.forced without a draw.
SAMPLED_LENGTHS = [*range(1, 13), *range(13, 41, 3)]
SAMPLER_GRAMMARS = {
    **{f"test-{i}": (lambda g=g: g, SAMPLED_LENGTHS) for i, g in enumerate(GRAMMARS)},
    **{f"dyck-{n}": (lambda n=n: dyck_slice(n), [n]) for n in (2, 4, 6, 8, 10, 12, 20, 40)},
    **{f"random-{seed}": (lambda seed=seed: random_cnf(seed), SAMPLED_LENGTHS)
       for seed in range(40)},
}


class TestSplitSearch:
    @pytest.mark.parametrize("g", GRAMMARS)
    def test_boustrophedon_equals_linear(self, g):
        for n in range(2, 8):
            table = tree_census_table(g, n)
            for a in g.variables:
                total = table[a][n]
                for r in range(1, total + 1):
                    assert _locate_boustrophedon(g, table, a, n, r) == \
                        _locate_linear(g, table, a, n, r)

    @pytest.mark.parametrize("g", GRAMMARS)
    @pytest.mark.parametrize("locate", [_locate_boustrophedon, _locate_linear])
    def test_law_and_bits_equal_references(self, g, locate):
        for n in range(1, 4 if g is MIXED else 5):
            if tree_census(g, g.start, n) == 0:
                continue

            def run(src, sample):
                return sample(g, n, src), src.bits_consumed

            assert outcome_law(lambda src: run(src, random_tree)) == outcome_law(
                lambda src: run(src, lambda g, n, src: reference_random_tree(g, n, src, locate))
            )

    @pytest.mark.parametrize("name", SAMPLER_GRAMMARS)
    def test_trees_and_bits_equal_reference(self, name):
        make, lengths = SAMPLER_GRAMMARS[name]
        grammar = make()
        for n in lengths:
            if tree_census(grammar, grammar.start, n) == 0:
                with pytest.raises(EmptySlice):
                    random_tree(grammar, n, CoinSource(0))
                continue
            reference = tree_census_table(grammar, n)
            for seed in range(6):
                ref = CoinSource(seed)
                expected = reference_random_tree(grammar, n, ref, table=reference)
                # the grammar's own table grows over the lengths; a fresh
                # copy builds its table at n
                for sampled in (grammar,) if seed else (fresh_copy(grammar), grammar):
                    src = CoinSource(seed)
                    assert random_tree(sampled, n, src) == expected, (n, seed)
                    assert src.bits_consumed == ref.bits_consumed

    def test_random_grammars_reach_long_trees(self):
        # the seeded grammars above are not all empty at every length
        grammars = [random_cnf(seed) for seed in range(12)]
        live = [g for g in grammars if any(tree_census(g, g.start, n) for n in (37, 40))]
        assert len(live) >= 4

    def test_random_grammars_are_unchanged(self):
        # capping the sample at the pairs available keeps seeds 0-11 as
        # they were drawn before; the digest covers every production
        text = "".join(dump_grammar(random_cnf(seed)) for seed in range(12))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == RANDOM_CNF_DIGEST

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_plan_lookup_equals_references(self, g):
        for n in range(2, 8):
            table = tree_census_table(g, n)
            for i, a in enumerate(g.variables):
                weights, picks = table.split_plan(i, n)
                assert weights == sorted(set(weights)) and weights[:1] != [0]
                assert weights[-1:] == ([table[a][n]] if table[a][n] else [])
                for r in range(1, table[a][n] + 1):
                    k, b, c, _, _ = picks[bisect_left(weights, r)]
                    found = g.variables[b], g.variables[c], k
                    assert found == _locate_linear(g, table, a, n, r)
                    assert found == _locate_boustrophedon(g, table, a, n, r)

    def test_split_rows_are_the_table_rows(self):
        table = tree_census_table(MIXED, 3)
        assert isinstance(table, TreeTable) and table.grammar is MIXED
        for i, a in enumerate(MIXED.variables):
            assert MIXED.var_index[a] == i and table.rows[i] is table[a]
            assert table.letters[i] == MIXED.unary[a]
            assert [(b, c) for _, _, b, c in table.splits[i]] == list(MIXED.pairs[i])
            assert [(MIXED.variables[b], MIXED.variables[c]) for b, c in MIXED.pairs[i]] == \
                list(MIXED.binary[a])
            for row_b, row_c, b, c in table.splits[i]:
                assert row_b is table.rows[b] and row_c is table.rows[c]
        table.grow(9)
        assert all(len(row) == 10 for row in table.rows)
        assert all(len(row_b) == 10 for pairs in table.splits for row_b, *_ in pairs)

    @pytest.mark.parametrize("name", ["test-0", "test-3", "dyck-8", "random-3", "random-4"])
    def test_plans_hold_the_visited_nodes_only(self, name):
        make, lengths = SAMPLER_GRAMMARS[name]
        g = fresh_copy(make())
        visited = set()

        def recording(g, table, a, length, r):
            # a node of count 1 is a forced tree the parent's plan holds
            if table[a][length] > 1:
                visited.add((a, length))
            return _locate_linear(g, table, a, length, r)

        drawn = 0
        for n in lengths[:12]:
            if tree_census(g, g.start, n) == 0:
                continue
            for seed in range(4):
                tree = random_tree(g, n, CoinSource(seed))
                assert reference_random_tree(g, n, CoinSource(seed), recording) == tree
                drawn += 1
            plans = g.tree_table.plans
            assert {(g.variables[i], l) for i, at in enumerate(plans) for l in at} == visited
        assert drawn and visited
        # a plan keeps the nonzero buckets only
        for weights, picks in (plan for at in g.tree_table.plans for plan in at.values()):
            assert len(weights) == len(picks) and weights == sorted(set(weights)) > [0]


class TestLeafChildren:
    def test_forced_trees_are_the_only_trees(self):
        deep = two_terminals = 0
        for make, lengths in SAMPLER_GRAMMARS.values():
            g = fresh_copy(make())
            for n in lengths[:8]:
                if tree_census(g, g.start, n):
                    for seed in range(4):
                        random_tree(g, n, CoinSource(seed))
            table = g.tree_table
            for (i, length), tree in table.forced_trees.items():
                assert table.rows[i][length] == 1
                assert enumerate_trees(g, g.variables[i], length) == [tree]
            deep += any(length > 1 for _, length in table.forced_trees)
            two_terminals += any(len(g.unary[a]) == 2 for a in reachable_variables(g))
        # forced subtrees above yield length 1 are kept, and leaf draws
        # remain in the sampler tests
        assert deep >= 5 and two_terminals >= 5

    def test_law_and_bits_equal_reference(self, monkeypatch):
        # exact laws for n <= 4 wherever the tape tree has at most 2,000
        # prefixes; rejections at several nodes make the others too large
        monkeypatch.setattr(coins, "_LAW_MAX_LEAVES", 2000)
        compared = 0
        for make, lengths in SAMPLER_GRAMMARS.values():
            if min(lengths) > 4:
                continue
            grammar = make()
            for n in lengths:
                if n > 4 or tree_census(grammar, grammar.start, n) == 0:
                    continue

                def run(src, sample):
                    return sample(grammar, n, src), src.bits_consumed

                try:
                    law = outcome_law(lambda src: run(src, random_tree))
                except RuntimeError:
                    continue
                assert law == outcome_law(lambda src: run(src, reference_random_tree)), n
                compared += 1
        assert compared >= 75

    def test_failure_at_an_internal_node(self):
        # Catalan, n = 6: rank 1 of 42 puts a leaf left of a yield-5 node
        # (14 trees), whose 6 attempts of 4 bits all draw 16
        tape = [0] * 6 + [1] * 24
        for sample in (random_tree, reference_random_tree):
            src = TapeSource(tape)
            assert sample(CATALAN, 6, src) is FAIL
            assert src.bits_consumed == 30

    @pytest.mark.parametrize("name, n", [("test-0", 6), ("test-3", 5), ("dyck-8", 8)])
    def test_truncated_tapes_equal_reference(self, name, n):
        # every prefix of a tape: both samplers run out at the same draw
        g = SAMPLER_GRAMMARS[name][0]()
        bits = CoinSource(11).draw(160)
        tape = [(bits >> i) & 1 for i in range(160)]

        def run(sample, prefix):
            src = TapeSource(prefix)
            try:
                out = sample(g, n, src)
            except TapeExhausted:
                out = "exhausted"
            return out, src.bits_consumed

        outcomes = [run(random_tree, tape[:cut]) for cut in range(len(tape) + 1)]
        assert outcomes == [run(reference_random_tree, tape[:cut])
                            for cut in range(len(tape) + 1)]
        assert any(out == "exhausted" and used > 0 for out, used in outcomes)


def reference_tree_rows(g, n):
    """Tree census rows by the full convolution over every split."""
    rows = {a: [0] * (n + 1) for a in g.variables}
    for length in range(1, n + 1):
        for a in g.variables:
            rows[a][length] = (len(g.unary[a]) if length == 1 else 0) + sum(
                rows[b][k] * rows[c][length - k]
                for b, c in g.binary[a] for k in range(1, length)
            )
    return rows


class TestSupport:
    @pytest.mark.parametrize("name", SAMPLER_GRAMMARS)
    def test_rows_equal_full_convolution(self, name):
        make, lengths = SAMPLER_GRAMMARS[name]
        g = make()
        n = max(lengths)
        table = tree_census_table(g, 0)
        for m in (n // 3, n, n // 2):  # grown in steps and read out of order
            table.grow(m)
        assert dict(table) == reference_tree_rows(g, n)
        for row, support in zip(table.rows, table.support):
            assert support == [l for l in range(1, n + 1) if row[l]]

    def test_slice_grammar_variables_have_one_length(self):
        # the case the support lists are for: no product of two nonzero
        # entries is left out, and most entries are zero
        g = dyck_slice(12)
        table = tree_census_table(g, 12)
        assert all(len(support) <= 1 for support in table.support)
        assert sum(map(len, table.support)) == sum(1 for row in table.rows for x in row if x)


class TestKeptSampler:
    @pytest.mark.parametrize("seed", range(40))
    def test_kept_draws_equal_reference(self, seed):
        # two lengths on one table, then a census read past both, so the
        # rows grow under the kept draws before they draw again
        g = random_cnf(seed)
        live = [n for n in SAMPLED_LENGTHS if tree_census(g, g.start, n)][:2]
        table = g.tree_table
        for _ in range(2):
            for n in live:
                reference = tree_census_table(g, n)
                for coin in range(4):
                    ref, src = CoinSource(coin), CoinSource(coin)
                    expected = reference_random_tree(g, n, ref, table=reference)
                    assert random_tree(g, n, src) == expected, (n, coin)
                    assert src.bits_consumed == ref.bits_consumed
            assert set(table.samplers) == set(live)
            kept = dict(table.samplers)
            tree_census(g, g.start, max(live, default=0) + 9)
        assert table.samplers == kept  # the same draws, not rebuilt

    def test_random_grammars_give_two_lengths(self):
        # most seeds above compare draws at two lengths on one table
        two = [g for g in map(random_cnf, range(40))
               if sum(1 for n in SAMPLED_LENGTHS if tree_census(g, g.start, n)) >= 2]
        assert len(two) >= 25

    def test_kept_draw_grows_nothing_it_does_not_read(self):
        g = fresh_copy(CATALAN)
        table = g.tree_table
        random_tree(g, 5, CoinSource(0))
        draw = table.samplers[5]
        assert len(table.rows[0]) == 6
        random_tree(g, 3, CoinSource(1))
        assert len(table.rows[0]) == 6 and table.samplers[5] is draw
        assert set(table.samplers) == {3, 5}

    def test_empty_slice_raises_on_every_call(self):
        g = fresh_copy(ANBN)
        for _ in range(3):
            src = CoinSource(0)
            with pytest.raises(EmptySlice):
                random_tree(g, 3, src)
            assert src.bits_consumed == 0
        assert g.tree_table.samplers == {}
        assert random_tree(g, 4, CoinSource(0)) is not FAIL
        assert set(g.tree_table.samplers) == {4}

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_short_length_refused_before_the_table_is_read(self, n):
        g = fresh_copy(CATALAN)
        src = CoinSource(0)
        with pytest.raises(ValueError, match="^yield length must be >= 1$"):
            random_tree(g, n, src)
        assert src.bits_consumed == 0 and "tree_table" not in vars(g)
        table = g.tree_table.grow(2)
        with pytest.raises(ValueError, match="^yield length must be >= 1$"):
            random_tree(g, n, src)
        assert len(table.rows[0]) == 3 and table.samplers == {}


class TestYield:
    def test_leaf(self):
        assert tree_yield(("S", "a")) == "a"

    def test_node(self):
        assert tree_yield(("S", ("S", "a"), ("S", "a"))) == "aa"

    def test_format(self):
        assert format_tree(("S", ("X", "a"), ("Y", "b"))) == "(S (X a) (Y b))"


def chart_tables(g):
    """The chart's prediction tables: per variable A, its left-corner
    closure; for each production A -> B C its predicted state, B, the
    state with the dot after B, C, and the completed state; the predicted
    state A -> .t of each letter t; and letter t -> the state A -> t. it
    scans into."""
    corner = {}
    for a in g.variables:
        reach = {a}
        frontier = [a]
        while frontier:
            for b, _ in g.binary[frontier.pop()]:
                if b not in reach:
                    reach.add(b)
                    frontier.append(b)
        corner[a] = frozenset(reach)
    binary = {
        a: tuple(((a, bc, 0), bc[0], (a, bc, 1), bc[1], (a, bc, 2)) for bc in g.binary[a])
        for a in g.variables
    }
    unary = {a: tuple((a, (t,), 0) for t in g.unary[a]) for a in g.variables}
    scanned = {a: {t: (a, (t,), 1) for t in g.unary[a]} for a in g.variables}
    return corner, binary, unary, scanned


def indexed_earley_chart(g, word):
    """Reference for ``earley_count``: the weighted Earley chart with its
    dotted states, {(i, j): {(A, rhs, dot): weight}}.

    Each non-empty cell keeps at most one weighted state per dotted
    production; a state's weight is the number of leftmost derivations of
    the span it consumed.  States whose dot sits before a variable B are
    indexed by (B, start of the dot), so a completed B reads only the
    states waiting for it.  In CNF a completed state in (i, j) completes
    states only in cells (k, j) with k < i, so one pass over each column
    with descending i reads every completed weight after its last update.
    """
    n = len(word)
    if n < 1:
        raise ValueError("word must be non-empty")
    corner, binary, unary, scanned = chart_tables(g)
    cells = {}
    # (B, i) -> [(k, cell, key, advanced, then)] for states at (k, i) with
    # the dot before B; ``then`` is (C, key advanced twice) while the
    # advanced state still waits for C, else None
    waiting = defaultdict(list)

    def predict(j, needed):
        closure = set().union(*(corner[b] for b in needed))
        cell = cells[j, j] = {}
        for a in closure:
            for key in unary[a]:
                cell[key] = 1
            for key, b, advanced, c, done in binary[a]:
                cell[key] = 1
                waiting[b, j].append((j, cell, key, advanced, (c, done)))
        return closure

    closure = predict(0, (g.start,))
    for j in range(1, n + 1):
        column = {}  # i -> cell (i, j)
        complete = defaultdict(lambda: defaultdict(int))  # i -> {A: weight of A over (i, j)}
        # scanner: unscanned letter states live only in cell (j - 1, j - 1)
        letter = word[j - 1]
        for a in closure:
            key = scanned[a].get(letter)
            if key is not None:
                column.setdefault(j - 1, {})[key] = 1
                complete[j - 1][a] += 1
        # completer: descending start index so weights are final when read
        needed = set()
        for i in range(j - 1, -1, -1):
            for b, weight in complete.pop(i, {}).items():
                for k, pcell, pkey, advanced, then in waiting.get((b, i), ()):
                    cell = column.get(k)
                    if cell is None:
                        cell = column[k] = {}
                    product = weight * pcell[pkey]
                    if advanced in cell:
                        cell[advanced] += product
                    else:
                        cell[advanced] = product
                        if then is not None:
                            c, done = then
                            waiting[c, j].append((k, cell, advanced, done, None))
                            needed.add(c)
                    if then is None:
                        complete[k][advanced[0]] += product
        for i, cell in column.items():
            cells[i, j] = cell
        if not needed:
            break
        # predictor
        closure = predict(j, needed)
    return cells


def chart_count(chart, g, word):
    """Sum of the completed start-variable states spanning ``word``."""
    return sum(
        weight
        for (a, rhs, dot), weight in chart.get((0, len(word)), {}).items()
        if a == g.start and dot == len(rhs)
    )


class TestEarley:
    def test_catalan_triple(self):
        assert earley_count(CATALAN, "aaa") == 2

    def test_catalan_quadruple(self):
        assert earley_count(CATALAN, "aaaa") == 5

    def test_non_member(self):
        assert earley_count(CATALAN, "ab") == 0

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_matches_leftmost_enumeration(self, g):
        for n in range(1, 7):
            for w in words_of(g.terminals, n):
                assert earley_count(g, w) == leftmost_derivation_count(g, w)

    @pytest.mark.parametrize("g", GRAMMARS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sums_to_tree_census(self, g, n):
        total = sum(earley_count(g, w) for w in words_of(g.terminals, n))
        assert total == tree_census(g, g.start, n)

    @pytest.mark.parametrize("g", GRAMMARS)
    def test_one_state_per_dotted_production(self, g):
        # the chart datatype keys states by dotted production, so scan the
        # raw cells for duplicates after a run
        for w in ("aab", "aaaa", "ab"):
            cells = indexed_earley_chart(g, w)
            for cell in cells.values():
                keys = list(cell)
                assert len(keys) == len(set(keys))
                for (a, rhs, dot) in keys:
                    assert 0 <= dot <= len(rhs)

    def test_weights_count_leftmost_derivations_of_span(self):
        cells = indexed_earley_chart(CATALAN, "aaa")
        complete = {
            key: w
            for key, w in cells[0, 3].items()
            if key[2] == len(key[1]) and key[0] == "S"
        }
        assert sum(complete.values()) == 2


def reference_earley_chart(g, word):
    """The chart without prediction tables or the index by the symbol after
    the dot: every cell is rescanned and completed until nothing is new."""
    n = len(word)
    if n < 1:
        raise ValueError("word must be non-empty")
    cells = defaultdict(dict)
    marked = defaultdict(set)
    waiting = defaultdict(set)  # (B, i) -> cells k with a dot before B at (k, i)

    def add(i, j, key, weight):
        cell = cells[i, j]
        if key in cell:
            cell[key] += weight
            return
        cell[key] = weight
        a, rhs, dot = key
        if dot < len(rhs) and rhs[dot] in g.var_index:
            waiting[rhs[dot], j].add(i)

    def predictions(a):
        out = [(a, (t,), 0) for t in g.unary[a]]
        out.extend((a, bc, 0) for bc in g.binary[a])
        return out

    reach = {g.start}
    frontier = [g.start]
    while frontier:
        for b, _ in g.binary[frontier.pop()]:
            if b not in reach:
                reach.add(b)
                frontier.append(b)
    for a in reach:
        for key in predictions(a):
            add(0, 0, key, 1)

    for j in range(1, n + 1):
        for i in range(j - 1, -1, -1):
            for key, weight in list(cells[i, j - 1].items()):
                a, rhs, dot = key
                if dot == 0 and len(rhs) == 1:
                    marked[i, j - 1].add(key)
                    if rhs[0] == word[j - 1]:
                        add(i, j, (a, rhs, 1), weight)
        for i in range(j - 1, -1, -1):
            while True:
                ready = [
                    key
                    for key, _ in cells[i, j].items()
                    if key[2] == len(key[1]) and key not in marked[i, j]
                ]
                if not ready:
                    break
                for key in ready:
                    marked[i, j].add(key)
                    b = key[0]
                    weight = cells[i, j][key]
                    for k in sorted(waiting.get((b, i), ()), reverse=True):
                        for pkey, pweight in list(cells[k, i].items()):
                            pa, prhs, pdot = pkey
                            if pdot < len(prhs) and prhs[pdot] == b:
                                add(k, j, (pa, prhs, pdot + 1), weight * pweight)
        to_predict = set()
        for i in range(j):
            for key in list(cells[i, j]):
                a, rhs, dot = key
                if key in marked[i, j] or dot >= len(rhs):
                    continue
                if rhs[dot] in g.var_index:
                    marked[i, j].add(key)
                    to_predict.add(rhs[dot])
        frontier = list(to_predict)
        predicted = set()
        while frontier:
            b = frontier.pop()
            if b in predicted:
                continue
            predicted.add(b)
            for key in predictions(b):
                if key not in cells[j, j]:
                    add(j, j, key, 1)
                if key[1][0] in g.var_index and key[1][0] not in predicted:
                    frontier.append(key[1][0])
    return dict(cells)


def non_empty(chart):
    return {span: cell for span, cell in chart.items() if cell}


def reference_count(g, word):
    return chart_count(reference_earley_chart(g, word), g, word)


PALINDROME_PAIRS_CNF = to_cnf(PALINDROME_PAIRS, drop_epsilon=True)
CHART_GRAMMARS = {
    "catalan": CATALAN,
    "pair": PAIR,
    "anbn": ANBN,
    "mixed": MIXED,
    "palindrome-pairs": PALINDROME_PAIRS_CNF,
    "dyck-slice-6": build_slice_grammar(DYCK, 6).grammar,
}


def palindrome_pair_words(count, length, seed):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        half = rng.randrange(length // 2 + 1)
        left = "".join(rng.choice("ab") for _ in range(half))
        right = "".join(rng.choice("ab") for _ in range(length // 2 - half))
        words.append(left + left[::-1] + right + right[::-1])
    return words


class TestIndexedChart:
    """The indexed chart against the rescanning reference it replaced."""

    @pytest.mark.parametrize("name", CHART_GRAMMARS)
    def test_same_cells_on_short_words(self, name):
        g = CHART_GRAMMARS[name]
        for n in range(1, 8):
            for w in words_of(g.terminals, n):
                chart = indexed_earley_chart(g, w)
                assert non_empty(chart) == non_empty(reference_earley_chart(g, w)), w
                assert earley_count(g, w) == reference_count(g, w) == chart_count(chart, g, w), w

    def test_same_cells_on_long_palindrome_pairs(self):
        g = PALINDROME_PAIRS_CNF
        for w in palindrome_pair_words(50, 32, seed=7):
            assert non_empty(indexed_earley_chart(g, w)) == non_empty(reference_earley_chart(g, w)), w
            assert earley_count(g, w) == reference_count(g, w) >= 1, w

    def test_tables_belong_to_the_grammar(self):
        g = CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})
        assert "earley_tables" not in vars(g)
        earley_count(g, "aaa")
        tables = vars(g)["earley_tables"]
        earley_count(g, "aaaa")
        assert g.earley_tables is tables
        corner, plans = tables
        assert corner == (frozenset({0}),)
        # every column of a^n predicts {S} (index 0): scan a with S, wait on
        # S for S -> S S
        assert plans == {frozenset({0}): ({"a": [0]}, {0: [(0, 0)]})}


def with_left_recursion(g):
    """``g`` with start -> start start added."""
    binary = {a: list(g.binary[a]) for a in g.variables}
    if (g.start, g.start) not in binary[g.start]:
        binary[g.start].append((g.start, g.start))
    return CnfGrammar(g.variables, g.terminals, g.start, binary, g.unary)


def random_chart_cnf(seed):
    """A seeded random CNF grammar over ab, useless variables allowed."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(1, 5))]
    pairs = [(b, c) for b in names for c in names]
    binary = {a: rng.sample(pairs, rng.randint(0, min(4, len(pairs)))) for a in names}
    unary = {a: rng.sample(["a", "b"], rng.randint(0, 2)) for a in names}
    unary[names[0]] = unary[names[0]] or ["a"]
    return CnfGrammar(names, ("a", "b"), names[-1], binary, unary)


RANDOM_CHART_GRAMMARS = [random_chart_cnf(seed) for seed in range(40)]
RANDOM_CHART_GRAMMARS += [with_left_recursion(g) for g in RANDOM_CHART_GRAMMARS[:20]]


class TestEarleyCount:
    """``earley_count`` against the indexed chart and the rescanning reference."""

    @staticmethod
    def counts(g, w):
        return earley_count(g, w), chart_count(indexed_earley_chart(g, w), g, w), reference_count(g, w)

    @pytest.mark.parametrize("length", [32, 64])
    def test_long_palindrome_pairs(self, length):
        g = PALINDROME_PAIRS_CNF
        for w in palindrome_pair_words(200, length, seed=length):
            count, chart, reference = self.counts(g, w)
            assert count == chart == reference >= 1, w

    @pytest.mark.parametrize(
        "g, words",
        [
            (CATALAN, ["b", "ab", "aab", "aaaaab"]),
            (PAIR, ["a", "ba", "abb", "abab", "c", "ac", "abc"]),
            (ANBN, ["ba", "aab", "abab", "aaabbbb", "aXbb"]),
            (PALINDROME_PAIRS_CNF, ["aaab", "abababa", "aac", "c" * 6]),
            (CHART_GRAMMARS["dyck-slice-6"], ["abbaab", "bababa", "aaaaab", "aab", "abab" * 2, "aabbac"]),
        ],
    )
    def test_non_members_and_foreign_letters_count_zero(self, g, words):
        for w in words:
            if set(w) <= set(g.terminals):
                assert leftmost_derivation_count(g, w) == 0, w
            assert self.counts(g, w) == (0, 0, 0), w

    def test_random_grammars(self):
        ambiguous = left_recursive = useless = 0
        for g in RANDOM_CHART_GRAMMARS:
            left_recursive += (g.start, g.start) in g.binary[g.start]
            live = productive_variables(g) & reachable_variables(g)
            useless += len(live) < len(g.variables)
            most = 0
            for n in range(1, 7):
                for w in words_of(g.terminals, n):
                    count, chart, reference = self.counts(g, w)
                    assert count == chart == reference, (g.binary, g.unary, w)
                    most = max(most, count)
            ambiguous += most > 1
        assert min(ambiguous, left_recursive, useless) >= 10

    @pytest.mark.parametrize(
        "name, plan_count",
        [("catalan", 1), ("pair", 2), ("anbn", 3), ("mixed", 2), ("palindrome-pairs", 11),
         ("dyck-slice-6", 12)],
    )
    def test_plans_belong_to_the_grammar(self, name, plan_count):
        g = fresh_copy(CHART_GRAMMARS[name])
        words = [w for n in range(1, 11) for w in words_of(g.terminals, n)]
        counts = [earley_count(g, w) for w in words]
        corner, plans = g.earley_tables
        assert len(plans) == plan_count
        grown = dict(plans)
        assert [earley_count(g, w) for w in words] == counts
        assert g.earley_tables[1] is plans and plans == grown
        assert fresh_copy(g).earley_tables[1] == {}
        names = g.variables
        assert corner == tuple(
            frozenset(g.var_index[b] for b in chart_tables(g)[0][a]) for a in names
        )
        for predicted, (scans, waits) in plans.items():
            closure = frozenset().union(*(corner[b] for b in predicted))
            assert Counter((t, a) for t, vs in scans.items() for a in vs) == Counter(
                (t, a) for a in closure for t in g.unary[names[a]]
            )
            assert Counter(
                (names[b], names[a], names[c]) for b, pairs in waits.items() for a, c in pairs
            ) == Counter((b, names[a], c) for a in closure for b, c in g.binary[names[a]])


def reference_to_cnf(g: Grammar, drop_epsilon: bool = False) -> CnfGrammar:
    """``to_cnf`` as it was when it sorted every right-hand side by ``str``
    and pruned by building a candidate grammar and two restrictions of it."""
    variables = set(g.variables)
    nullable = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    if g.start in nullable and not drop_epsilon:
        raise EpsilonInLanguage("the grammar derives the empty word")
    expanded = set()
    for lhs, rhs in g.productions:
        options = []
        for sym in rhs:
            if sym in nullable:
                options.append((sym, None))
            else:
                options.append((sym,))
        stack = [()]
        for opts in options:
            stack = [prefix + (o,) for prefix in stack for o in opts]
        for version in stack:
            cleaned = tuple(s for s in version if s is not None)
            if cleaned:
                expanded.add((lhs, cleaned))
    unit_edges = defaultdict(set)
    for lhs, rhs in expanded:
        if len(rhs) == 1 and rhs[0] in variables:
            unit_edges[lhs].add(rhs[0])
    unit_reach = {}
    for a in variables:
        seen = {a}
        frontier = [a]
        while frontier:
            v = frontier.pop()
            for w in unit_edges.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        unit_reach[a] = seen
    base = defaultdict(set)
    for lhs, rhs in expanded:
        if len(rhs) == 1 and rhs[0] in variables:
            continue
        base[lhs].add(rhs)
    closed = defaultdict(set)
    for a in variables:
        for b in unit_reach[a]:
            closed[a] |= base[b]
    binary = defaultdict(set)
    unary = defaultdict(set)
    order = list(g.variables)
    fresh_seen = set()

    def note_fresh(v):
        if v not in fresh_seen:
            fresh_seen.add(v)
            order.append(v)

    chain_count = 0
    for a in dict.fromkeys(g.variables):
        for rhs in sorted(closed[a], key=lambda r: tuple(map(str, r))):
            if len(rhs) == 1:
                unary[a].add(rhs[0])
                continue
            symbols = []
            for sym in rhs:
                if sym in variables:
                    symbols.append(sym)
                else:
                    wrapper = _fresh_terminal_wrapper(sym)
                    note_fresh(wrapper)
                    unary[wrapper].add(sym)
                    symbols.append(wrapper)
            while len(symbols) > 2:
                chain_count += 1
                tail = ("@chain", chain_count)
                note_fresh(tail)
                binary[tail].add((symbols[-2], symbols[-1]))
                symbols = symbols[:-2] + [tail]
            binary[a].add((symbols[0], symbols[1]))
    candidate = CnfGrammar(order, g.terminals, g.start, binary, unary)
    productive = _restrict(candidate, productive_variables(candidate) | {g.start})
    return _restrict(productive, reachable_variables(productive))


def _restrict(g: CnfGrammar, keep) -> CnfGrammar:
    """``g`` on the variables in ``keep``, with the productions among them."""
    kept = [v for v in g.variables if v in keep]
    binary = {a: [bc for bc in g.binary[a] if bc[0] in keep and bc[1] in keep] for a in kept}
    unary = {a: g.unary[a] for a in kept}
    return CnfGrammar(kept, g.terminals, g.start, binary, unary)


def random_raw_grammar(rng: random.Random) -> Grammar:
    """Long, mixed terminal/variable and nullable right-hand sides."""
    variables = tuple(f"V{i}" for i in range(rng.randint(1, 5)))
    terminals = ("a", "b", "c")[: rng.randint(1, 3)]
    symbols = variables + terminals
    productions = []
    for _ in range(rng.randint(2, 12)):
        rhs = tuple(rng.choice(symbols) for _ in range(rng.choice((0, 1, 2, 2, 3, 4, 5, 6))))
        productions.append((rng.choice(variables), rhs))
    return Grammar(variables, terminals, variables[0], tuple(productions))


def cnf_outcome(convert, g, drop_epsilon):
    try:
        cnf = convert(g, drop_epsilon=drop_epsilon)
    except EpsilonInLanguage:
        return "epsilon"
    return dump_grammar(cnf), cnf.variables, cnf.binary, cnf.unary


RAW_GRAMMARS = {
    "palindrome-pairs": PALINDROME_PAIRS,
    "catalan": load_grammar("var S\nterm a\nstart S\nS -> S S\nS -> a\n"),
    "forced-shape": Grammar(("S",), ("a", "b"), "S", (("S", ("a", "b")),)),
    "a-s-b": Grammar(("S",), ("a", "b"), "S", (("S", ("a", "S", "b")), ("S", ("a", "b")))),
    "epsilon": Grammar(("S",), ("a",), "S", (("S", ()), ("S", ("a", "S")))),
    "unit": Grammar(
        ("S", "A"), ("a",), "S", (("S", ("A",)), ("A", ("a",)), ("A", ("a", "A")))
    ),
    "unreachable": Grammar(
        ("S", "B", "C"),
        ("a",),
        "S",
        (("S", ("a",)), ("S", ("B", "C")), ("B", ("B", "B")), ("C", ("a",))),
    ),
}


class TestToCnf:
    def test_forced_shape(self):
        g = Grammar(("S",), ("a", "b"), "S", (("S", ("a", "b")),))
        cnf = to_cnf(g)
        check_no_useless(cnf)
        assert earley_count(cnf, "ab") == 1
        assert tree_census(cnf, "S", 2) == 1

    def test_language_preserved(self):
        g = Grammar(
            ("S",),
            ("a", "b"),
            "S",
            (("S", ("a", "S", "b")), ("S", ("a", "b"))),
        )
        cnf = to_cnf(g)
        check_no_useless(cnf)
        for n in range(1, 9):
            members = {w for w in words_of("ab", n) if earley_count(cnf, w) > 0}
            expected = {"a" * k + "b" * k for k in range(1, 5) if 2 * k == n}
            assert members == expected

    def test_epsilon_rejected(self):
        g = Grammar(("S",), ("a",), "S", (("S", ()), ("S", ("a", "S"))))
        with pytest.raises(EpsilonInLanguage):
            to_cnf(g)

    def test_epsilon_dropped_on_request(self):
        g = Grammar(("S",), ("a",), "S", (("S", ()), ("S", ("a", "S"))))
        cnf = to_cnf(g, drop_epsilon=True)
        check_no_useless(cnf)
        for n in range(1, 6):
            assert earley_count(cnf, "a" * n) == 1

    def test_unit_productions_removed(self):
        g = Grammar(
            ("S", "A"),
            ("a",),
            "S",
            (("S", ("A",)), ("A", ("a",)), ("A", ("a", "A"))),
        )
        cnf = to_cnf(g)
        check_no_useless(cnf)
        for n in range(1, 6):
            assert tree_census(cnf, "S", n) == 1

    def test_palindrome_pair_grammar(self):
        cnf = to_cnf(PALINDROME_PAIRS, drop_epsilon=True)
        check_no_useless(cnf)

        def is_even_palindrome(w):
            return len(w) % 2 == 0 and w == w[::-1]

        def in_language(w):
            return any(
                is_even_palindrome(w[:k]) and is_even_palindrome(w[k:])
                for k in range(len(w) + 1)
            ) and w

        for n in range(1, 7):
            members = {w for w in words_of("ab", n) if earley_count(cnf, w) > 0}
            expected = {w for w in words_of("ab", n) if in_language(w)}
            assert members == expected


    def test_unreachable_once_unproductive_dropped(self):
        # C is reachable only through the unproductive B, so it is useless
        g = Grammar(
            ("S", "B", "C"),
            ("a",),
            "S",
            (("S", ("a",)), ("S", ("B", "C")), ("B", ("B", "B")), ("C", ("a",))),
        )
        cnf = to_cnf(g)
        check_no_useless(cnf)
        assert cnf.variables == ("S",)

    @pytest.mark.parametrize("name", RAW_GRAMMARS)
    @pytest.mark.parametrize("drop_epsilon", [False, True])
    def test_matches_reference_on_fixtures(self, name, drop_epsilon):
        g = RAW_GRAMMARS[name]
        expected = cnf_outcome(reference_to_cnf, g, drop_epsilon)
        assert cnf_outcome(to_cnf, g, drop_epsilon) == expected

    def test_matches_reference_on_random_grammars(self):
        rng = random.Random(2024)
        minted = 0
        for _ in range(300):
            g = random_raw_grammar(rng)
            for drop_epsilon in (False, True):
                expected = cnf_outcome(reference_to_cnf, g, drop_epsilon)
                assert cnf_outcome(to_cnf, g, drop_epsilon) == expected
                if expected != "epsilon":
                    minted += len(expected[1]) > len(set(g.variables) & set(expected[1]))
        assert minted > 100  # fresh @lift/@chain variables were exercised

    @pytest.mark.parametrize(
        "variables, productions",
        [
            (("S", "S"), (("S", ("a",)),)),
            (("S", "B"), (("S", ("a",)), ("B", ("z",)))),  # B is pruned
            (("S",), (("S", ("a",)), ("T", ("a",)))),
        ],
        ids=["repeated-variable", "undeclared-symbol", "undeclared-left-side"],
    )
    def test_malformed_grammar_refused(self, variables, productions):
        with pytest.raises(ValueError, match="^variables must be distinct, and productions"):
            to_cnf(Grammar(variables, ("a",), "S", productions))

    def test_builds_one_grammar(self, monkeypatch):
        # the cfl benchmark grammar and the raw Dyck slice grammar at n = 8
        raw = []
        monkeypatch.setattr(pda, "to_cnf", lambda g, drop_epsilon: raw.append(g) or to_cnf(g, drop_epsilon))
        build_slice_grammar(DYCK, 8)
        grammars = [PALINDROME_PAIRS, *raw]
        expected = [cnf_outcome(reference_to_cnf, g, True) for g in grammars]
        built = []
        init = CnfGrammar.__init__
        monkeypatch.setattr(CnfGrammar, "__init__", lambda self, *args: built.append(self) or init(self, *args))
        for g, outcome in zip(grammars, expected, strict=True):
            built.clear()
            cnf = to_cnf(g, drop_epsilon=True)
            assert built == [cnf]
            assert cnf_outcome(lambda g, drop_epsilon: cnf, g, True) == outcome

    @pytest.mark.parametrize("machine", [DYCK, ANBN_PDA], ids=["dyck", "anbn"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_pda_slice_grammars_have_no_useless_variables(self, machine, n):
        check_no_useless(build_slice_grammar(machine, n).grammar)


class TestDescription:
    def test_unambiguous_word_sampler(self):
        desc = cfl_description(PAIR, Bound(const=1))
        law = outcome_law(lambda src: sample_report(desc, 2, src, trials=2).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["ab"] / ok == 1

    def test_catalan_guard(self):
        desc = cfl_description(CATALAN, Bound(const=2))
        # aaa has 2 trees (fine); aaaa has 5 (> 2): the description returns
        # the raw count and the engine refuses it
        assert desc.ambiguity("aaa") == 2
        assert desc.ambiguity("aaaa") == 5
        with pytest.raises(AmbiguityExceeded, match="'aaaa' has multiplicity 5, bound 2"):
            sample_report(desc, 4, CoinSource(0))
        with pytest.raises(AmbiguityExceeded):
            estimate_census(desc, 4, Fraction(1, 2), CoinSource(0))
        with pytest.raises(AmbiguityExceeded):
            validate_cfl_bound(CATALAN, Bound(const=2), 4)

    def test_census_estimate_palindrome_pairs(self):
        cnf = to_cnf(PALINDROME_PAIRS, drop_epsilon=True)
        bound = Bound(coeff=1, power=1, const=1)
        validate_cfl_bound(cnf, bound, 6)
        desc = cfl_description(cnf, bound)
        n = 6
        brute = sum(1 for w in words_of("ab", n) if earley_count(cnf, w) > 0)
        hits = 0
        runs = 60
        for seed in range(runs):
            est = estimate_census(desc, n, Fraction(1, 2), CoinSource(seed))
            assert est is not FAIL
            if Fraction(brute, 2) <= est <= Fraction(3 * brute, 2):
                hits += 1
        assert hits / runs > 0.75

    def test_word_sampler_uniform_small(self):
        # MIXED at n=2: derivable words aa (2 trees? check) and ab
        desc = cfl_description(MIXED, Bound(coeff=2, power=2, const=2))
        members = {
            w: earley_count(MIXED, w)
            for w in words_of("ab", 2)
            if earley_count(MIXED, w) > 0
        }
        law = outcome_law(lambda src: sample_report(desc, 2, src, trials=1).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in members:
            assert law[w] / ok == Fraction(1, len(members))


class TestFormats:
    TEXT = """
var S X Y
term a b
start S
S -> X Y
X -> a
Y -> b
"""

    def test_load_and_convert(self):
        g = load_grammar(self.TEXT)
        cnf = to_cnf(g)
        assert earley_count(cnf, "ab") == 1

    def test_dump_roundtrip(self):
        text = dump_grammar(PAIR)
        cnf = to_cnf(load_grammar(text))
        assert earley_count(cnf, "ab") == 1
        assert tree_census(cnf, cnf.start, 2) == 1

    def test_dyck_slice_grammar_dump_is_pinned(self):
        # variable and production order of to_cnf, recorded before its
        # variable walk dropped the index sort
        text = dump_grammar(build_slice_grammar(DYCK, 8).grammar)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "96721c2b65b7b19e786168379dde03bdf777d5bc3c6327c42caf9ae6372d80e6"
