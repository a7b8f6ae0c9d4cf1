"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

from scipy.stats import chisquare

from countgen.cfg import (
    CnfGrammar,
    Grammar,
    earley_count,
    enumerate_trees,
    random_tree,
    to_cnf,
    tree_census,
)
from countgen.coins import FAIL, CoinSource, bit_size, gen_uniform, outcome_law
from countgen.describe import (
    DnfFormula,
    dnf_description,
    estimate_census,
    exact_count,
    sample_report,
)
from countgen.dfa import dfa_census, dfa_from_regex, dfa_rank, dfa_sample, dfa_unrank
from countgen.nfa import Nfa, nfa_from_dfa, nfa_rank_slice, nfa_slice_census, path_count
from countgen.pda import Pda, build_slice_grammar, count_accepting
from countgen.pseudobool import (
    PbProblem,
    cond_expectation,
    cut_value,
    derandomize,
    max_cut_circuit,
    max_sat_circuit,
    permanent,
    sat_value,
)
from countgen.traces import (
    count_representatives,
    indep_alphabet,
    normal_form,
    swap_closure,
)


def ok(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


# shared test automata and grammars -----------------------------------------

ALL_WORDS = dfa_from_regex("(a|b)*")
AB_STAR = dfa_from_regex("(ab)*")
CD_STAR = dfa_from_regex("cd*")
EVEN_A = dfa_from_regex("b*(ab*ab*)*")
CONTAINS_AA = dfa_from_regex("(a|b)*aa(a|b)*")
FINITE_AB = dfa_from_regex("ab")

CATALAN = CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})
PAIR = CnfGrammar(
    ("S", "X", "Y"), ("a", "b"), "S", {"S": [("X", "Y")]}, {"X": ["a"], "Y": ["b"]}
)
ANBN = CnfGrammar(
    ("S", "T", "A", "B"),
    ("a", "b"),
    "S",
    {"S": [("A", "T"), ("A", "B")], "T": [("S", "B")]},
    {"A": ["a"], "B": ["b"]},
)
MIXED = CnfGrammar(
    ("S", "A", "B"),
    ("a", "b"),
    "S",
    {"S": [("A", "S"), ("A", "B")], "A": [("A", "A")]},
    {"S": ["a"], "A": ["a"], "B": ["b"]},
)
PALI_PAIR = to_cnf(
    Grammar(
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
    ),
    drop_epsilon=True,
)
GRAMMARS = [CATALAN, PAIR, ANBN, MIXED, PALI_PAIR]


def leftmost_derivation_count(g, word):
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


class TestCriterion1:
    def test_uniform_integers_exact(self):
        start = time.perf_counter()
        for n in (2, 3, 5, 7):
            for delta in (Fraction(1, 2), Fraction(1, 4)):
                law = outcome_law(lambda src: gen_uniform(src, n, delta))
                fail_mass = law.get(FAIL, Fraction(0))
                assert fail_mass < delta
                success = 1 - fail_mass
                for k in range(1, n + 1):
                    assert law[k] / success == Fraction(1, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        ok(1, f"uniform integers exact on N in 2,3,5,7 ({elapsed:.2f}s)")


class TestCriterion2:
    def test_dfa_sampler(self):
        start = time.perf_counter()
        # exact uniformity by tape enumeration up to n = 3
        for automaton in (ALL_WORDS, EVEN_A, CONTAINS_AA):
            for n in (1, 2, 3):
                members = [w for w in words_of("ab", n) if automaton.accepts(w)]
                if not members:
                    continue
                law = outcome_law(
                    lambda src: dfa_sample(automaton, n, src, confidence=2)
                )
                good = 1 - law.get(FAIL, Fraction(0))
                for w in members:
                    assert law[w] / good == Fraction(1, len(members))
        # chi-square at n = 8 with 10^4 samples on three automata
        n = 8
        kappa = 3 + bit_size(n)
        for automaton in (ALL_WORDS, EVEN_A, CONTAINS_AA):
            table = dfa_census(automaton, n)
            members = [w for w in words_of("ab", n) if automaton.accepts(w)]
            assert table.count(automaton.start, n) == len(members)
            counts = dict.fromkeys(members, 0)
            fails = 0
            runs = 10_000
            for seed in range(runs):
                w = dfa_sample(automaton, n, CoinSource(seed), confidence=3)
                if w is FAIL:
                    fails += 1
                else:
                    counts[w] += 1
            assert fails / runs <= n / 2**kappa
            observed = list(counts.values())
            _, p_value = chisquare(observed)
            assert p_value > 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        ok(2, f"regular sampler exact at n<=3, chi-square ok at n=8 ({elapsed:.2f}s)")


class TestCriterion3:
    def test_rank_unrank_roundtrip(self):
        automata = [ALL_WORDS, AB_STAR, CD_STAR, EVEN_A, FINITE_AB]
        for automaton in automata:
            brute_rank = 0
            members = 0
            for length in range(9):
                for w in sorted(words_of(automaton.alphabet, length)):
                    brute_rank += automaton.accepts(w)
                    if automaton.accepts(w):
                        members += 1
                        r = dfa_rank(automaton, w)
                        assert r == brute_rank
                        assert dfa_unrank(automaton, r) == w
            assert members > 0
        ok(3, "rank/unrank roundtrip on five automata up to length 8")


class TestCriterion4:
    def test_kronecker_ranking(self):
        doubled = Nfa(
            ("a", "b"),
            (((1, 0), (0, 1)), ((1, 0), (0, 1))),
            (1, 1),
            (1, 1),
            2,
        )
        two_paths = Nfa(
            ("a", "b"),
            (((0, 2), (0, 0)), ((0, 1), (0, 0))),
            (1, 0),
            (0, 1),
            2,
        )
        tripled = Nfa(("a", "b"), (((1,),), ((1,),)), (3,), (1,), 3)
        end_a = nfa_from_dfa(dfa_from_regex("(a|b)*a"))
        start_a = nfa_from_dfa(dfa_from_regex("a(a|b)*"))
        dim = end_a.dim + start_a.dim
        mats = []
        for s in range(2):
            m = [[0] * dim for _ in range(dim)]
            for i in range(end_a.dim):
                for j in range(end_a.dim):
                    m[i][j] = end_a.matrices[s][i][j]
            for i in range(start_a.dim):
                for j in range(start_a.dim):
                    m[end_a.dim + i][end_a.dim + j] = start_a.matrices[s][i][j]
            mats.append(tuple(tuple(r) for r in m))
        overlap = Nfa(
            ("a", "b"),
            tuple(mats),
            end_a.start + start_a.start,
            end_a.accept + start_a.accept,
            2,
        )
        unambiguous = nfa_from_dfa(AB_STAR)
        automata = [unambiguous, doubled, two_paths, tripled, overlap]
        assert len(automata) >= 5
        for automaton in automata:
            assert automaton.ambiguity <= 3
            for n in (1, 2, 3, 4):
                # q-correction: the census counts words, never paths
                brute_words = sum(
                    path_count(automaton, w) >= 1 for w in words_of("ab", n)
                )
                assert nfa_slice_census(automaton, n) == brute_words
                for beta in words_of("ab", n):
                    brute = sum(
                        1
                        for g in words_of("ab", n)
                        if g <= beta and path_count(automaton, g) >= 1
                    )
                    assert nfa_rank_slice(automaton, n, beta) == brute
        ok(4, "Kronecker slice ranks exact on 5 automata, n<=4, ambiguity<=3")


class TestCriterion5:
    def test_earley_multiplicity(self):
        start = time.perf_counter()
        assert [tree_census(CATALAN, "S", n) for n in range(1, 6)] == [1, 1, 2, 5, 14]
        for g in GRAMMARS:
            for n in range(1, 7):
                for w in words_of(g.terminals, n):
                    assert earley_count(g, w) == leftmost_derivation_count(g, w)
            for n in range(1, 9):
                total = sum(earley_count(g, w) for w in words_of(g.terminals, n))
                assert total == tree_census(g, g.start, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        ok(5, f"Earley multiplicities exact on {len(GRAMMARS)} grammars ({elapsed:.2f}s)")


class TestCriterion6:
    def test_random_tree(self):
        for g, n in [(CATALAN, 3), (MIXED, 2), (MIXED, 3)]:
            trees = enumerate_trees(g, g.start, n)
            law = outcome_law(lambda src: random_tree(g, n, src))
            good = 1 - law.get(FAIL, Fraction(0))
            for t in trees:
                assert law[t] / good == Fraction(1, len(trees))
        runs = 2500
        for n in range(2, 9):
            kappa = 3 + bit_size(n)
            fails = sum(
                random_tree(CATALAN, n, CoinSource(seed)) is FAIL
                for seed in range(runs)
            )
            assert fails / runs <= (2 * n - 1) / 2**kappa
        ok(6, "tree sampler exactly uniform at n<=3, failure rates within bound for n<=8")


class TestCriterion7:
    def test_dnf_pipeline(self):
        formula = DnfFormula(2, ((1,), (1, 2)))
        desc = dnf_description(formula)
        # uniformity on {10, 11} by full tape enumeration; the retry budget
        # does not change the conditional law, so enumerate at 1 and 2 trials
        for trials in (1, 2):
            law = outcome_law(
                lambda src: sample_report(desc, 2, src, trials=trials).value
            )
            good = 1 - law.get(FAIL, Fraction(0))
            assert law["10"] / good == Fraction(1, 2)
            assert law["11"] / good == Fraction(1, 2)
        # the full budget keeps the failure mass under 1/4
        fails = sum(
            sample_report(desc, 2, CoinSource(seed)).value is FAIL
            for seed in range(2000)
        )
        assert fails / 2000 <= 0.25
        hits = 0
        runs = 1000
        for seed in range(runs):
            est = estimate_census(desc, 2, Fraction(1, 4), CoinSource(seed))
            assert est is not FAIL
            if Fraction(3, 2) <= est <= Fraction(5, 2):
                hits += 1
        assert hits / runs >= 0.75
        exact_hits = 0
        exact_runs = 300
        for seed in range(exact_runs):
            if exact_count(desc, 2, CoinSource(seed)) == 2:
                exact_hits += 1
        assert exact_hits / exact_runs > 0.75
        ok(7, f"DNF sampler uniform, estimate within bounds {hits}/{runs}, exact count {exact_hits}/{exact_runs}")


ANBN_PDA = Pda(
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

TWO_WAY_PDA = Pda(
    states=("s", "l", "r", "f"),
    input_alphabet=("a", "b"),
    stack_alphabet=("Z",),
    init_stack="Z",
    finals=frozenset({"f"}),
    moves=(
        ("consume", "s", None, "Z", "l"),
        ("consume", "s", None, "Z", "r"),
        ("consume", "l", "a", "Z", "f"),
        ("consume", "r", "a", "Z", "f"),
        ("consume", "f", "b", "Z", "f"),
    ),
)


class TestCriterion8:
    def test_slice_grammars(self):
        for machine in (ANBN_PDA, TWO_WAY_PDA):
            for n in range(1, 7):
                grammar = build_slice_grammar(machine, n).grammar
                derived = {
                    w for w in words_of("ab", n) if earley_count(grammar, w) > 0
                }
                accepted = {
                    w for w in words_of("ab", n) if count_accepting(machine, w) > 0
                }
                assert derived == accepted
            for n in range(1, 6):
                grammar = build_slice_grammar(machine, n).grammar
                for w in words_of("ab", n):
                    assert earley_count(grammar, w) <= count_accepting(machine, w)
        # the second machine really is 2-ambiguous somewhere
        assert count_accepting(TWO_WAY_PDA, "a") == 2
        ok(8, "PDA slice grammars match the machines exactly for n<=6")


class TestCriterion9:
    def test_traces(self):
        chain = indep_alphabet("abc", [("a", "b"), ("b", "c")])
        flagship = dfa_from_regex("(a*c)*(ab)*c(a*c)*", alphabet="abc")
        for n in range(1, 8):
            members = [w for w in words_of("abc", n) if flagship.accepts(w)]
            traces_seen = {normal_form(w, chain) for w in members}
            total = 0
            for t in sorted(traces_seen):
                brute = sum(flagship.accepts(v) for v in swap_closure(t, chain))
                got = count_representatives(flagship, t, chain)
                assert got == brute
                total += got
            assert total == len(members)
        ok(9, "trace representative counts and partition identity exact for n<=7")


class TestCriterion10:
    def test_derandomization(self):
        import random as stdlib_random

        rng = stdlib_random.Random(2024)
        checked = 0
        for _ in range(100):
            n = rng.randint(3, 12)
            m = rng.randint(1, 14)
            clauses = [
                tuple(
                    v * rng.choice((1, -1))
                    for v in rng.sample(range(1, n + 1), k=3)
                )
                for _ in range(m)
            ]
            problem = PbProblem(n, max_sat_circuit(n, clauses))
            brute_expectation = Fraction(
                sum(
                    sat_value(clauses, tuple((bits >> k) & 1 for k in range(n)))
                    for bits in range(2**n)
                ),
                2**n,
            )
            assert cond_expectation(problem, []) == brute_expectation
            out = derandomize(problem)
            value = problem.value(out)
            assert value == sat_value(clauses, out)
            assert value >= brute_expectation
            # tower property on every prefix probed by the greedy pass
            for k in range(n):
                prefix = list(out[:k])
                here = cond_expectation(problem, prefix)
                assert here == (
                    cond_expectation(problem, prefix + [0])
                    + cond_expectation(problem, prefix + [1])
                ) / 2
            checked += 1
        assert checked == 100
        # disjoint-variable clauses reach ceil(7m/8)
        for m in (1, 2, 3, 4):
            clauses = [(3 * j + 1, 3 * j + 2, 3 * j + 3) for j in range(m)]
            problem = PbProblem(3 * m, max_sat_circuit(3 * m, clauses))
            out = derandomize(problem)
            assert sat_value(clauses, out) >= -(-7 * m // 8)
        # triangle cut reaches 2
        edges = [(0, 1), (1, 2), (0, 2)]
        problem = PbProblem(3, max_cut_circuit(3, edges))
        assert cut_value(edges, derandomize(problem)) == 2
        ok(10, "greedy bit fixing beats the expectation on 100 random instances")


class TestCriterion11:
    def test_permanent_methods(self):
        import random as stdlib_random

        start = time.perf_counter()
        for n in range(1, 5):
            for bits in range(2 ** (n * n)):
                a = tuple(
                    tuple((bits >> (n * i + j)) & 1 for j in range(n))
                    for i in range(n)
                )
                expected = permanent(a, "bruteforce")
                assert permanent(a, "coefficient") == expected
                assert permanent(a, "fraction") == expected
        rng = stdlib_random.Random(7)
        for _ in range(20):
            a = tuple(
                tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(5)
            )
            expected = permanent(a, "bruteforce")
            assert permanent(a, "coefficient") == expected
            assert permanent(a, "fraction") == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        ok(11, f"permanent methods agree on all n<=4 and 20 random n=5 ({elapsed:.1f}s)")


class TestCriterion12:
    def test_cli_determinism(self, tmp_path):
        specs = {
            "ab.dfa": (
                "states 3\nalphabet a b\nstart 0\nfinals 0\n"
                "trans 0 a 1\ntrans 0 b 2\ntrans 1 a 2\ntrans 1 b 0\n"
                "trans 2 a 2\ntrans 2 b 2\n"
            ),
            "two.nfa": (
                "states 2\nalphabet a\nstart 0\nfinals 1\nambiguity 2\n"
                "trans 0 a 1\ntrans 0 a 1\n"
            ),
            "catalan.cfg": "var S\nterm a\nstart S\nS -> S S\nS -> a\n",
            "anbn.pda": (
                "state load drain pusha popb\ninput a b\nstack Z X\ninit Z\n"
                "final drain\nconsume load a Z pusha\nconsume load a X pusha\n"
                "push pusha Z X load\npush pusha X X load\n"
                "consume load b X popb\nconsume drain b X popb\npop popb X drain\n"
            ),
            "trace.dfa": (
                "states 2\nalphabet a b\nstart 0\nfinals 1\n"
                "trans 0 a 1\ntrans 0 b 1\ntrans 1 a 1\ntrans 1 b 1\n"
                "indep a b\n"
            ),
            "ones3.mat": "3\n1 1 1\n1 1 1\n1 1 1\n",
            "two.cnf": "3 2\n1 2 3\n-1 2 -3\n",
            "k3.graph": "3 3\n1 2\n2 3\n1 3\n",
        }
        paths = {}
        for name, text in specs.items():
            p = tmp_path / name
            p.write_text(text)
            paths[name] = str(p)
        commands = [
            ["dfa", "count", "-a", paths["ab.dfa"], "-n", "6"],
            ["dfa", "sample", "-a", paths["ab.dfa"], "-n", "6", "--seed", "5"],
            ["dfa", "rank", "-a", paths["ab.dfa"], "-w", "abab"],
            ["dfa", "unrank", "-a", paths["ab.dfa"], "-k", "4"],
            ["nfa", "count", "-a", paths["two.nfa"], "-n", "1"],
            ["nfa", "rank", "-a", paths["two.nfa"], "-w", "a"],
            ["nfa", "unrank", "-a", paths["two.nfa"], "-k", "1"],
            ["nfa", "sample", "-a", paths["two.nfa"], "-n", "1", "--seed", "3"],
            ["cfg", "count", "-g", paths["catalan.cfg"], "-n", "6"],
            ["cfg", "sample", "-g", paths["catalan.cfg"], "-n", "4",
             "--ambiguity", "5", "--seed", "11"],
            ["cfg", "sample", "-g", paths["catalan.cfg"], "-n", "4", "--tree",
             "--seed", "11"],
            ["cfg", "estimate", "-g", paths["catalan.cfg"], "-n", "3",
             "--ambiguity", "2", "--epsilon", "1/2", "--seed", "2"],
            ["cfg", "exact", "-g", paths["catalan.cfg"], "-n", "3",
             "--ambiguity", "2", "--seed", "2"],
            ["pda", "grammar", "-m", paths["anbn.pda"], "-n", "2"],
            ["pda", "sample", "-m", paths["anbn.pda"], "-n", "4",
             "--ambiguity", "1", "--seed", "9"],
            ["trace", "count", "-a", paths["trace.dfa"], "-w", "ab"],
            ["trace", "sample", "-a", paths["trace.dfa"], "-n", "3",
             "--ambiguity", "0,0,6", "--seed", "4"],
            ["trace", "estimate", "-a", paths["trace.dfa"], "-n", "2",
             "--ambiguity", "2", "--epsilon", "1/2", "--seed", "4"],
            ["pb", "perm", "-m", paths["ones3.mat"], "--method", "fraction"],
            ["pb", "derand", "--cnf", paths["two.cnf"]],
            ["pb", "search", "--graph", paths["k3.graph"], "--seed", "8",
             "--epsilon", "1/2", "--delta", "1/4"],
        ]
        for argv in commands:
            full = [sys.executable, "-m", "countgen.cli", *argv,
                    "--format", "json-lines"]
            first = subprocess.run(full, capture_output=True)
            second = subprocess.run(full, capture_output=True)
            assert first.returncode in (0, 2), (argv, first.stderr)
            assert first.stdout == second.stdout, argv
            assert first.returncode == second.returncode, argv
        ok(12, f"{len(commands)} CLI commands byte-reproducible under fixed seeds")
