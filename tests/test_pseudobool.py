"""Circuits, conditional expectations, searches, and the permanent."""

import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countgen.coins import CoinSource
from countgen.exceptions import FormatError, SizeGuard
from countgen.pseudobool import (
    Circuit,
    CircuitBuilder,
    PbProblem,
    cond_expectation,
    cut_value,
    derandomize,
    eg_solve,
    eval_circuit,
    load_circuit,
    load_clauses,
    load_graph,
    load_matrix,
    local_search,
    max_cut_circuit,
    max_sat_circuit,
    msf_coefficient,
    msf_perm_circuit,
    perm_circuit,
    permanent,
    probably_multilinear,
    random_search,
    sat_value,
)


def brute_msf_coefficients(c: Circuit):
    """Oracle: recover square-free coefficients from {0,1} evaluations."""
    n = c.n_vars
    coeffs = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            point = [1 if k in subset else 0 for k in range(n)]
            value = eval_circuit(c, point)
            below = sum(
                coeffs[frozenset(sub)]
                for r in range(len(subset))
                for sub in combinations(subset, r)
            )
            coeffs[frozenset(subset)] = value - below
    return coeffs


def average_over_suffixes(p: PbProblem, prefix):
    free = p.n - len(prefix)
    total = Fraction(0)
    for bits in iproduct((0, 1), repeat=free):
        total += p.value(tuple(prefix) + bits)
    return total / 2**free


K3_EDGES = [(0, 1), (0, 2), (1, 2)]


class TestEvalCircuit:
    def test_constant(self):
        b = CircuitBuilder(1)
        c = b.build(b.const(1))
        assert eval_circuit(c, [7]) == 1

    def test_small_product(self):
        b = CircuitBuilder(2)
        x1, x2 = b.var(0), b.var(1)
        c = b.build(b.mul(b.add(x1, x2), x1))
        assert eval_circuit(c, [1, 1]) == 2

    def test_row_product_all_ones(self):
        c = perm_circuit(((1, 1), (1, 1)))
        assert eval_circuit(c, [1, 1]) == 4

    def test_size_and_depth(self):
        c = perm_circuit(((1, 1), (1, 1)))
        assert c.size >= 5
        assert c.depth == 2


class TestMsfCoefficient:
    def test_simple_pair(self):
        b = CircuitBuilder(3)
        x1, x2, x3 = (b.var(k) for k in range(3))
        c = b.build(b.add(b.mul(x1, x2), b.mul(x2, x3)))
        assert msf_coefficient(c, [0, 1]) == 1
        assert msf_coefficient(c, [0, 2]) == 0

    def test_non_square_free_monomial(self):
        b = CircuitBuilder(2)
        c = b.build(b.mul(b.var(0), b.var(1)))
        assert msf_coefficient(c, [0, 0]) == 0

    def test_expanded_product(self):
        # msf((x1+x2)(x1+x3)) = x1 + x1x3 + x1x2 + x2x3
        b = CircuitBuilder(3)
        x1, x2, x3 = (b.var(k) for k in range(3))
        parts = [
            x1,
            b.mul(x1, x3),
            b.mul(x1, x2),
            b.mul(x2, x3),
        ]
        c = b.build(b.add(*parts))
        assert msf_coefficient(c, [1, 2]) == 1
        assert msf_coefficient(c, [0]) == 1
        assert msf_coefficient(c, [2]) == 0

    def test_against_evaluation_oracle(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(1, 5)
            b = CircuitBuilder(n)
            ids = [b.var(k) for k in range(n)] + [b.const(1), b.const(-1)]
            for _ in range(rng.randint(1, 6)):
                take = rng.sample(ids, k=min(len(ids), rng.randint(2, 3)))
                op = b.add(*take) if rng.random() < 0.5 else None
                if op is None:
                    # keep products square-free: distinct variables only
                    vars_only = rng.sample(range(n), k=rng.randint(1, n))
                    op = b.mul(*[ids[v] for v in vars_only])
                ids.append(op)
            c = b.build(ids[-1])
            if not probably_multilinear(c):
                continue
            oracle = brute_msf_coefficients(c)
            for subset, coef in oracle.items():
                if subset:
                    assert msf_coefficient(c, sorted(subset)) == coef


class TestPermanent:
    def test_identity(self):
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert permanent(eye) == 1

    def test_all_ones(self):
        ones = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        assert permanent(ones) == 6

    def test_cycle_matrix(self):
        a = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        for method in ("bruteforce", "coefficient", "fraction"):
            assert permanent(a, method) == 2

    def test_methods_agree_exhaustive_n3(self):
        for bits in range(2**9):
            a = tuple(
                tuple((bits >> (3 * i + j)) & 1 for j in range(3)) for i in range(3)
            )
            expected = permanent(a, "bruteforce")
            assert permanent(a, "coefficient") == expected
            assert permanent(a, "fraction") == expected

    def test_fraction_floor_is_integer(self):
        import math

        a = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        n = len(a)
        s = n * n
        value = eval_circuit(msf_perm_circuit(a), [Fraction(1, 2**s)] * n)
        scaled = Fraction(2) ** (s * (n - 1)) * value
        # the non-permanent part of the scaled value is a whole number
        assert (scaled - permanent(a) * Fraction(1, 2**s)).denominator == 1

    def test_evaluation_at_unit_vector(self):
        a = ((1, 1), (0, 1))
        c = perm_circuit(a)
        # x1=1, rest 0: product of first-column entries
        assert eval_circuit(c, [1, 0]) == a[0][0] * a[1][0]

    def test_ceiling(self):
        big = tuple(tuple(1 for _ in range(9)) for _ in range(9))
        with pytest.raises(SizeGuard):
            permanent(big)


class TestCondExpectation:
    def test_single_variable(self):
        p = PbProblem(1, max_sat_circuit(1, [(1,)]))
        assert cond_expectation(p, []) == Fraction(1, 2)

    def test_two_variable_sum(self):
        b = CircuitBuilder(2)
        c = b.build(b.add(b.var(0), b.var(1)))
        p = PbProblem(2, c)
        assert cond_expectation(p, [1]) == Fraction(3, 2)

    def test_disjoint_clauses_give_seven_eighths_each(self):
        clauses = [(1, 2, 3), (4, 5, 6)]
        p = PbProblem(6, max_sat_circuit(6, clauses))
        assert cond_expectation(p, []) == Fraction(7, 4)

    @pytest.mark.parametrize("prefix", [[], [1], [0, 1], [1, 0, 1]])
    def test_matches_brute_average(self, prefix):
        clauses = [(1, -2, 3), (-1, 2, 4), (2, 3, -4)]
        p = PbProblem(4, max_sat_circuit(4, clauses))
        assert cond_expectation(p, prefix) == average_over_suffixes(p, prefix)

    def test_tower_property(self):
        clauses = [(1, -2, 3), (-1, 2, 4), (2, 3, -4)]
        p = PbProblem(4, max_sat_circuit(4, clauses))
        for k in range(p.n):
            for bits in iproduct((0, 1), repeat=k):
                here = cond_expectation(p, list(bits))
                zero = cond_expectation(p, list(bits) + [0])
                one = cond_expectation(p, list(bits) + [1])
                assert here == (zero + one) / 2


class TestDerandomize:
    def test_single_variable(self):
        p = PbProblem(1, max_sat_circuit(1, [(1,)]))
        assert derandomize(p) == (1,)
        assert p.value((1,)) == 1 >= Fraction(1, 2)

    def test_two_clause_example(self):
        clauses = [(1, 2, 3), (-1, 2, -3)]
        p = PbProblem(3, max_sat_circuit(3, clauses))
        out = derandomize(p)
        assert sat_value(clauses, out) == 2

    def test_k3_cut(self):
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        assert cond_expectation(p, []) == Fraction(3, 2)
        out = derandomize(p)
        assert cut_value(K3_EDGES, out) == 2

    def test_ties_prefer_zero(self):
        b = CircuitBuilder(2)
        c = b.build(b.add(b.var(0), b.var(1)))
        # under goal=min the best bit is 0 and ties must also pick 0
        p = PbProblem(2, c, goal="min")
        assert derandomize(p) == (0, 0)

    def test_internality_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(3, 8)
            m = rng.randint(1, 10)
            clauses = [
                tuple(
                    v * rng.choice((1, -1))
                    for v in rng.sample(range(1, n + 1), k=3)
                )
                for _ in range(m)
            ]
            p = PbProblem(n, max_sat_circuit(n, clauses))
            out = derandomize(p)
            assert p.value(out) >= cond_expectation(p, [])
            assert p.value(out) == sat_value(clauses, out)


class TestSearches:
    def test_random_search_single_draw(self):
        # log(2) / (2 * 1^2) rounds up to one trial: exactly n bits consumed
        p = PbProblem(2, max_sat_circuit(2, [(1, 2)]))
        src = CoinSource(3)
        out = random_search(p, Fraction(1), Fraction(1, 2), src)
        assert src.bits_consumed == p.n
        assert out in set(iproduct((0, 1), repeat=2))

    def test_random_search_finds_singleton_optimum(self):
        p = PbProblem(1, max_sat_circuit(1, [(1,)]))
        hits = sum(
            random_search(p, Fraction(1, 4), Fraction(1, 100), CoinSource(seed)) == (1,)
            for seed in range(50)
        )
        assert hits >= 48

    def test_random_search_never_below_any_draw(self):
        p = PbProblem(4, max_cut_circuit(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        out = random_search(p, Fraction(1, 2), Fraction(1, 4), CoinSource(9))
        assert p.value(out) >= 0

    def test_local_search_k3_from_zero(self):
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        out = local_search(p, 1, (0, 0, 0))
        assert cut_value(K3_EDGES, out) == 2

    def test_local_search_idempotent(self):
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        out = local_search(p, 1, (0, 0, 0))
        assert local_search(p, 1, out) == out

    def test_local_search_monotone(self):
        clauses = [(1, -2, 3), (-1, 2, 4), (2, 3, -4), (1, 2, 4)]
        p = PbProblem(4, max_sat_circuit(4, clauses))
        start = (0, 0, 0, 0)
        out = local_search(p, 1, start)
        assert p.value(out) >= p.value(start)

    def test_eg_solve_beats_expectation(self):
        clauses = [(1, 2, 3), (-1, 2, -3)]
        p = PbProblem(3, max_sat_circuit(3, clauses))
        out = eg_solve(p)
        assert p.value(out) >= cond_expectation(p, [])

    def test_eg_solve_k3_optimal(self):
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        out = eg_solve(p)
        assert cut_value(K3_EDGES, out) == 2

    def test_eg_solve_leaves_local_optimum_alone(self):
        # the greedily fixed point is already optimal here, so the local
        # phase returns it unchanged
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        fixed = derandomize(p)
        assert local_search(p, 1, fixed) == fixed
        assert eg_solve(p) == fixed


class TestBuilders:
    @given(st.integers(min_value=0, max_value=2**6 - 1))
    @settings(max_examples=32)
    def test_sat_circuit_matches_direct_count(self, bits):
        clauses = [(1, -2, 3), (-4, 5, 6), (2, 3, -5)]
        c = max_sat_circuit(6, clauses)
        assignment = tuple((bits >> k) & 1 for k in range(6))
        assert eval_circuit(c, assignment) == sat_value(clauses, assignment)

    @given(st.integers(min_value=0, max_value=2**4 - 1))
    @settings(max_examples=16)
    def test_cut_circuit_matches_direct_count(self, bits):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        c = max_cut_circuit(4, edges)
        assignment = tuple((bits >> k) & 1 for k in range(4))
        assert eval_circuit(c, assignment) == cut_value(edges, assignment)

    def test_builders_are_multilinear(self):
        assert probably_multilinear(max_sat_circuit(3, [(1, -2, 3)]))
        assert probably_multilinear(max_cut_circuit(3, K3_EDGES))

    def test_square_detector(self):
        b = CircuitBuilder(1)
        x = b.var(0)
        assert not probably_multilinear(b.build(b.mul(x, x)))


class TestLoaders:
    def test_matrix(self):
        a = load_matrix("3\n1 1 1\n1 1 1\n1 1 1\n")
        assert permanent(a) == 6

    def test_clauses(self):
        n, clauses = load_clauses("3 2\n1 2 3\n-1 2 -3\n")
        assert n == 3
        assert clauses == [(1, 2, 3), (-1, 2, -3)]

    def test_comments(self):
        assert load_matrix("# ones\n2 # size\n1 1\n1 1 # row 2\n") == ((1, 1), (1, 1))
        n, clauses = load_clauses("# two clauses\n3 2\n1 2 3 # first\n-1 2 -3\n")
        assert (n, clauses) == (3, [(1, 2, 3), (-1, 2, -3)])
        n, edges = load_graph("3 2 # path\n1 2\n# middle\n2 3 # last\n")
        assert (n, edges) == (3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("edge", ["0 1", "1 4", "-1 2"])
    def test_graph_vertex_outside_range(self, edge):
        with pytest.raises(FormatError, match="edge endpoints must lie in 1..3"):
            load_graph(f"3 1\n{edge}\n")

    def test_matrix_extra_row_refused(self):
        with pytest.raises(FormatError, match="expected 2 rows of 2 entries"):
            load_matrix("2\n1 1\n1 1\n0 0\n")

    def test_matrix_size_line_extra_token_refused(self):
        with pytest.raises(FormatError, match="first line '2 9' must be 'n'"):
            load_matrix("2 9\n1 1\n1 1\n")

    def test_graph_edge_line_of_three_refused(self):
        with pytest.raises(FormatError, match="edge line '1 2 3' must be 'u v'"):
            load_graph("3 1\n1 2 3\n")

    @pytest.mark.parametrize("header", ["3", "3 1 7"])
    def test_graph_and_clause_headers_need_n_m(self, header):
        with pytest.raises(FormatError, match=f"first line '{header}' must be 'n m'"):
            load_graph(f"{header}\n1 2\n")
        with pytest.raises(FormatError, match=f"first line '{header}' must be 'n m'"):
            load_clauses(f"{header}\n1 2 3\n")

    def test_circuit(self):
        text = "0 in 1\n1 in 2\n2 add 0 1\n3 mul 2 0\nout 3\n"
        c = load_circuit(text)
        assert eval_circuit(c, [1, 1]) == 2
