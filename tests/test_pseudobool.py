"""Circuits, conditional expectations, searches, and the permanent."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countgen import pseudobool
from countgen.coins import CoinSource, TapeSource
from countgen.describe import load_dnf
from countgen.exceptions import FormatError, SizeGuard
from countgen.pseudobool import (
    Circuit,
    CircuitBuilder,
    PbProblem,
    cond_expectation,
    cut_value,
    derandomize,
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
    random_search,
    sat_value,
)


def reference_eval_circuit(c: Circuit, point) -> Fraction:
    """The slow path: a reduced Fraction at every node, in node order."""
    if len(point) != c.n_vars:
        raise ValueError(f"need {c.n_vars} coordinates")
    values = []
    for node in c.nodes:
        kind = node[0]
        if kind == "in":
            values.append(Fraction(point[node[1]]))
        elif kind == "const":
            values.append(Fraction(node[1]))
        elif kind == "add":
            values.append(sum(values[j] for j in node[1]))
        else:
            prod = Fraction(1)
            for j in node[1]:
                prod *= values[j]
            values.append(prod)
    return values[c.out]


# coordinates with mixed and non-dyadic denominators, integers above 1, negatives
COORDINATES = (
    Fraction(1, 3), Fraction(-5, 7), Fraction(1, 2**49), Fraction(1, 2), Fraction(3, 4),
    0, 1, 2, 5, -1, -3,
)


def random_points(rng, n, count=4):
    return [[rng.choice(COORDINATES) for _ in range(n)] for _ in range(count)]


def random_circuit(rng) -> Circuit:
    """Repeated ids, -1 constants and a deep mul chain, over 0 to 5 variables."""
    n = rng.randint(0, 5)
    b = CircuitBuilder(n)
    ids = [b.var(k) for k in range(n)] + [b.const(c) for c in (-1, 0, 1, -1)]
    for _ in range(rng.randint(1, 8)):
        take = [rng.choice(ids) for _ in range(rng.randint(1, 4))]
        ids.append(b.add(*take) if rng.random() < 0.5 else b.mul(*take))
    chain = ids[-1]
    for _ in range(rng.randint(0, 12)):
        chain = b.mul(chain, rng.choice(ids))
    ids.append(chain)
    return b.build(rng.choice(ids[-4:]))


def circuit_with_dead_nodes(rng) -> Circuit:
    """A random circuit beside a squaring chain, and its sum, that the
    output may or may not read; nodes may follow the output."""
    n = rng.randint(0, 5)
    b = CircuitBuilder(n)
    ids = [b.var(k) for k in range(n)] + [b.const(c) for c in (-1, 0, 1, -1)]
    for _ in range(rng.randint(0, 3)):
        x = rng.choice(ids)
        for _ in range(rng.randint(1, 8)):
            x = b.mul(x, x)
        if rng.random() < 0.5:
            x = b.add(x, rng.choice(ids))
        if rng.random() < 0.2:
            ids.append(x)
    for _ in range(rng.randint(1, 8)):
        take = [rng.choice(ids) for _ in range(rng.randint(1, 4))]
        ids.append(b.add(*take) if rng.random() < 0.5 else b.mul(*take))
    return b.build(rng.randrange(len(b.nodes)))


def reached(c: Circuit) -> set:
    """Oracle: the nodes the output reaches, by depth-first search."""
    seen = set()
    stack = [c.out]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            if c.nodes[i][0] in ("add", "mul"):
                stack.extend(c.nodes[i][1])
    return seen


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


def random_multilinear_circuit(rng, n) -> Circuit:
    """Sums with repeated ids and -1 constants, products of disjoint supports."""
    b = CircuitBuilder(n)
    ids = [b.var(k) for k in range(n)] + [b.const(c) for c in (-1, 0, 1, -1)]
    support = [1 << k for k in range(n)] + [0] * 4
    for _ in range(rng.randint(1, 12)):
        take = [rng.choice(ids) for _ in range(rng.randint(1, 4))]
        mask = 0
        if rng.random() < 0.5:
            for j in take:
                mask |= support[j]
            ids.append(b.add(*take))
        else:
            factors = []
            for j in take:
                if not mask & support[j]:
                    factors.append(j)
                    mask |= support[j]
            ids.append(b.mul(*factors))
        support.append(mask)
    return b.build(rng.choice(ids[-3:]))


def reference_derandomize(p: PbProblem) -> tuple:
    """The slow path: both extensions of every prefix evaluated, 2n evaluations."""
    prefix = []
    for _ in range(p.n):
        with_zero = cond_expectation(p, prefix + [0])
        with_one = cond_expectation(p, prefix + [1])
        prefix.append(1 if with_one > with_zero else 0)
    return tuple(prefix)


def reference_local_search(p: PbProblem, radius: int, start) -> tuple:
    """The slow path: every flip set's assignment evaluated in full."""
    current = tuple(start)
    current_value = p.value(current)
    improved = True
    while improved:
        improved = False
        for size in range(1, radius + 1):
            for flips in combinations(range(p.n), size):
                candidate = list(current)
                for k in flips:
                    candidate[k] ^= 1
                candidate = tuple(candidate)
                value = p.value(candidate)
                if value > current_value:
                    current, current_value = candidate, value
                    improved = True
                    break
            if improved:
                break
    return current


def reference_max_sat_circuit(n: int, clauses) -> Circuit:
    """The slow path: 1 + (-1) * prod(misses) per clause, with 1 - x built
    for every variable up front; the empty clause's miss product is 1."""
    builder = CircuitBuilder(n)
    one = builder.const(1)
    minus = builder.const(-1)
    variables = [builder.var(k) for k in range(n)]
    negated = [builder.add(one, builder.mul(minus, v)) for v in variables]
    clause_nodes = []
    for clause in clauses:
        literals = dict.fromkeys(clause)
        misses = []
        for lit in literals:
            k = abs(lit) - 1
            if not 0 <= k < n:
                raise ValueError(f"literal {lit} out of range")
            misses.append(negated[k] if lit > 0 else variables[k])
        if any(-lit in literals for lit in literals):
            clause_nodes.append(one)
            continue
        all_miss = builder.mul(*misses) if len(misses) > 1 else (misses or [one])[0]
        clause_nodes.append(builder.add(one, builder.mul(minus, all_miss)))
    return builder.build(builder.sum(clause_nodes))


def random_cnf(rng, n):
    """Clauses of 0 to 4 literals over x1..xn, so that unit, repeated-literal,
    tautological and empty clauses all occur."""
    return [
        tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.choice((0, 1, 2, 3, 3, 4))))
        for _ in range(rng.randint(0, 3 * n))
    ]


GOALS = ["max", "min"]


def oriented(c: Circuit, goal: str) -> Circuit:
    """``c`` for "max" and its negation for "min": a problem maximizes its
    objective, so it minimizes ``c`` under "min"."""
    if goal == "max":
        return c
    k = len(c.nodes)
    return Circuit(c.n_vars, c.nodes + (("const", -1), ("mul", (c.out, k))), k + 1)


def average_over_suffixes(p: PbProblem, prefix):
    free = p.n - len(prefix)
    total = Fraction(0)
    for bits in iproduct((0, 1), repeat=free):
        total += p.value(tuple(prefix) + bits)
    return total / 2**free


K3_EDGES = [(0, 1), (0, 2), (1, 2)]

# x1 * (1 - 4 x2 + 4 x2^2): x1 on the cube, but 0 at x2 = 1/2
NON_MULTILINEAR = """
0 in 1
1 in 2
2 const 1
3 const -1
4 mul 3 1
5 add 2 4 4 4 4
6 mul 1 1
7 add 5 6 6 6 6
8 mul 0 7
out 8
"""


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


class TestIntegerEvaluation:
    """The integer evaluator against the Fraction one it replaced."""

    def builder_circuits(self):
        yield max_sat_circuit(4, [(1, -2, 3), (-4,), (2, 2, -1), (3, -3), (4, 1, -2, -3)])
        yield max_cut_circuit(4, [(0, 1), (1, 2), (2, 2), (3, 0), (1, 3), (0, 1)])
        for a in (((1, 1, 0), (0, 1, 1), (1, 0, 1)), ((1, 1), (1, 1)), ((0, 1), (0, 1))):
            yield perm_circuit(a)
            yield msf_perm_circuit(a)
        yield load_circuit("0 in 1\n1 in 2\n2 add 0 1\n3 mul 2 0\nout 3\n")
        yield load_circuit(NON_MULTILINEAR)

    def test_builders_match_reference(self):
        rng = random.Random(3)
        for c in self.builder_circuits():
            points = random_points(rng, c.n_vars, 6)
            points.append([Fraction(1, 2)] * c.n_vars)
            points.append([1] * c.n_vars)
            for point in points:
                assert eval_circuit(c, point) == reference_eval_circuit(c, point)

    def test_random_circuits_match_reference(self):
        rng = random.Random(12)
        for _ in range(300):
            c = random_circuit(rng)
            for point in random_points(rng, c.n_vars):
                assert eval_circuit(c, point) == reference_eval_circuit(c, point)

    def test_circuits_with_dead_nodes_match_reference(self):
        rng = random.Random(18)
        for _ in range(300):
            c = circuit_with_dead_nodes(rng)
            steps = c.plan.steps
            assert len(steps) == c.out + 1
            assert {i for i, (kind, _) in enumerate(steps) if kind != "dead"} == reached(c)
            for point in random_points(rng, c.n_vars):
                assert eval_circuit(c, point) == reference_eval_circuit(c, point)

    def test_coordinates_of_any_rational_type(self):
        c = max_sat_circuit(3, [(1, -2), (2, 3)])
        for point in ([True, 0.5, "1/3"], [Fraction(2, 6), 0.25, -2]):
            assert eval_circuit(c, point) == reference_eval_circuit(c, point)

    def test_no_variables(self):
        b = CircuitBuilder(0)
        minus = b.const(-1)
        c = b.build(b.add(b.mul(minus, minus), minus, b.const(1)))
        assert eval_circuit(c, []) == reference_eval_circuit(c, []) == 1

    def test_plan_is_built_once_and_kept(self):
        c = max_sat_circuit(3, [(1, -2), (2, 3)])
        plan = c.plan
        assert c.plan is plan
        # the kept plan is no field: equality and hashing read the nodes only
        fresh = Circuit(c.n_vars, c.nodes, c.out)
        assert c == fresh and hash(c) == hash(fresh)
        assert fresh.plan == plan and fresh.plan is not plan

    def test_wrong_coordinate_count(self):
        with pytest.raises(ValueError, match="need 2 coordinates"):
            eval_circuit(perm_circuit(((1, 1), (1, 1))), [1])


class TestIncrementalEvaluation:
    """``_Evaluation.update`` against a full reference evaluation after
    every step of seeded random update sequences."""

    @staticmethod
    def walk(rng, c: Circuit, common: int, steps: int = 12):
        numerators = [rng.randint(-3 * common, 3 * common) for _ in range(c.n_vars)]
        state = pseudobool._Evaluation(c, numerators, common)
        for step in range(steps + 1):
            point = [Fraction(x, common) for x in numerators]
            assert Fraction(state.output(), common**c.plan.degree) == reference_eval_circuit(c, point)
            if c.n_vars:
                # one to three coordinates, some set to the value they hold
                changes = [(rng.randrange(c.n_vars), rng.randint(-3 * common, 3 * common))
                           for _ in range(rng.randint(1, 3))]
                if step % 3 == 0:
                    changes.append((changes[0][0], numerators[changes[0][0]]))
                state.update(changes)
                for k, x in changes:
                    numerators[k] = x

    def circuits(self, rng):
        for _ in range(150):
            c = random_circuit(rng)
            if not (c.plan.squared and c.plan.degree > pseudobool._DEGREE_CEILING):
                yield c
        for _ in range(150):
            yield circuit_with_dead_nodes(rng)
        for _ in range(40):
            yield random_multilinear_circuit(rng, rng.randint(0, 8))

    @pytest.mark.parametrize("common", [1, 2, 6])
    def test_random_update_sequences_match_reference(self, common):
        # -1/0/1 constants, repeated add and mul children, dead nodes and
        # nodes after the output
        rng = random.Random(common)
        for c in self.circuits(rng):
            self.walk(rng, c, common)

    def test_builders_match_reference(self):
        rng = random.Random(5)
        for n in (1, 6, 12):
            clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                       for _ in range(3 * n)]
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
            for c in (max_sat_circuit(n, clauses), max_cut_circuit(n, edges)):
                for common in (1, 2):
                    self.walk(rng, c, common, steps=30)

    def test_a_variable_read_by_two_input_nodes(self):
        # both input nodes of x1 move together
        c = load_circuit("0 in 1\n1 in 2\n2 in 1\n3 mul 0 1\n4 add 3 2 2\nout 4\n")
        self.walk(random.Random(3), c, 2, steps=20)

    def test_wrong_coordinate_count(self):
        b = CircuitBuilder(2)
        c = b.build(b.var(0))
        with pytest.raises(ValueError, match="need 2 coordinates"):
            pseudobool._Evaluation(c, [1], 1)


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
            assert not c.plan.squared
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
        # one edge's cut: both values of x1 expect 1/2, so x1 ties and takes
        # 0; then x2 = 1 cuts the edge
        p = PbProblem(2, max_cut_circuit(2, [(0, 1)]))
        assert derandomize(p) == (0, 1)

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


class TestDerandomizeAgainstReference:
    """One evaluation per variable against the 2n-evaluation loop it replaced."""

    def problems(self):
        rng = random.Random(17)
        for goal in GOALS:
            for _ in range(12):
                n = rng.randint(1, 10)
                clauses = [
                    tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3 * n))
                ]
                yield PbProblem(n, oriented(max_sat_circuit(n, clauses), goal))
                edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2 * n))]
                yield PbProblem(n, oriented(max_cut_circuit(n, edges), goal))
            for _ in range(60):
                n = rng.randint(0, 6)
                yield PbProblem(n, oriented(random_multilinear_circuit(rng, n), goal))

    def test_builders_and_random_circuits(self):
        for p in self.problems():
            assert derandomize(p) == reference_derandomize(p)

    @pytest.mark.parametrize("goal", GOALS)
    def test_constant_objective_gives_all_zeros(self, goal):
        for c in (0, 1, -1):
            b = CircuitBuilder(5)
            p = PbProblem(5, oriented(b.build(b.const(c)), goal))
            assert derandomize(p) == reference_derandomize(p) == (0,) * 5

    @pytest.mark.parametrize("goal", GOALS)
    def test_tie_heavy_objectives(self, goal):
        # an even cycle's cut, symmetric clause pairs, and unused variables
        # tie at many prefixes; ties prefer 0 on both paths
        cycle = [(k, (k + 1) % 6) for k in range(6)]
        pairs = [(1, 2), (-1, -2), (3, -3), (-4, 5), (4, -5, -5)]
        for p in (
            PbProblem(6, oriented(max_cut_circuit(6, cycle), goal)),
            PbProblem(7, oriented(max_sat_circuit(7, pairs), goal)),
        ):
            assert derandomize(p) == reference_derandomize(p)

    def test_no_variables(self):
        b = CircuitBuilder(0)
        p = PbProblem(0, b.build(b.const(1)))
        assert derandomize(p) == reference_derandomize(p) == ()

    def test_no_circuit_evaluation(self, monkeypatch):
        # derandomize updates one evaluation in place; only the reference
        # evaluates the circuit, 2n times
        calls = []
        monkeypatch.setattr(
            pseudobool, "eval_circuit", lambda c, point: calls.append(1) or eval_circuit(c, point)
        )
        for n in (0, 1, 7, 40):
            rng = random.Random(n)
            clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                       for _ in range(3 * n)]
            p = PbProblem(n, max_sat_circuit(n, clauses))
            calls.clear()
            out = derandomize(p)
            assert calls == []
            assert out == reference_derandomize(p)
            assert len(calls) == 2 * n


class TestDegreeCeiling:
    """A circuit that may square a variable is refused past degree 4096."""

    @staticmethod
    def squarings(k: int) -> Circuit:
        b = CircuitBuilder(2)
        x = b.var(0)
        for _ in range(k):
            x = b.mul(x, x)
        return b.build(b.add(x, b.var(1)))

    def test_twenty_squarings_refused(self):
        c = self.squarings(20)
        assert c.plan.degree == 2**20
        with pytest.raises(SizeGuard, match="degree bound 1048576 .* above 4096"):
            eval_circuit(c, [0, Fraction(1, 3)])

    def test_dead_squarings_are_not_planned(self):
        # x squared 20 times, then added to y, with output y
        b = CircuitBuilder(2)
        x = b.var(0)
        for _ in range(20):
            x = b.mul(x, x)
        y = b.var(1)
        b.add(x, y)
        c = b.build(y)
        plan = c.plan
        assert (plan.steps, plan.weights, plan.degree, plan.squared) == (
            (("dead", None),) * 21 + (("in", 1),), (), 1, 0)
        for point in ([0, Fraction(1, 3)], [1, Fraction(-5, 7)], [-1, 2]):
            assert eval_circuit(c, point) == reference_eval_circuit(c, point) == point[1]
        assert derandomize(PbProblem(2, c)) == (0, 1)

    def test_just_under_the_ceiling_matches_reference(self):
        c = self.squarings(12)
        assert c.plan.degree == 4096 == pseudobool._DEGREE_CEILING
        for point in ([0, Fraction(1, 3)], [Fraction(1, 2), Fraction(-5, 7)], [1, 1], [-1, 2]):
            assert eval_circuit(c, point) == reference_eval_circuit(c, point)
        with pytest.raises(SizeGuard):
            eval_circuit(self.squarings(13), [1, 1])

    def test_multilinear_circuit_past_the_ceiling_is_evaluated(self):
        n = 5000
        b = CircuitBuilder(n)
        c = b.build(b.mul(*(b.var(k) for k in range(n))))
        assert c.plan.degree == n > pseudobool._DEGREE_CEILING and not c.plan.squared
        point = [Fraction(1, 2)] * n
        assert eval_circuit(c, point) == Fraction(1, 2**n)


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

    @pytest.mark.parametrize(
        "epsilon, draws",
        [(Fraction(1, 308), "65755"), (Fraction(1, 100000), "6931471806"), (Fraction(1, 10**200), r"\d{400}")],
    )
    def test_random_search_refuses_draws_past_the_ceiling(self, epsilon, draws):
        # an empty tape raises on any draw, so the refusal comes before one
        p = PbProblem(2, max_sat_circuit(2, [(1, 2)]))
        with pytest.raises(SizeGuard, match=f"take {draws} random-search draws, above 65536$"):
            random_search(p, epsilon, Fraction(1, 4), TapeSource(()))

    def test_random_search_with_delta_below_float_range(self):
        # float(delta) is 0 here; the draw count is ceil(400 ln 10 / 2) = 461
        p = PbProblem(2, max_sat_circuit(2, [(1, 2)]))
        src = CoinSource(3)
        random_search(p, Fraction(1), Fraction(1, 10**400), src)
        assert src.bits_consumed == 461 * p.n

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

    def test_local_search_refuses_a_radius_past_the_flip_set_ceiling(self):
        p = PbProblem(24, max_sat_circuit(24, [(1, 2, 3)]))
        message = "^radius 24 on 24 variables scans 16777215 flip sets a sweep, above 65536$"
        with pytest.raises(SizeGuard, match=message):
            local_search(p, 24, (0,) * 24)
        # past the number of variables, every nonempty flip set counts once
        with pytest.raises(SizeGuard, match="^radius 99 on 24 variables scans 16777215 "):
            local_search(p, 99, (0,) * 24)
        # 24 + 276 + 2024 + 10626 + 42504 + 134596 sets at radius 6
        with pytest.raises(SizeGuard, match="^radius 6 on 24 variables scans 190050 "):
            local_search(p, 6, (0,) * 24)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_local_search_matches_full_evaluation(self, radius):
        rng = random.Random(radius)
        for _ in range(25):
            n = rng.randint(1, 9)
            clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(0, 4 * n))]
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
            for c in (max_sat_circuit(n, clauses), max_cut_circuit(n, edges),
                      oriented(random_multilinear_circuit(rng, n), rng.choice(GOALS))):
                p = PbProblem(n, c)
                start = tuple(rng.randint(0, 1) for _ in range(n))
                assert local_search(p, radius, start) == reference_local_search(p, radius, start)

    def test_local_search_admits_radius_3_on_40_variables(self):
        # 40 + 780 + 9880 = 10,700 flip sets a sweep
        p = PbProblem(40, max_sat_circuit(40, [(1,)]))
        assert local_search(p, 3, (1,) * 40) == (1,) * 40

    def test_eg_solve_beats_expectation(self):
        clauses = [(1, 2, 3), (-1, 2, -3)]
        p = PbProblem(3, max_sat_circuit(3, clauses))
        out = local_search(p, 1, derandomize(p))
        assert p.value(out) >= cond_expectation(p, [])

    def test_eg_solve_k3_optimal(self):
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        out = local_search(p, 1, derandomize(p))
        assert cut_value(K3_EDGES, out) == 2

    def test_eg_solve_leaves_local_optimum_alone(self):
        # the greedily fixed point is already optimal here, so the local
        # phase returns it unchanged
        p = PbProblem(3, max_cut_circuit(3, K3_EDGES))
        fixed = derandomize(p)
        assert local_search(p, 1, fixed) == fixed
        assert local_search(p, 1, derandomize(p)) == fixed


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
        assert not max_sat_circuit(3, [(1, -2, 3)]).plan.squared
        assert not max_cut_circuit(3, K3_EDGES).plan.squared

    def test_square_detector(self):
        b = CircuitBuilder(1)
        x = b.var(0)
        assert b.build(b.mul(x, x)).plan.squared == 1

    def test_repeated_literal_counts_once(self):
        # the expectation is 13/4; the circuit at 1/2 claimed 7/2 when 2 2 squared x2
        clauses = [(-1,), (-2,), (2, 1, 2), (1, 2), (-2, -2, 1)]
        p = PbProblem(2, max_sat_circuit(2, clauses))
        assert cond_expectation(p, []) == average_over_suffixes(p, []) == Fraction(13, 4)
        out = derandomize(p)
        assert sat_value(clauses, out) == p.value(out) >= Fraction(13, 4)
        deduplicated = max_sat_circuit(2, [(-1,), (-2,), (2, 1), (1, 2), (-2, 1)])
        assert max_sat_circuit(2, clauses) == deduplicated

    def test_clause_with_both_signs_is_one(self):
        c = max_sat_circuit(2, [(1, -2, -1)])
        assert c.nodes[c.out] == ("const", 1)
        assert eval_circuit(c, [Fraction(1, 3), 5]) == 1

    def test_clause_layout(self):
        # m - sum of miss products: 1 - x1 for the positive literal, one mul
        # for the clause, and one output add over the constant and -1 * misses
        c = max_sat_circuit(2, [(1, -2)])
        assert c.nodes == (
            ("const", 1), ("const", -1), ("in", 0), ("in", 1),
            ("mul", (1, 2)), ("add", (0, 4)), ("mul", (5, 3)),
            ("mul", (1, 6)), ("add", (0, 7)),
        )
        assert c.out == 8

    def test_empty_clause_adds_nothing(self):
        for clauses in ([()], [(), (1,), (-1, 2), ()], [(), (2, -2)]):
            c = max_sat_circuit(2, clauses)
            for bits in iproduct((0, 1), repeat=2):
                assert eval_circuit(c, bits) == sat_value(clauses, bits)
        assert eval_circuit(max_sat_circuit(2, [()]), [Fraction(1, 2)] * 2) == 0

    def test_self_loop_adds_no_term(self):
        c = max_cut_circuit(2, [(0, 0)])
        assert eval_circuit(c, [Fraction(1, 2)] * 2) == 0
        edges = [(0, 1), (1, 1), (1, 2)]
        p = PbProblem(3, max_cut_circuit(3, edges))
        assert cond_expectation(p, []) == average_over_suffixes(p, []) == 1
        for bits in iproduct((0, 1), repeat=3):
            assert p.value(bits) == cut_value(edges, bits)

    def test_non_multilinear_objective_refused(self):
        c = load_circuit(NON_MULTILINEAR)
        assert c.plan.squared == 0b10
        with pytest.raises(ValueError, match="^objective is not multilinear: a product repeats x2$"):
            PbProblem(2, c)

    def test_square_through_a_sum_refused(self):
        b = CircuitBuilder(3)
        x1, x2, x3 = (b.var(k) for k in range(3))
        c = b.build(b.add(x1, b.mul(b.add(x2, x3), b.mul(x3, x1), x2)))
        assert c.plan.squared == 0b110
        with pytest.raises(ValueError, match="repeats x2$"):
            PbProblem(3, c)

    def test_cancelled_square_refused(self):
        # x*x - x*x is multilinear, but the check looks at products only
        b = CircuitBuilder(1)
        x = b.var(0)
        square = b.mul(x, x)
        c = b.build(b.add(square, b.mul(b.const(-1), square)))
        with pytest.raises(ValueError, match="repeats x1$"):
            PbProblem(1, c)

    def test_square_free_permanent_circuit_accepted(self):
        a = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert not msf_perm_circuit(a).plan.squared
        assert perm_circuit(a).plan.squared == 0b111


class TestMaxSatAgainstReference:
    """The m - sum-of-misses circuit against the per-clause builder it replaced."""

    def problems(self):
        rng = random.Random(30)
        kinds = Counter()
        for _ in range(150):
            n = rng.randint(1, 6)
            clauses = random_cnf(rng, n)
            for clause in clauses:
                literals = set(clause)
                kinds["empty"] += not clause
                kinds["unit"] += len(literals) == 1
                kinds["repeated"] += len(literals) < len(clause)
                kinds["tautology"] += any(-lit in literals for lit in literals)
            yield n, clauses
        assert min(kinds.values()) >= 20 and len(kinds) == 4

    def test_same_values(self):
        for n, clauses in self.problems():
            c, reference = max_sat_circuit(n, clauses), reference_max_sat_circuit(n, clauses)
            assert len(c.nodes) <= len(reference.nodes)
            assert not c.plan.squared
            for point in [*iproduct((0, 1), repeat=n), [Fraction(1, 2)] * n]:
                assert eval_circuit(c, point) == eval_circuit(reference, point)
            for bits in iproduct((0, 1), repeat=n):
                assert eval_circuit(c, bits) == sat_value(clauses, bits)

    def test_same_assignments(self):
        rng = random.Random(31)
        for n, clauses in self.problems():
            p = PbProblem(n, max_sat_circuit(n, clauses))
            reference = PbProblem(n, reference_max_sat_circuit(n, clauses))
            assert derandomize(p) == derandomize(reference)
            seed = rng.randrange(2**32)
            found = random_search(p, Fraction(1, 4), Fraction(1, 4), CoinSource(seed))
            assert found == random_search(reference, Fraction(1, 4), Fraction(1, 4), CoinSource(seed))
            start = tuple(rng.randint(0, 1) for _ in range(n))
            radius = rng.randint(1, 2)
            assert local_search(p, radius, start) == local_search(reference, radius, start)


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

    @pytest.mark.parametrize("text, line, found", [
        ("2\n1 1\n1\n", 3, 1), ("2\n1 1 0\n1 1\n", 2, 3), ("3\n1 1 1\n# gap\n1 1\n1 1 1\n", 4, 2),
    ])
    def test_matrix_row_of_wrong_length_names_its_line(self, text, line, found):
        n = text.split()[0]
        with pytest.raises(FormatError, match=f"^line {line}: expected {n} entries, found {found}$"):
            load_matrix(text)

    def test_matrix_size_line_extra_token_refused(self):
        with pytest.raises(FormatError, match="first line '2 9' must be 'n'"):
            load_matrix("2 9\n1 1\n1 1\n")

    def test_graph_edge_line_of_three_refused(self):
        with pytest.raises(FormatError, match="^line 2: edge '1 2 3' must be 'u v'$"):
            load_graph("3 1\n1 2 3\n")

    @pytest.mark.parametrize("text, line, literal", [
        ("3 1\n1 4\n", 2, 4), ("3 2\n1 2\n# gap\n0 1\n", 4, 0), ("3 1\n-4 1\n", 2, -4),
    ])
    def test_clause_literal_outside_range(self, text, line, literal):
        message = f"^line {line}: literal {literal} out of range$"
        with pytest.raises(FormatError, match=message):
            load_clauses(text)
        with pytest.raises(FormatError, match=message):
            load_dnf(text)

    def test_matrix_entry_names_its_line(self):
        with pytest.raises(FormatError, match="^line 3: entries must be 0 or 1$"):
            load_matrix("2\n1 1\n1 2\n")

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
