"""Arithmetic circuits over {-1,0,1}, conditional-expectation rounding,
random search, local search, and the permanent cross-checks.

Objectives over {0,1}^n are carried as circuits whose polynomial is
multilinear; then the point evaluation at 1/2 in the free coordinates
equals the conditional expectation under uniform suffixes, which is what
greedy bit fixing needs.  ``PbProblem`` checks this exactly from one pass
over the nodes: a product of two factors that share a variable is
refused, so a circuit that is multilinear only after cancellation, such
as x*x - x*x, is refused too.  The permanent of a 0/1 matrix doubles as
the correctness anchor: its row-product polynomial exposes the permanent
both as a top coefficient of the square-free image and through a
fractional-part identity at the point 2**-s.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations

from ._kept import kept
from ._record import record
from .exceptions import FormatError, SizeGuard
from .specfile import integer, integer_lines, read_directives, single

# Largest matrix side any permanent method accepts.
_PERMANENT_CEILING = 8
# Most assignments one search may evaluate: the flip sets of a local-search
# sweep (radius 3 on 40 variables is 10,700 of them), or the draws of a
# random search.
_SEARCH_CEILING = 1 << 16
# Largest degree bound eval_circuit accepts on a circuit whose output may
# hold a squared variable; a multilinear one has degree at most its support.
_DEGREE_CEILING = 4096
# Widest add whose children Circuit.plan first counts with dict.fromkeys;
# past it, or when a child repeats, it counts them with Counter.
_SMALL_ADD = 64


@record
class _Plan:
    """What evaluating and checking a circuit needs, built once per circuit."""

    steps: tuple  # per node to the output (kind, arg); an add's arg holds (child, w) per distinct child
    weights: tuple  # the w-th (gap, count) scales a child's numerator by count * D**gap
    degree: int  # the output's total degree bound
    squared: int  # bitmask of the variables the output may hold squared


@record
class Circuit:
    """Arithmetic circuit: nodes reference earlier nodes only.

    Node kinds: ("in", k) for the k-th variable (0-based), ("const", c)
    with c in {-1,0,1}, ("add", ids) and ("mul", ids); ids may repeat.
    """

    n_vars: int
    nodes: tuple
    out: int

    def __post_init__(self):
        for i, node in enumerate(self.nodes):
            kind = node[0]
            if kind == "in":
                if not 0 <= node[1] < self.n_vars:
                    raise ValueError(f"input index {node[1]} out of range")
            elif kind == "const":
                if node[1] not in (-1, 0, 1):
                    raise ValueError("constants must be -1, 0 or 1")
            elif kind in ("add", "mul"):
                if not node[1]:
                    raise ValueError(f"{kind} node needs arguments")
                if not 0 <= min(node[1]) <= max(node[1]) < i:
                    raise ValueError("nodes may only reference earlier nodes")
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        if not 0 <= self.out < len(self.nodes):
            raise ValueError("output node out of range")

    @kept
    def plan(self) -> _Plan:
        """What evaluating and checking the circuit needs (see ``_plan``)."""
        return _plan(self)


def _plan(c: Circuit) -> _Plan:
    """Two passes: one back from the output marks the nodes it reaches,
    one in node order plans them.

    Each node gets a total degree bound (``in`` 1, ``const`` 0, ``add`` the
    max of its children, ``mul`` their sum) and, as bitmasks, its support
    and the variables it may hold squared: a ``mul`` whose factors'
    supports overlap squares their common variables.  A node with no
    squared variable has degree at most its support size.  Any node up to
    the output that it does not reach is a ``dead`` placeholder with no
    degree, weight or scale, and the nodes after the output are left out.
    """
    nodes = c.nodes
    live = [False] * (c.out + 1)
    live[c.out] = True
    added = {}  # live add node -> how often it names each child
    for i in range(c.out, -1, -1):
        if live[i]:
            kind, arg = nodes[i]
            if kind == "add":
                # dict.fromkeys is the cheaper count of a small add whose
                # children are distinct; Counter counts a wide one faster
                counts = dict.fromkeys(arg, 1) if len(arg) <= _SMALL_ADD else {}
                if len(counts) < len(arg):
                    counts = Counter(arg)
                arg = added[i] = counts
            elif kind != "mul":
                continue
            for j in arg:
                live[j] = True
    steps, weights, degree, support, squared = [], {}, [], [], []
    for i, (kind, arg) in enumerate(nodes[: c.out + 1]):
        if not live[i]:
            kind, arg, d, s, q = "dead", None, None, None, None
        elif kind == "in":
            d, s, q = 1, 1 << arg, 0
        elif kind == "const":
            d, s, q = 0, 0, 0
        elif kind == "add":
            counts = added[i]
            d = s = q = 0
            for j in counts:
                if degree[j] > d:
                    d = degree[j]
                s |= support[j]
                q |= squared[j]
            arg = tuple(
                [(j, weights.setdefault((d - degree[j], count), len(weights)))
                 for j, count in counts.items()]
            )
        else:
            d = s = q = 0
            for j in arg:
                d += degree[j]
                q |= squared[j] | (s & support[j])
                s |= support[j]
        steps.append((kind, arg))
        degree.append(d)
        support.append(s)
        squared.append(q)
    return _Plan(tuple(steps), tuple(weights), degree[c.out], squared[c.out])


class CircuitBuilder:
    """Tiny helper for assembling circuits node by node."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.nodes = []

    def var(self, k: int) -> int:
        self.nodes.append(("in", k))
        return len(self.nodes) - 1

    def const(self, c: int) -> int:
        self.nodes.append(("const", c))
        return len(self.nodes) - 1

    def add(self, *ids: int) -> int:
        self.nodes.append(("add", tuple(ids)))
        return len(self.nodes) - 1

    def mul(self, *ids: int) -> int:
        self.nodes.append(("mul", tuple(ids)))
        return len(self.nodes) - 1

    def sum(self, ids) -> int:
        """A node for the sum of ``ids``: the one id itself, or 0 when empty."""
        if len(ids) > 1:
            return self.add(*ids)
        return ids[0] if ids else self.const(0)

    def build(self, out: int) -> Circuit:
        return Circuit(self.n_vars, tuple(self.nodes), out)


def eval_circuit(c: Circuit, point) -> Fraction:
    """Exact evaluation at a rational point, in node order, of the nodes
    the output reaches (see ``Circuit.plan``).

    With the point over one common denominator D, a node of degree bound
    d is an integer numerator over D**d: an ``add`` scales each distinct
    child by D to the power of its degree gap, times how often it is
    named, a ``mul`` multiplies numerators, and only the output is
    reduced to a Fraction.  Repeated squaring makes the degree bound grow
    exponentially with ``mul`` depth, so a circuit that may square a
    variable is refused with SizeGuard above degree ``_DEGREE_CEILING``.
    """
    if len(point) != c.n_vars:
        raise ValueError(f"need {c.n_vars} coordinates")
    point = [x if type(x) in (int, Fraction) else Fraction(x) for x in point]
    common = math.lcm(*(x.denominator for x in point))
    numerators = [x.numerator * (common // x.denominator) for x in point]
    state = _Evaluation(c, numerators, common)
    return Fraction(state.output(), common**state.plan.degree)


class _Evaluation:
    """The numerator of every node the output reaches, at one point over a
    fixed common denominator D, each over D to the power of the node's
    degree bound, as ``eval_circuit`` computes them; kept, so that changing
    a few coordinates recomputes only the nodes they reach.

    ``update`` walks the changed nodes in node order (a heap over node ids),
    so every child is final before its parents read it: an ``add`` moves by
    ``scale[w] * (new - old)`` of each changed child, and a ``mul`` is
    recomputed from its children.  The parent lists are built at the first
    update, so a one-shot evaluation never pays for them; they hold one
    entry per edge, O(nodes + edges) in all.
    """

    def __init__(self, c: Circuit, numerators, common: int):
        if len(numerators) != c.n_vars:
            raise ValueError(f"need {c.n_vars} coordinates")
        plan = self.plan = c.plan
        if plan.squared and plan.degree > _DEGREE_CEILING:
            raise SizeGuard(
                f"degree bound {plan.degree} of a circuit that squares a variable "
                f"is above {_DEGREE_CEILING}"
            )
        self.n_vars, self.out = c.n_vars, c.out
        scale = self.scale = [count * common**gap for gap, count in plan.weights]
        values = self.values = []
        for kind, arg in plan.steps:
            if kind == "mul":
                value = 1
                for j in arg:
                    value *= values[j]
            elif kind == "add":
                value = 0
                for j, w in arg:
                    value += values[j] * scale[w]
            elif kind == "in":
                value = numerators[arg]
            else:  # a constant, or None for a dead node
                value = arg
            values.append(value)
        self.parents = self.inputs = None

    def output(self) -> int:
        """The output's numerator, over D to the power of ``plan.degree``."""
        return self.values[self.out]

    def update(self, coordinates) -> None:
        """Set coordinate k's numerator over D to x for each ``(k, x)``."""
        if self.parents is None:
            self._link()
        values, steps, parents, scale = self.values, self.plan.steps, self.parents, self.scale
        queue, moved = [], {}  # nodes to recompute; how far each input or add moves
        for k, x in coordinates:
            for i in self.inputs[k]:
                if i not in moved:
                    heappush(queue, i)
                moved[i] = x - values[i]  # the last setting of k wins
        while queue:
            i = heappop(queue)
            old = values[i]
            if steps[i][0] == "mul":
                new = 1
                for j in steps[i][1]:
                    new *= values[j]
            else:
                new = old + moved[i]
            if new != old:
                values[i] = new
                for p, w in parents[i]:
                    if p not in moved:
                        heappush(queue, p)
                        moved[p] = 0
                    if w is not None:
                        moved[p] += scale[w] * (new - old)

    def _link(self) -> None:
        """Each live node's parents as ``(parent, w)``, w the weight index
        of an ``add`` parent and None for a ``mul``, which is listed once
        per time it names the node; each variable's live input nodes."""
        parents = self.parents = [[] for _ in self.values]
        inputs = self.inputs = [[] for _ in range(self.n_vars)]
        for i, (kind, arg) in enumerate(self.plan.steps):
            if kind == "add":
                for j, w in arg:
                    parents[j].append((i, w))
            elif kind == "mul":
                for j in arg:
                    parents[j].append((i, None))
            elif kind == "in":
                inputs[arg].append(i)


def msf_coefficient(c: Circuit, monomial) -> int:
    """Coefficient of a square-free monomial in a square-free circuit.

    ``monomial`` is an iterable of variable indices.  Substituting z for
    the monomial's variables and 0 elsewhere turns every node into a
    univariate polynomial of degree at most |monomial|; the wanted
    coefficient is the top one at the output.  Repeated indices give 0.
    """
    wanted = list(monomial)
    if len(set(wanted)) != len(wanted):
        return 0
    degree = len(wanted)
    chosen = set(wanted)

    def mul_poly(p, q):
        out = [0] * (degree + 1)
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    if qj and i + j <= degree:
                        out[i + j] += pi * qj
        return out

    polys = []
    for node in c.nodes:
        kind = node[0]
        if kind == "in":
            p = [0] * (degree + 1)
            if node[1] in chosen and degree >= 1:
                p[1] = 1
            polys.append(p)
        elif kind == "const":
            p = [0] * (degree + 1)
            p[0] = node[1]
            polys.append(p)
        elif kind == "add":
            p = [0] * (degree + 1)
            for j in node[1]:
                other = polys[j]
                for k in range(degree + 1):
                    p[k] += other[k]
            polys.append(p)
        else:
            p = [0] * (degree + 1)
            p[0] = 1
            for j in node[1]:
                p = mul_poly(p, polys[j])
            polys.append(p)
    return polys[c.out][degree]


# ---------------------------------------------------------------------------
# Permanent of a 0/1 matrix, three ways.


def _header(text: str, what: str, names: str) -> tuple:
    """A headed file's first row, which must hold ``names``, and its other
    rows as ``(line number, row)`` pairs."""
    (_, header), *rows = integer_lines(text, what)
    if len(header) != len(names.split()):
        raise FormatError(f"first line {' '.join(map(str, header))!r} must be {names!r}")
    return header, rows


def load_matrix(text: str):
    """Parse: first line n, then n rows of 0/1 entries."""
    (n,), rows = _header(text, "matrix", "n")
    if len(rows) != n:
        raise FormatError(f"expected {n} rows of {n} entries")
    for number, row in rows:
        if len(row) != n:
            raise FormatError(f"line {number}: expected {n} entries, found {len(row)}")
        if any(e not in (0, 1) for e in row):
            raise FormatError(f"line {number}: entries must be 0 or 1")
    return tuple(tuple(r) for _, r in rows)


def perm_circuit(a) -> Circuit:
    """Row-product circuit: the product over rows of their variable sums."""
    n = len(a)
    builder = CircuitBuilder(n)
    variables = [builder.var(j) for j in range(n)]
    rows = []
    for i in range(n):
        selected = [variables[j] for j in range(n) if a[i][j]]
        if selected:
            rows.append(builder.add(*selected))
        else:
            rows.append(builder.const(0))
    out = rows[0] if n == 1 else builder.mul(*rows)
    return builder.build(out)


def _msf_expansion(a) -> dict:
    """Square-free image of the row-product polynomial, by expansion.

    Returns {frozenset of variable indices: coefficient}; exponential in
    n, intended for the desk-scale cross-checks only.
    """
    n = len(a)
    terms = {frozenset(): 1}
    for i in range(n):
        nxt: dict = {}
        row = [j for j in range(n) if a[i][j]]
        for mono, coef in terms.items():
            for j in row:
                grown = mono | {j}
                nxt[grown] = nxt.get(grown, 0) + coef
        terms = nxt
    return terms


def msf_perm_circuit(a) -> Circuit:
    """Explicit square-free circuit for the expanded row-product polynomial."""
    n = len(a)
    expansion = _msf_expansion(a)
    builder = CircuitBuilder(n)
    variables = [builder.var(j) for j in range(n)]
    one = builder.const(1)
    if not expansion:  # a zero row wipes out every monomial
        return builder.build(builder.const(0))
    monomials = []
    for mono in sorted(expansion, key=sorted):
        coef = expansion[mono]
        factors = [variables[j] for j in sorted(mono)] or [one]
        node = builder.mul(*factors) if len(factors) > 1 else factors[0]
        monomials.extend([node] * coef)
    return builder.build(builder.sum(monomials))


def permanent(a, method: str = "bruteforce") -> int:
    """Permanent of a 0/1 matrix.

    ``bruteforce`` sums over permutations; ``coefficient`` reads the full
    monomial of the expanded square-free row-product polynomial through
    the coefficient-extraction routine; ``fraction`` recovers it from the
    fractional part of 2**(s(n-1)) times the square-free polynomial at
    2**-s with s = n*n.
    """
    n = len(a)
    if n > _PERMANENT_CEILING:
        raise SizeGuard(f"matrix side {n} above ceiling {_PERMANENT_CEILING}")
    if method == "bruteforce":
        return sum(
            math.prod(a[i][pi[i]] for i in range(n)) for pi in permutations(range(n))
        )
    if method == "coefficient":
        return msf_coefficient(msf_perm_circuit(a), range(n))
    if method == "fraction":
        s = n * n
        point = [Fraction(1, 2**s)] * n
        value = eval_circuit(msf_perm_circuit(a), point)
        scaled = Fraction(2) ** (s * (n - 1)) * value
        fractional = scaled - math.floor(scaled)
        result = fractional * 2**s
        assert result.denominator == 1
        return int(result)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Pseudo-boolean objectives and the optimizers.


@record
class PbProblem:
    """Objective circuit over {0,1}^n to maximize, checked multilinear (see
    ``Circuit.plan``).  To minimize an objective, maximize its negation."""

    n: int
    objective: Circuit

    def __post_init__(self):
        if self.objective.n_vars != self.n:
            raise ValueError("objective arity mismatch")
        squared = self.objective.plan.squared
        if squared:
            k = (squared & -squared).bit_length()
            raise ValueError(f"objective is not multilinear: a product repeats x{k}")

    def value(self, assignment) -> Fraction:
        return eval_circuit(self.objective, assignment)


def cond_expectation(p: PbProblem, prefix) -> Fraction:
    """Expected objective under uniform suffixes, given the fixed prefix.

    For a multilinear objective this is the point evaluation with the
    free coordinates at 1/2.
    """
    if len(prefix) > p.n:
        raise ValueError("prefix longer than the variable count")
    point = list(prefix)
    point.extend([Fraction(1, 2)] * (p.n - len(prefix)))
    return p.value(point)


def derandomize(p: PbProblem) -> tuple:
    """Greedy bit fixing along conditional expectations.

    The output's objective value is at least the unconditioned
    expectation, by internality.  Ties prefer bit 0.

    A multilinear objective is affine in each variable, so the expectation
    given a prefix is the mean of its two extensions: E[prefix] =
    (E[prefix+0] + E[prefix+1]) / 2, exactly.  Each step therefore
    computes only E[prefix+0], takes E[prefix+1] = 2 E[prefix] - E[prefix+0],
    and carries the chosen branch's value on, with the same values, so the
    same choices, as evaluating both.  The circuit is evaluated once, at
    the all-1/2 point over denominator 2.  Step k then updates in place
    only the nodes x_k reaches: once to set x_k to 0, and once more to set
    it to 1 when 1 wins.  No step evaluates the whole circuit again.
    """
    state = _Evaluation(p.objective, [1] * p.n, 2)
    current = state.output()
    prefix = []
    for k in range(p.n):
        state.update([(k, 0)])
        with_zero = state.output()
        with_one = 2 * current - with_zero
        if with_one > with_zero:
            state.update([(k, 2)])
            prefix.append(1)
            current = with_one
        else:
            prefix.append(0)
            current = with_zero
    return tuple(prefix)


def random_search(p: PbProblem, epsilon, delta, src) -> tuple:
    """Best of N uniform assignments, N = ceil(log(1/delta) / (2 eps^2)).

    An N above ``_SEARCH_CEILING`` is refused with SizeGuard before any draw.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if not (0 < delta < 1 and epsilon > 0):
        raise ValueError("need 0 < delta < 1 and epsilon > 0")
    # log(1/delta) from delta's integers, and N as an exact ceiling: both
    # stay finite where float(delta) or float(epsilon) would underflow
    log_term = math.log(delta.denominator) - math.log(delta.numerator)
    n_draws = max(1, math.ceil(Fraction(log_term) / (2 * epsilon**2)))
    if n_draws > _SEARCH_CEILING:
        raise SizeGuard(
            f"epsilon {epsilon} and delta {delta} take {n_draws} random-search draws, "
            f"above {_SEARCH_CEILING}"
        )
    best = None
    best_value = None
    for _ in range(n_draws):
        bits = src.draw(p.n)
        assignment = tuple((bits >> k) & 1 for k in range(p.n))
        value = p.value(assignment)
        if best is None or value > best_value:
            best, best_value = assignment, value
    return best


def local_search(p: PbProblem, radius: int, start) -> tuple:
    """First-improvement walk over Hamming balls of the given radius.

    Flip sets are scanned by size then lexicographically, so runs are
    reproducible; the result is a local optimum of the radius-bounded
    neighborhood and the objective never decreases along the way.  A
    radius whose sweep scans more than ``_SEARCH_CEILING`` flip sets is
    refused with SizeGuard.

    The circuit is evaluated once, at ``start``; each flip set is then
    applied as an update of only the nodes its variables reach, read at
    the output, and undone the same way unless the output improved.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    sets = sum(math.comb(p.n, size) for size in range(1, min(radius, p.n) + 1))
    if sets > _SEARCH_CEILING:
        raise SizeGuard(
            f"radius {radius} on {p.n} variables scans {sets} flip sets a sweep, "
            f"above {_SEARCH_CEILING}"
        )
    current = list(start)
    state = _Evaluation(p.objective, current, 1)
    current_value = state.output()
    improved = True
    while improved:
        improved = False
        for size in range(1, radius + 1):
            for flips in combinations(range(p.n), size):
                state.update([(k, current[k] ^ 1) for k in flips])
                value = state.output()
                if value > current_value:
                    for k in flips:
                        current[k] ^= 1
                    current_value = value
                    improved = True
                    break
                state.update([(k, current[k]) for k in flips])
            if improved:
                break
    return tuple(current)


# ---------------------------------------------------------------------------
# Objective builders and instance loaders.


def max_sat_circuit(n: int, clauses) -> Circuit:
    """Satisfied-clause count as a multilinear circuit: m minus the sum of
    the clauses' miss products prod(1 - literal), m the nonempty clauses.

    A literal misses as 1 - x when positive and as x when negative; each
    1 - x node is made once, at the first positive occurrence of x.  A
    clause's miss product is one ``mul`` (its one literal's miss for a
    unit clause), and the output is one ``add`` that names the constant 1
    once per clause and adds -1 times the sum of the miss products.  A
    repeated literal counts once; a clause that holds both x and not-x is
    always satisfied and adds 1 with no product; the empty clause, whose
    miss product is the empty product 1, is never satisfied and adds 0.
    """
    builder = CircuitBuilder(n)
    one = builder.const(1)
    minus = builder.const(-1)
    variables = [builder.var(k) for k in range(n)]
    negated = {}  # positive literal k -> the node 1 - x_k
    terms, misses = [], []
    for clause in clauses:
        literals = dict.fromkeys(clause)
        for lit in literals:
            if not 0 < abs(lit) <= n:
                raise ValueError(f"literal {lit} out of range")
        if not literals:
            continue
        terms.append(one)
        if any(-lit in literals for lit in literals):
            continue
        for lit in literals:
            if lit > 0 and lit not in negated:
                negated[lit] = builder.add(one, builder.mul(minus, variables[lit - 1]))
        factors = [negated[lit] if lit > 0 else variables[-lit - 1] for lit in literals]
        misses.append(builder.mul(*factors) if len(factors) > 1 else factors[0])
    if misses:
        terms.append(builder.mul(minus, builder.sum(misses)))
    return builder.build(builder.sum(terms))


def max_cut_circuit(n: int, edges) -> Circuit:
    """Cut size as a multilinear circuit: sum of u + v - 2uv over edges.

    A self-loop is never cut and adds no term.
    """
    builder = CircuitBuilder(n)
    minus = builder.const(-1)
    variables = [builder.var(k) for k in range(n)]
    terms = []
    for u, v in edges:
        if u == v:
            continue
        prod = builder.mul(variables[u], variables[v])
        neg = builder.mul(minus, prod)
        terms.extend([variables[u], variables[v], neg, neg])
    return builder.build(builder.sum(terms))


def sat_value(clauses, assignment) -> int:
    """Direct satisfied-clause count (oracle for the circuit objective)."""
    total = 0
    for clause in clauses:
        for lit in clause:
            bit = assignment[abs(lit) - 1]
            if (bit == 1) == (lit > 0):
                total += 1
                break
    return total


def cut_value(edges, assignment) -> int:
    return sum(1 for u, v in edges if assignment[u] != assignment[v])


def load_clauses(text: str):
    """Parse the clause format: first line ``n m``, then one clause per line
    of nonzero literals, each at most n in absolute value."""
    (n, m), rows = _header(text, "clause", "n m")
    if len(rows) != m:
        raise FormatError(f"expected {m} clauses, found {len(rows)}")
    for number, row in rows:
        for lit in row:
            if not 0 < abs(lit) <= n:
                raise FormatError(f"line {number}: literal {lit} out of range")
    return n, [tuple(r) for _, r in rows]


def load_graph(text: str):
    """Parse the edge format: first line ``n m``, then ``u v`` per line (1-based)."""
    (n, m), rows = _header(text, "graph", "n m")
    for number, row in rows:
        if len(row) != 2:
            raise FormatError(f"line {number}: edge {' '.join(map(str, row))!r} must be 'u v'")
    if len(rows) != m:
        raise FormatError(f"expected {m} edges, found {len(rows)}")
    for number, row in rows:
        if any(not 1 <= x <= n for x in row):
            raise FormatError(f"line {number}: edge endpoints must lie in 1..{n}")
    return n, [(u - 1, v - 1) for _, (u, v) in rows]


def load_circuit(text: str) -> Circuit:
    """Parse node lines ``id kind args`` with a final ``out id`` line.

    Variables are 1-based in the file.  Node ids must be defined before
    use and number consecutively from 0.
    """
    nodes = []

    def node(number, tokens):
        if integer(number, tokens[0]) != len(nodes):
            raise FormatError(f"line {number}: node ids must be consecutive; got {tokens[0]}")
        kind, args = tokens[1] if len(tokens) > 1 else None, tokens[2:]
        if kind not in ("in", "const", "add", "mul"):
            raise FormatError(f"line {number}: unknown node kind {kind!r}")
        values = tuple(integer(number, tok) for tok in args)
        if kind in ("add", "mul"):
            if not values or not 0 <= min(values) <= max(values) < len(nodes):
                raise FormatError(f"line {number}: {kind} takes one or more earlier node ids")
            nodes.append((kind, values))
        elif len(values) != 1:
            raise FormatError(f"line {number}: {kind} takes 1 argument, not {len(values)}")
        elif kind == "in" and values[0] < 1:
            raise FormatError(f"line {number}: variables are numbered from 1, not {values[0]}")
        elif kind == "const" and values[0] not in (-1, 0, 1):
            raise FormatError(f"line {number}: constants must be -1, 0 or 1")
        else:
            nodes.append((kind, values[0] - 1 if kind == "in" else values[0]))

    number, (out,) = single(read_directives(text, {"out": 1}, node), "out")
    if not 0 <= (out := integer(number, out)) < len(nodes):
        raise FormatError(f"line {number}: output node {out} is not a node")
    n_vars = max((k + 1 for kind, k in nodes if kind == "in"), default=0)
    return Circuit(n_vars, tuple(nodes), out)
