"""Counting, ranking and sampling bounded-ambiguity NFA languages without
enumeration.

An NFA is kept as one transition matrix per symbol; the number of
accepting paths on a word is a vector-matrix-vector product.  To count
accepted *words* instead of paths, each path count c is passed through
the interpolation polynomial q with q(0) = 0 and q(c) = 1 for c up to the
ambiguity bound.  Powers of path counts summed over whole prefix cones
collapse to products of Kronecker powers of the transition matrices,
which is what makes the rank of a slice computable in polynomial time.
Each call builds one ``SliceTable`` of sparse lifts and growable suffix
columns, a table for the DFA module's prefix-cone walk: its states are
lifted rows, and each cone counts words (``_Cone``), not scaled paths.

Word order is the DFA module's: length-first, then lexicographic in the
declared alphabet order; ranks are 1-based and a member counts itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from ._kept import kept
from ._record import record
from .coins import FAIL, gen_uniform
from .dfa import rank, read_automaton, unrank, unrank_slice
from .exceptions import AmbiguityExceeded, EmptySlice, FormatError, SizeGuard


@record
class Nfa:
    alphabet: tuple
    matrices: tuple  # per symbol: dim x dim tuple of nonnegative ints
    start: tuple  # row vector of nonnegative integer weights
    accept: tuple  # column vector of nonnegative integer weights
    ambiguity: int  # declared bound on accepting paths per word

    def __post_init__(self):
        dim = len(self.start)
        if len(self.accept) != dim:
            raise ValueError("start/accept dimension mismatch")
        if any(w < 0 for w in (*self.start, *self.accept)):
            raise ValueError("start/accept weights must be nonnegative")
        if len(self.matrices) != len(self.alphabet):
            raise ValueError("one matrix per symbol required")
        for m in self.matrices:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ValueError("matrix dimension mismatch")
            if any(e < 0 for row in m for e in row):
                raise ValueError("matrix entries must be nonnegative")
        if self.ambiguity < 1:
            raise ValueError("ambiguity bound must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.start)

    @kept
    def letter_rows(self) -> tuple:
        """Per symbol, its matrix as sparse rows of (column, value)."""
        return tuple(
            tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)
            for m in self.matrices
        )

    def symbol_index(self, sym: str) -> int:
        try:
            return self.alphabet.index(sym)
        except ValueError:
            raise ValueError(f"symbol {sym!r} not in alphabet") from None


def _row_times_matrix(row, matrix):
    """Dense row times a sparse square matrix (rows of (column, value))."""
    out = [0] * len(matrix)
    for i, x in enumerate(row):
        if x:
            for j, v in matrix[i]:
                out[j] += x * v
    return out


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def path_count(a: Nfa, word: str) -> int:
    """Number of accepting paths on ``word``."""
    row = a.start
    for sym in word:
        row = _row_times_matrix(row, a.letter_rows[a.symbol_index(sym)])
    return _dot(row, a.accept)


def _bounded_path_count(a: Nfa, word: str) -> int:
    """path_count, raising AmbiguityExceeded above the declared bound."""
    c = path_count(a, word)
    if c > a.ambiguity:
        raise AmbiguityExceeded(f"{word!r} has {c} accepting paths > {a.ambiguity}")
    return c


@record
class QPoly:
    """Polynomial with q(0) = 0 and q(c) = 1 for 1 <= c <= degree."""

    coefficients: tuple  # a_1..a_d (zero constant term omitted)

    def __call__(self, x):
        return sum(a * Fraction(x) ** i for i, a in enumerate(self.coefficients, 1))


def build_q(d: int) -> QPoly:
    """The interpolant through (0,0), (1,1), ..., (d,1): 1 - prod (1 - x/i)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    factors = [Fraction(1)]  # coefficients of prod over i <= d of (1 - x/i)
    for i in range(1, d + 1):
        factors = [f - Fraction(g, i) for f, g in zip(factors + [0], [0] + factors)]
    poly = QPoly(tuple(-f for f in factors[1:]))  # factors[0] is 1
    assert poly(0) == 0 and all(poly(c) == 1 for c in range(1, d + 1))
    return poly


def _kron_power_matrix(base, k):
    """k-th Kronecker power of a square matrix of sparse rows of (column, value)."""
    out = base
    for _ in range(k - 1):
        out = tuple(
            tuple((j * len(base) + l, x * y) for j, x in ra for l, y in rb)
            for ra in out
            for rb in base
        )
    return out


def _kron_power_vec(v, k):
    out = v
    for _ in range(k - 1):
        out = tuple(x * y for x in out for y in v)
    return out


def _matrix_add(a, b):
    # a sparse row may list a column twice; every product adds both values
    return tuple(ra + rb for ra, rb in zip(a, b))


def _matrix_times_col(matrix, col):
    return tuple(sum(x * col[j] for j, x in row) for row in matrix)


# Largest Kronecker lift dimension, dim**ambiguity, a slice table builds.
_LIFT_CEILING = 4096


class SliceTable:
    """What an NFA's slice census, rank and unrank read, built from the
    automaton ``nfa`` alone: per symbol, the sparse direct sum of its k-th
    Kronecker powers, k = 1..d (``lifts``, summed in ``alphabet_sum``); the
    lifted start row, block k weighted by ``scale`` times q's k-th
    coefficient; and ``suffix[j]``, alphabet_sum**j times the lifted accept
    column, grown to each length read.  The row a prefix reaches, dotted
    with ``suffix[j]``, is ``scale`` (q's least common denominator) times
    the sum of q(paths), the accepted-word count, over its j-letter cone.
    """

    def __init__(self, a: Nfa):
        d = a.ambiguity
        if a.dim**d > _LIFT_CEILING:
            raise SizeGuard(f"lift dimension {a.dim}**{d} above {_LIFT_CEILING}")
        coefficients = build_q(d).coefficients
        self.nfa, self.scale = a, lcm(*(c.denominator for c in coefficients))
        self.start, accept, self.lifts = [], [], tuple([] for _ in a.matrices)
        for k, coeff in enumerate(coefficients, start=1):
            offset = len(self.start)
            self.start += [int(coeff * self.scale) * x for x in _kron_power_vec(a.start, k)]
            accept += _kron_power_vec(a.accept, k)
            for rows, base in zip(self.lifts, a.letter_rows):
                rows += [tuple((offset + j, x) for j, x in r) for r in _kron_power_matrix(base, k)]
        self.suffix = [tuple(accept)]
        self.alphabet_sum = reduce(_matrix_add, self.lifts, ((),) * len(self.start))

    def words(self, scaled: int) -> int:
        # q is 0 or 1 up to the bound, so a negative count proves a word above it
        assert scaled % self.scale == 0, "word counts must be integral"
        count = scaled // self.scale
        if count < 0:
            raise AmbiguityExceeded(
                f"negative word count {count}: a word has more than "
                f"{self.nfa.ambiguity} accepting paths"
            )
        return count

    def census(self, length: int) -> int:
        self.grow(length)
        return self.words(_dot(self.start, self.suffix[length]))

    def grow(self, n: int) -> "SliceTable":
        """Extend ``suffix`` to cover lengths 0..n."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        while len(self.suffix) <= n:
            self.suffix.append(_matrix_times_col(self.alphabet_sum, self.suffix[-1]))
        return self

    def cones(self, row):
        """Per letter in alphabet order, ``(letter, child, _Cone)`` for the
        row one letter on from ``row``, each built as the walk reaches it."""
        for letter, lift in zip(self.nfa.alphabet, self.lifts):
            child = _row_times_matrix(row, lift)
            yield letter, child, _Cone(self, child)


class _Cone:
    """``cone[j]``: the members with j letters after the prefix at ``row``."""

    __slots__ = ("table", "row")

    def __init__(self, table: SliceTable, row):
        self.table, self.row = table, row

    def __getitem__(self, j: int) -> int:
        return self.table.words(_dot(self.row, self.table.suffix[j]))


def nfa_rank_slice(a: Nfa, n: int, beta: str) -> int:
    """Number of accepted words of length n lexicographically <= beta.

    Every word in the prefix cone below ``beta`` contributes q(paths), 1
    exactly for accepted words within the ambiguity bound; power sums of
    path counts over each cone are single Kronecker-power products, so no
    word is enumerated.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if len(beta) != n:
        raise ValueError("beta must have length n")
    table = SliceTable(a)
    _bounded_path_count(a, beta)
    return rank(table, beta) - sum(map(table.census, range(n)))


def nfa_slice_census(a: Nfa, n: int) -> int:
    """Number of accepted words of length n (not paths)."""
    return SliceTable(a).census(n)


def nfa_rank(a: Nfa, beta: str) -> int:
    """Number of accepted words at or before ``beta``: every shorter one
    plus the slice rank."""
    table = SliceTable(a)
    _bounded_path_count(a, beta)
    return rank(table, beta)


def nfa_unrank(a: Nfa, k: int) -> str:
    """The accepted word of rank k (1-based); inverse of nfa_rank."""
    word = unrank(SliceTable(a), k, a.dim)
    _bounded_path_count(a, word)
    return word


def nfa_sample_slice(a: Nfa, n: int, src, delta=Fraction(1, 4)):
    """Uniform word of length n accepted by the NFA, or FAIL.

    Draws a rank below the census and walks it to its word over one slice
    table; uniform unless the draw fails, with probability below ``delta``.
    """
    table = SliceTable(a)
    if (census := table.census(n)) == 0:
        raise EmptySlice("slice census is 0")
    k = gen_uniform(src, census, delta)
    if k is FAIL:
        return FAIL
    word = unrank_slice(table, n, k)
    _bounded_path_count(a, word)
    return word


def nfa_from_dfa(dfa) -> Nfa:
    """0/1 matrix view of a DFA (every word has at most one path)."""
    states = range(dfa.n_states)
    matrices = tuple(
        tuple(tuple(int(p == dfa.trans[q][s]) for p in states) for q in states)
        for s in range(len(dfa.alphabet))
    )
    start = tuple(int(q == dfa.start) for q in states)
    accept = tuple(int(q in dfa.finals) for q in states)
    return Nfa(dfa.alphabet, matrices, start, accept, 1)


def load_nfa(text: str) -> Nfa:
    """Parse an NFA file: the DFA format plus ``ambiguity d``.

    Repeated ``trans q s p`` lines raise the matrix entry, ``start`` and
    ``finals`` take several states, and ``ambiguity d`` declares the path
    bound.
    """
    n_states, alphabet, starts, finals, edges, ambiguity, _ = read_automaton(text)
    if ambiguity is None or not finals:
        raise FormatError("an NFA file needs ambiguity and nonempty finals")
    matrices = [[[0] * n_states for _ in range(n_states)] for _ in alphabet]
    for q, s, p in edges:
        matrices[s][q][p] += 1
    return Nfa(
        alphabet,
        tuple(tuple(tuple(row) for row in m) for m in matrices),
        tuple(int(q in starts) for q in range(n_states)),
        tuple(int(q in finals) for q in range(n_states)),
        ambiguity,
    )
