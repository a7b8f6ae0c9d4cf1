"""Deterministic finite automata: slice census, sampling, rank and unrank.

Words of a fixed length accepted by a DFA are counted exactly by dynamic
programming over states; the same table drives a per-letter rejection
sampler, lexicographic ranking by prefix sums, and unranking.  The table
is prefix-closed, so one table per automaton grows to any length read.

Word order is length-first, then lexicographic in the declared alphabet
order; ranks are 1-based and a word counts itself when it is a member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coins import FAIL, bit_size, draw_uniform
from .describe import WordLanguage
from .exceptions import EmptySlice, FormatError, RankOutOfRange


@dataclass(frozen=True)
class Dfa:
    alphabet: tuple
    trans: tuple  # trans[state][symbol_index] -> state
    start: int
    finals: frozenset

    def __post_init__(self):
        n = len(self.trans)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        for row in self.trans:
            if len(row) != len(self.alphabet):
                raise ValueError("transition table must be total")
            if any(not 0 <= q < n for q in row):
                raise ValueError("transition target out of range")
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        if any(not 0 <= q < n for q in self.finals):
            raise ValueError("final state out of range")

    @property
    def n_states(self) -> int:
        return len(self.trans)

    def symbol_index(self, sym: str) -> int:
        try:
            return self.alphabet.index(sym)
        except ValueError:
            raise ValueError(f"symbol {sym!r} not in alphabet") from None

    def walk(self, word: str, q: int | None = None) -> int:
        if q is None:
            q = self.start
        for sym in word:
            q = self.trans[q][self.symbol_index(sym)]
        return q

    def accepts(self, word: str) -> bool:
        return self.walk(word) in self.finals


class CensusTable:
    """counts[q][l] = number of words of length l accepted from state q.

    Every row grows to a length the first time a count there is read.
    """

    def __init__(self, a: Dfa):
        self.dfa = a
        self.counts = [[1 if q in a.finals else 0] for q in range(a.n_states)]

    def count(self, q: int, length: int) -> int:
        row = self.counts[q]
        if not 0 <= length < len(row):
            self.grow(length)
        return row[length]

    def bits(self, q: int, length: int) -> int:
        return bit_size(self.count(q, length))

    def grow(self, n: int) -> "CensusTable":
        """Extend every row to cover lengths 0..n."""
        if n < 0:
            raise ValueError("census length must be nonnegative")
        counts, trans = self.counts, self.dfa.trans
        for length in range(len(counts[0]), n + 1):
            for q, row in enumerate(counts):
                row.append(sum(counts[p][length - 1] for p in trans[q]))
        return self


def dfa_census(a: Dfa, n: int) -> CensusTable:
    """Exact per-state census of accepted words for every length <= n."""
    return CensusTable(a).grow(n)


def dfa_sample(a: Dfa, n: int, src, confidence: int = 3, table: CensusTable | None = None):
    """Uniform word of length n accepted by the DFA, or FAIL.

    At each remaining length, a rank is drawn by rejection against the
    census of the current state (confidence + ceil(log n) attempts) and
    prefix sums pick the next letter.  The failure probability is at most
    n / 2**kappa <= 2**-confidence.
    """
    if n < 1:
        raise ValueError("slice length must be >= 1")
    if table is None:
        table = dfa_census(a, n)
    if table.count(a.start, n) == 0:
        raise EmptySlice(f"no accepted words of length {n}")
    kappa = confidence + bit_size(n)
    q = a.start
    word = []
    for length in range(n, 0, -1):
        r = draw_uniform(src, table.count(q, length), kappa)
        if r is FAIL:
            return FAIL
        s, _ = _next_letter(a, table, q, length, r)
        word.append(a.alphabet[s])
        q = a.trans[q][s]
    return "".join(word)


def dfa_rank(a: Dfa, word: str, table: CensusTable | None = None) -> int:
    """Number of accepted words at or before ``word`` in slice order.

    Counts every accepted word that is shorter, plus the same-length
    accepted words that are lexicographically at most ``word`` (so a
    member counts itself).
    """
    n = len(word)
    if table is None:
        table = dfa_census(a, n)
    rank = sum(table.count(a.start, length) for length in range(n))
    q = a.start
    for i, sym in enumerate(word):
        s = a.symbol_index(sym)
        for smaller in range(s):
            rank += table.count(a.trans[q][smaller], n - i - 1)
        q = a.trans[q][s]
    if q in a.finals:
        rank += 1
    return rank


def _live_states(a: Dfa) -> set:
    reachable = {a.start}
    frontier = [a.start]
    while frontier:
        q = frontier.pop()
        for s in range(len(a.alphabet)):
            p = a.trans[q][s]
            if p not in reachable:
                reachable.add(p)
                frontier.append(p)
    co_accessible = set(a.finals)
    changed = True
    while changed:
        changed = False
        for q in range(a.n_states):
            if q in co_accessible:
                continue
            if any(a.trans[q][s] in co_accessible for s in range(len(a.alphabet))):
                co_accessible.add(q)
                changed = True
    return reachable & co_accessible


def _is_finite(a: Dfa) -> bool:
    live = _live_states(a)
    color = {}

    def has_cycle(q):
        color[q] = 1
        for s in range(len(a.alphabet)):
            p = a.trans[q][s]
            if p not in live:
                continue
            if color.get(p) == 1:
                return True
            if p not in color and has_cycle(p):
                return True
        color[q] = 2
        return False

    return not any(has_cycle(q) for q in live if q not in color)


def dfa_unrank(a: Dfa, k: int) -> str:
    """The unique accepted word of rank k (1-based); inverse of dfa_rank."""
    if k < 1:
        raise RankOutOfRange("ranks are 1-based")
    table = CensusTable(a)
    if _is_finite(a):
        # members of a finite language are shorter than its state count
        size = sum(table.count(a.start, length) for length in range(a.n_states + 1))
        if k > size:
            raise RankOutOfRange(f"language has only {size} members")
    n = 0
    while k > table.count(a.start, n):
        k -= table.count(a.start, n)
        n += 1
    return _unrank_slice(a, table, n, k)


def _next_letter(a: Dfa, table: CensusTable, q: int, length: int, r: int):
    """Letter index whose prefix cone from q holds rank r, and r inside it."""
    for s, p in enumerate(a.trans[q]):
        below = table.count(p, length - 1)
        if r <= below:
            return s, r
        r -= below
    raise AssertionError("rank exceeded slice census")


def _unrank_slice(a: Dfa, table: CensusTable, n: int, r: int) -> str:
    q = a.start
    word = []
    for length in range(n, 0, -1):
        s, r = _next_letter(a, table, q, length, r)
        word.append(a.alphabet[s])
        q = a.trans[q][s]
    return "".join(word)


def slice_rank(a: Dfa, word: str, table: CensusTable | None = None) -> int:
    """Rank within the fixed-length slice: shorter words are not counted."""
    n = len(word)
    if table is None:
        table = dfa_census(a, n)
    full = dfa_rank(a, word, table)
    return full - sum(table.count(a.start, length) for length in range(n))


# Longest slice a language view counts: its census table grows to every
# length it is asked for.
_LANGUAGE_MAX_LEN = 4096


def dfa_language(a: Dfa) -> WordLanguage:
    """WordLanguage view of the DFA for the union/product combinators."""
    table = CensusTable(a)

    def census(n: int) -> int:
        if n > _LANGUAGE_MAX_LEN:
            raise ValueError(f"census length {n} above limit {_LANGUAGE_MAX_LEN}")
        return table.count(a.start, n)

    def sample(n: int, src):
        return dfa_sample(a, n, src, table=table)

    def unrank(n: int, i: int) -> str:
        return _unrank_slice(a, table, n, i)

    return WordLanguage(sample, a.accepts, census, unrank)


# ---------------------------------------------------------------------------
# Text format and a thin regex-to-DFA convenience.


def load_dfa(text: str) -> Dfa:
    """Parse the line format: states / alphabet / start / finals / trans.

    The listed alphabet order is the lexicographic order used by ranking
    and sampling.  Lines starting with '#' and ``indep`` lines (consumed
    by the trace layer) are ignored.
    """
    n_states = None
    alphabet = None
    start = None
    finals = None
    edges = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#") or tokens[0] == "indep":
            continue
        key, args = tokens[0], tokens[1:]
        if key == "states":
            n_states = int(args[0])
        elif key == "alphabet":
            alphabet = tuple(args)
        elif key == "start":
            start = int(args[0])
        elif key == "finals":
            finals = frozenset(int(tok) for tok in args)
        elif key == "trans":
            edges.append((int(args[0]), args[1], int(args[2])))
        else:
            raise FormatError(f"unknown directive {key!r}")
    if None in (n_states, alphabet, start, finals):
        raise FormatError("missing states/alphabet/start/finals")
    if any(len(sym) != 1 for sym in alphabet):
        raise FormatError("alphabet symbols must be single characters")
    for state in (start, *finals, *(x for q, _, p in edges for x in (q, p))):
        if not 0 <= state < n_states:
            raise FormatError(f"state {state} outside 0..{n_states - 1}")
    table = [[None] * len(alphabet) for _ in range(n_states)]
    index = {sym: i for i, sym in enumerate(alphabet)}
    for q, sym, p in edges:
        if sym not in index:
            raise FormatError(f"edge symbol {sym!r} not in alphabet")
        if table[q][index[sym]] is not None:
            raise FormatError(f"duplicate transition from {q} on {sym!r}")
        table[q][index[sym]] = p
    for q, row in enumerate(table):
        if None in row:
            raise FormatError(f"state {q} is missing a transition")
    return Dfa(alphabet, tuple(tuple(row) for row in table), start, finals)


class _Regex:
    """Minimal regex over single-character symbols: | ( ) * + ? and concat."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.transitions = []  # list of dicts symbol -> set(states); None = eps
        self.symbols = set()

    def _new_state(self):
        self.transitions.append({})
        return len(self.transitions) - 1

    def _edge(self, a, sym, b):
        self.transitions[a].setdefault(sym, set()).add(b)

    def parse(self):
        start, end = self._alt()
        if self.pos != len(self.pattern):
            raise FormatError(f"trailing regex input at {self.pos}")
        return start, end

    def _alt(self):
        starts, ends = [], []
        s, e = self._cat()
        starts.append(s)
        ends.append(e)
        while self.pos < len(self.pattern) and self.pattern[self.pos] == "|":
            self.pos += 1
            s, e = self._cat()
            starts.append(s)
            ends.append(e)
        if len(starts) == 1:
            return starts[0], ends[0]
        start, end = self._new_state(), self._new_state()
        for s, e in zip(starts, ends):
            self._edge(start, None, s)
            self._edge(e, None, end)
        return start, end

    def _cat(self):
        start = prev = self._new_state()
        while self.pos < len(self.pattern) and self.pattern[self.pos] not in "|)":
            s, e = self._rep()
            self._edge(prev, None, s)
            prev = e
        return start, prev

    def _rep(self):
        s, e = self._atom()
        while self.pos < len(self.pattern) and self.pattern[self.pos] in "*+?":
            op = self.pattern[self.pos]
            self.pos += 1
            ns, ne = self._new_state(), self._new_state()
            self._edge(ns, None, s)
            self._edge(e, None, ne)
            if op in "*+":
                self._edge(e, None, s)
            if op in "*?":
                self._edge(ns, None, ne)
            s, e = ns, ne
        return s, e

    def _atom(self):
        if self.pos >= len(self.pattern):
            raise FormatError("regex ended unexpectedly")
        ch = self.pattern[self.pos]
        if ch == "(":
            self.pos += 1
            s, e = self._alt()
            if self.pos >= len(self.pattern) or self.pattern[self.pos] != ")":
                raise FormatError("unbalanced parenthesis")
            self.pos += 1
            return s, e
        if ch in "|)*+?":
            raise FormatError(f"unexpected {ch!r} at {self.pos}")
        self.pos += 1
        self.symbols.add(ch)
        s, e = self._new_state(), self._new_state()
        self._edge(s, ch, e)
        return s, e


def dfa_from_regex(pattern: str, alphabet=None) -> Dfa:
    """Subset-construction DFA for a simple regex (thin convenience)."""
    rx = _Regex(pattern)
    nfa_start, nfa_end = rx.parse()
    if alphabet is None:
        alphabet = tuple(sorted(rx.symbols))
    else:
        alphabet = tuple(alphabet)

    def closure(states):
        seen = set(states)
        frontier = list(states)
        while frontier:
            q = frontier.pop()
            for p in rx.transitions[q].get(None, ()):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return frozenset(seen)

    start_set = closure({nfa_start})
    numbering = {start_set: 0}
    order = [start_set]
    rows = []
    i = 0
    while i < len(order):
        current = order[i]
        row = []
        for sym in alphabet:
            moved = set()
            for q in current:
                moved |= rx.transitions[q].get(sym, set())
            nxt = closure(moved)
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
            row.append(numbering[nxt])
        rows.append(tuple(row))
        i += 1
    finals = frozenset(i for i, states in enumerate(order) if nfa_end in states)
    return Dfa(alphabet, tuple(rows), 0, finals)
