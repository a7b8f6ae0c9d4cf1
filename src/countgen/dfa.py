"""Deterministic finite automata: slice census, sampling, rank and unrank.

Words of a fixed length accepted by a DFA are counted exactly by dynamic
programming over states, in one prefix-closed table per automaton that
grows to any length read.  Equivalent states accept the same words, so
they have equal counts at every length (Myhill-Nerode): the table grows
one row per class of equivalent states, shared by the states of the
class, and no reader may mutate it.  It keeps one prepared sampler per
slice length and confidence, whose draw unrolls ``draw_uniform`` and the
letter search into one loop over the coin source, with the same bits.

Rank, unrank and sampling are one walk down prefix cones (``rank``,
``unrank``, ``unrank_slice``; ``descend`` is the letter search) over any
table with a ``start`` state, ``census(n)``, the members of length n, and
``cones(state)``: per letter in alphabet order, ``(letter, next state,
counts)``, ``counts[j]`` the members of that cone with j letters left.
A ``CensusTable``'s cones are its kept ``moves`` rows; the NFA module's
``SliceTable`` is the other table.

Word order is length-first, then lexicographic in the declared alphabet
order; ranks are 1-based and a word counts itself when it is a member.
"""

from __future__ import annotations

from operator import itemgetter

from ._kept import kept
from ._record import record
from .coins import FAIL, bit_size
from .describe import WordLanguage
from .exceptions import EmptySlice, FormatError, RankOutOfRange, SizeGuard
from .specfile import integer, read_directives, single


@record
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

    @kept
    def state_classes(self) -> tuple:
        """``classes[q]``: the class of state q, where two states share a
        class exactly when they accept the same words.  Classes are numbered
        in the order of their least states.
        """
        return _state_classes(self)

    def accepts(self, word: str) -> bool:
        q = self.start
        for sym in word:
            q = self.trans[q][self.symbol_index(sym)]
        return q in self.finals


def _state_classes(a: Dfa) -> tuple:
    """``Dfa.state_classes`` by Hopcroft's partition refinement ("An n log n
    algorithm for minimizing states in a finite automaton", 1971): O(k n
    log n) for k letters and n states, reachable or not.
    """
    n, k = a.n_states, len(a.alphabet)
    preimages = [[[] for _ in range(n)] for _ in range(k)]
    for q, moves in enumerate(a.trans):
        for s, p in enumerate(moves):
            preimages[s][p].append(q)
    finals = set(a.finals)
    blocks = [b for b in (finals, set(range(n)) - finals) if b]
    block_of = [0] * n
    for b, members in enumerate(blocks):
        for q in members:
            block_of[q] = b
    # (block, letter) splitters still to apply; of two halves of a split,
    # only the smaller need be queued, which gives the log n
    pending = []
    if len(blocks) == 2:
        smaller = int(len(blocks[1]) < len(blocks[0]))
        pending = [(smaller, s) for s in range(k)]
    queued = set(pending)
    while pending and len(blocks) < n:  # n blocks cannot split further
        b, s = splitter = pending.pop()
        queued.discard(splitter)
        hit = {}
        for p in blocks[b]:
            for q in preimages[s][p]:
                hit.setdefault(block_of[q], []).append(q)
        for c, members in hit.items():
            rest = blocks[c]
            if len(members) == len(rest):
                continue
            part = set(members)
            rest -= part
            new = len(blocks)
            blocks.append(part)
            for q in part:
                block_of[q] = new
            for t in range(k):
                if (c, t) in queued:
                    item = (new, t)
                else:
                    item = (new if len(part) <= len(rest) else c, t)
                queued.add(item)
                pending.append(item)
    number = {}
    return tuple(number.setdefault(b, len(number)) for b in block_of)


class CensusTable:
    """counts[q][l] = number of words of length l accepted from state q.

    Every row grows to a length the first time a count there is read.
    The states of one ``Dfa.state_classes`` class share one row object,
    grown once from a representative's transitions, so a reader must not
    mutate a row: the change would show in every state of its class.
    ``moves`` holds each state's successor rows, built once per table;
    they are the cones (``cones``) the walk of this module reads.
    ``samplers`` maps ``(n, confidence)`` to the prepared draw of a word
    of length n, which ``sampler`` builds at the first draw there and
    returns from then on.
    """

    def __init__(self, a: Dfa):
        self.dfa, self.start = a, a.start
        classes = a.state_classes
        rows, leaders = [], []
        for q, c in enumerate(classes):
            if c == len(rows):  # q is the least state of its class
                rows.append([1 if q in a.finals else 0])
                leaders.append(q)
        self.counts = [rows[c] for c in classes]
        # per class: its row and the rows its least state moves to
        self._plan = [
            (rows[c], tuple(rows[classes[p]] for p in a.trans[q])) for c, q in enumerate(leaders)
        ]
        self.samplers = {}

    @kept
    def moves(self) -> list:
        """``moves[q]``: per letter in alphabet order, ``(letter, p,
        counts[p])`` for the target p of q on that letter.  Kept, not built
        with the table, since a table that only counts never reads it.
        """
        a, counts = self.dfa, self.counts
        return [
            tuple((letter, p, counts[p]) for letter, p in zip(a.alphabet, targets))
            for targets in a.trans
        ]

    def count(self, q: int, length: int) -> int:
        row = self.counts[q]
        if not 0 <= length < len(row):
            self.grow(length)
        return row[length]

    def census(self, n: int) -> int:
        return self.count(self.start, n)

    def cones(self, q: int) -> tuple:
        return self.moves[q]

    def grow(self, n: int) -> "CensusTable":
        """Extend every row to cover lengths 0..n."""
        if n < 0:
            raise ValueError("census length must be nonnegative")
        for length in range(len(self.counts[0]), n + 1):
            below = itemgetter(length - 1)
            for row, successors in self._plan:
                row.append(sum(map(below, successors)))
        return self

    def sampler(self, n: int, confidence: int):
        """The draw of a uniform accepted word of length n >= 1, built at
        the first call for ``(n, confidence)`` and kept: ``draw(src)``
        returns the word or FAIL.  Building grows the table to n; EmptySlice,
        keeping nothing, when the start state accepts no word of length n.

        At each remaining length, a 0-based rank r is drawn by rejection
        against the census of the current state, within kappa = confidence
        + bit_size(n) attempts, and the letter whose cone holds r is taken,
        as ``descend`` would.  This is ``draw_uniform`` unrolled, with the
        same bits: each attempt draws the width of the census, and a census
        of 1 is a forced choice that draws nothing (and fails only when
        kappa is 0).
        """
        draw = self.samplers.get((n, confidence))
        if draw is not None:
            return draw
        if self.census(n) == 0:
            raise EmptySlice(f"no accepted words of length {n}")
        moves, start, start_row = self.moves, self.start, self.counts[self.start]
        left = range(n - 1, -1, -1)
        attempts = range(confidence + bit_size(n))

        def draw(src):
            bits = src.draw
            q, total = start, start_row[n]
            word = []
            for j in left:
                r = 0
                if total > 1:
                    width = (total - 1).bit_length()
                    for _ in attempts:
                        r = bits(width)
                        if r < total:
                            break
                    else:
                        return FAIL
                elif not attempts:
                    return FAIL
                # the cone taken holds the census of the next step
                for letter, q, cone in moves[q]:
                    total = cone[j]
                    if r < total:
                        break
                    r -= total
                else:
                    raise AssertionError("rank exceeded slice census")
                word.append(letter)
            return "".join(word)

        self.samplers[n, confidence] = draw
        return draw


def dfa_census(a: Dfa, n: int) -> CensusTable:
    """Exact per-state census of accepted words for every length <= n."""
    return CensusTable(a).grow(n)


def dfa_sample(a: Dfa, n: int, src, confidence: int = 3, table: CensusTable | None = None):
    """Uniform word of length n accepted by the DFA, or FAIL.

    At each remaining length, a rank is drawn by rejection against the
    census of the current state (confidence + ceil(log n) attempts) and
    prefix sums pick the next letter.  The failure probability is at most
    n / 2**kappa <= 2**-confidence, so a negative confidence is refused.
    A ``table`` passed in must be the census of ``a`` itself; one of
    another automaton is refused.  Without one, a fresh census is built.
    The draw is the one the table keeps for ``(n, confidence)``
    (``CensusTable.sampler``); an empty slice raises EmptySlice on every
    call, since no draw is kept for it.
    """
    if n < 1:
        raise ValueError("slice length must be >= 1")
    if confidence < 0:
        raise ValueError("confidence must be >= 0")
    if table is None:
        table = dfa_census(a, n)
    elif table.dfa is not a:
        raise ValueError("census table belongs to another automaton")
    return table.sampler(n, confidence)(src)


def dfa_rank(a: Dfa, word: str) -> int:
    """Number of accepted words at or before ``word`` in length-first order
    (a member counts itself)."""
    return rank(dfa_census(a, len(word)), word)


def dfa_unrank(a: Dfa, k: int) -> str:
    """The unique accepted word of rank k (1-based); inverse of dfa_rank."""
    return unrank(CensusTable(a), k, a.n_states)


def descend(cones, j: int, r: int) -> tuple:
    """``(letter, state, r')``: the letter of the cone in ``cones`` that
    holds rank r with j letters left, the state it moves to, and the rank
    r' inside that cone."""
    for letter, state, counts in cones:
        below = counts[j]
        if r <= below:
            return letter, state, r
        r -= below
    raise AssertionError("rank exceeded slice census")


def rank(table, word: str) -> int:
    """Number of members of ``table``'s language at or before ``word``:
    every shorter member, the cones of the smaller letters along the
    word's path, and the word itself when it is a member."""
    n = len(word)
    below, state, own = sum(map(table.census, range(n))), table.start, None
    for j, sym in zip(range(n - 1, -1, -1), word):
        for letter, state, own in table.cones(state):
            if letter == sym:
                break
            below += own[j]
        else:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    return below + (own[0] if word else table.census(0))


def unrank(table, k: int, n_states: int) -> str:
    """The member of rank k (1-based) of the language of ``table``, of an
    automaton of ``n_states`` states; inverse of ``rank``.  Raises SizeGuard
    rather than read the census past length ``_LANGUAGE_MAX_LEN``."""
    if k < 1:
        raise RankOutOfRange("ranks are 1-based")
    # With N states, an infinite language has a member in every window of N
    # consecutive lengths [m, m + N): an accepting path of its shortest
    # member w with |w| >= m + N repeats a state within its first N letters,
    # and cutting that cycle (length 1..N) leaves a shorter member with
    # length in [m, m + N).  A finite language has no member of length >= N,
    # which could be pumped.  So once N lengths in a row are empty, every
    # member has been passed.
    n = empty = size = 0
    while k > (count := table.census(n)):
        k -= count
        size += count
        empty = 0 if count else empty + 1
        if empty >= n_states:
            raise RankOutOfRange(f"language has only {size} members")
        n += 1
        if n > _LANGUAGE_MAX_LEN:
            raise SizeGuard(f"rank {size + k} not reached by length {_LANGUAGE_MAX_LEN}")
    return unrank_slice(table, n, k)


def unrank_slice(table, n: int, r: int) -> str:
    """The member of rank r (1-based) among the members of length n."""
    census = table.census(n)
    if not 1 <= r <= census:
        raise RankOutOfRange(f"rank {r} outside the {census} members of length {n}")
    state, word = table.start, []
    for j in range(n - 1, -1, -1):
        letter, state, r = descend(table.cones(state), j, r)
        word.append(letter)
    return "".join(word)


# Longest slice a language view counts and unranking walks to: a census
# table grows to every length it is asked for.
_LANGUAGE_MAX_LEN = 4096


def dfa_language(a: Dfa) -> WordLanguage:
    """WordLanguage view of the DFA for the union/product combinators."""
    table = CensusTable(a)

    def census(n: int) -> int:
        if n > _LANGUAGE_MAX_LEN:
            raise ValueError(f"census length {n} above limit {_LANGUAGE_MAX_LEN}")
        return table.census(n)

    def sample(n: int, src):
        return dfa_sample(a, n, src, table=table)

    return WordLanguage(sample, a.accepts, census, lambda n, i: unrank_slice(table, n, i))


# ---------------------------------------------------------------------------
# Text format and a thin regex-to-DFA convenience.


# The arguments each directive takes; None for a list of any length.
_ARITY = {
    "states": 1, "alphabet": None, "start": None, "finals": None,
    "trans": 3, "ambiguity": 1, "indep": 2,
}


def read_automaton(text: str) -> tuple:
    """Parse the line format shared by DFA, NFA and trace files.

    Returns ``(n_states, alphabet, starts, finals, edges, ambiguity,
    indep)``.  ``starts`` and ``finals`` gather the states of every
    ``start`` and ``finals`` line, ``edges`` holds ``(q, symbol index, p)``
    per ``trans`` line in file order, ``ambiguity`` is None when no line
    gives it, and ``indep`` holds ``(line number, letter pair)`` per
    ``indep`` line, for the trace layer, which checks the letters.  Raises
    FormatError on any malformed line.
    """
    lines = read_directives(text, _ARITY)
    number, (n_states,) = single(lines, "states")
    n_states = integer(number, n_states)
    alphabet = tuple(single(lines, "alphabet")[1])
    starts = [integer(number, tok) for number, args in lines["start"] for tok in args]
    finals = [integer(number, tok) for number, args in lines["finals"] for tok in args]
    if not (starts and lines["finals"]):
        raise FormatError("missing start/finals")
    edges = [
        (integer(number, q), sym, integer(number, p)) for number, (q, sym, p) in lines["trans"]
    ]
    ambiguity = None
    if lines["ambiguity"]:
        number, (ambiguity,) = single(lines, "ambiguity")
        ambiguity = integer(number, ambiguity)
    if any(len(sym) != 1 for sym in alphabet) or len(set(alphabet)) != len(alphabet):
        raise FormatError("alphabet symbols must be distinct single characters")
    for state in (*starts, *finals, *(x for q, _, p in edges for x in (q, p))):
        if not 0 <= state < n_states:
            raise FormatError(f"state {state} outside 0..{n_states - 1}")
    if ambiguity is not None and ambiguity < 1:
        raise FormatError("ambiguity bound must be >= 1")
    index = {sym: i for i, sym in enumerate(alphabet)}
    for _, sym, _ in edges:
        if sym not in index:
            raise FormatError(f"edge symbol {sym!r} not in alphabet")
    edges = [(q, index[sym], p) for q, sym, p in edges]
    indep = [(number, tuple(args)) for number, args in lines["indep"]]
    return n_states, alphabet, starts, finals, edges, ambiguity, indep


def load_dfa(text: str) -> Dfa:
    """Parse a DFA file: one start state and a total deterministic table.

    The listed alphabet order is the lexicographic order used by ranking
    and sampling.
    """
    return automaton_dfa(read_automaton(text))


def automaton_dfa(spec: tuple) -> Dfa:
    """The DFA of a ``read_automaton`` result, refused unless the file has
    no ambiguity line, one start state and one transition per state and
    letter."""
    n_states, alphabet, starts, finals, edges, ambiguity, _ = spec
    if ambiguity is not None:
        raise FormatError("a DFA file has no ambiguity line")
    if len(starts) != 1:
        raise FormatError(f"a DFA has one start state, not {len(starts)}")
    table = [[None] * len(alphabet) for _ in range(n_states)]
    for q, s, p in edges:
        if table[q][s] is not None:
            raise FormatError(f"duplicate transition from {q} on {alphabet[s]!r}")
        table[q][s] = p
    for q, row in enumerate(table):
        if None in row:
            raise FormatError(f"state {q} is missing a transition")
    return Dfa(alphabet, tuple(map(tuple, table)), starts[0], frozenset(finals))


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
