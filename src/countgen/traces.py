"""Trace languages: words modulo commutation of independent adjacent letters.

A trace is the equivalence class of a word under swaps of adjacent
independent letters; its canonical representative is the lexicographically
least class member.  Counting the members of a class, or the class members
inside a regular language, runs over consumption vectors (how many
occurrences of each letter have been emitted), which is exactly the
down-set structure of the occurrence order.
"""

from __future__ import annotations


from ._record import record
from .describe import Bound, Description
from .dfa import Dfa, automaton_dfa, dfa_language, read_automaton
from .exceptions import FormatError, SizeGuard

# Largest commutation class the swap oracle lists, and largest state
# space the representative count explores.
_CLOSURE_LIMIT = 100_000
_REPRESENTATIVE_GUARD = 200_000


@record
class IndepAlphabet:
    """Ordered symbols plus a symmetric, irreflexive independence relation.

    Built with three lookups that the trace routines read on every call:

    - ``index``: letter -> its index in ``symbols``;
    - ``dependent``: per letter index, the indices of the other letters it
      does not commute with;
    - ``char_order``: letter indices in character order.
    """

    symbols: tuple
    pairs: frozenset  # of frozensets {a, b}

    def __post_init__(self):
        known = set(self.symbols)
        if len(known) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        for pair in self.pairs:
            fault = _pair_fault(pair, known)
            if fault:
                raise ValueError(fault)
        # Set here, not kept (see countgen._kept): normal_form reads them
        # on every call, and a plain attribute reads faster than a kept one.
        symbols = self.symbols
        object.__setattr__(self, "index", {a: i for i, a in enumerate(symbols)})
        object.__setattr__(self, "dependent", tuple(
            tuple(j for j, b in enumerate(symbols) if b != a and not self.independent(a, b))
            for a in symbols
        ))
        object.__setattr__(
            self, "char_order", tuple(sorted(range(len(symbols)), key=symbols.__getitem__))
        )

    def independent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.pairs


def _pair_fault(pair: frozenset, known: set):
    """Why ``pair`` is no independence pair over the letters ``known``, or
    None; the letters of a pair are named in sorted order."""
    if len(pair) != 2:
        return "independence pairs must join two distinct letters"
    if not pair <= known:
        return f"pair {tuple(sorted(pair))!r} uses unknown letters"
    return None


def indep_alphabet(symbols, pairs) -> IndepAlphabet:
    return IndepAlphabet(
        tuple(symbols), frozenset(frozenset(p) for p in pairs)
    )


def _positions(word: str, alph: IndepAlphabet) -> list:
    """Per letter index, the letter's positions in ``word`` followed by the
    sentinel ``len(word)``, which no position reaches."""
    index = alph.index
    positions = [[] for _ in alph.symbols]
    for i, letter in enumerate(word):
        try:
            positions[index[letter]].append(i)
        except KeyError:
            raise ValueError(f"letter {letter!r} not in the alphabet") from None
    for row in positions:
        row.append(len(word))
    return positions


def normal_form(word: str, alph: IndepAlphabet) -> str:
    """Lexicographically least member of the word's commutation class.

    Greedy over consumption vectors: repeatedly emit the smallest letter,
    in character order, whose next occurrence is independent of every
    unconsumed occurrence before it.  Checking the next unconsumed
    occurrence of each dependent letter suffices.
    """
    positions = _positions(word, alph)
    end = len(word)
    dependent, symbols = alph.dependent, alph.symbols
    taken = [0] * len(symbols)
    heads = [row[0] for row in positions]  # next unconsumed position per letter
    out = []
    for _ in word:
        for idx in alph.char_order:
            nxt = heads[idx]
            if nxt == end:
                continue
            for j in dependent[idx]:
                if heads[j] < nxt:
                    break
            else:
                break
        taken[idx] += 1
        heads[idx] = positions[idx][taken[idx]]
        out.append(symbols[idx])
    return "".join(out)


def swap_closure(word: str, alph: IndepAlphabet) -> set:
    """Whole commutation class by breadth-first adjacent swaps (oracle)."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            if alph.independent(w[i], w[i + 1]):
                swapped = w[:i] + w[i + 1] + w[i] + w[i + 2 :]
                if swapped not in seen:
                    if len(seen) >= _CLOSURE_LIMIT:
                        raise SizeGuard("commutation class larger than limit")
                    seen.add(swapped)
                    frontier.append(swapped)
    return seen


def count_representatives(dfa: Dfa, word: str, alph: IndepAlphabet) -> int:
    """Number of words of the regular language inside the word's class.

    Joint dynamic program over (consumption vector, automaton state),
    pruned to reachable pairs.
    """
    positions = _positions(word, alph)
    total = 1
    for row in positions:
        total *= len(row)
    if total > _REPRESENTATIVE_GUARD:
        raise SizeGuard(f"{total} consumption vectors exceed the guard")
    end = len(word)
    dependent = alph.dependent
    # the letters of the word, each with its automaton column
    present = [
        (idx, dfa.symbol_index(letter))
        for idx, letter in enumerate(alph.symbols)
        if positions[idx][0] < end
    ]
    trans = dfa.trans
    counts = {((0,) * len(alph.symbols), dfa.start): 1}
    for _ in range(len(word)):
        nxt: dict = {}
        for (vector, q), ways in counts.items():
            for idx, column in present:
                pos = positions[idx][vector[idx]]
                if pos == end:
                    continue
                for j in dependent[idx]:
                    if positions[j][vector[j]] < pos:
                        break
                else:
                    bumped = vector[:idx] + (vector[idx] + 1,) + vector[idx + 1 :]
                    key = (bumped, trans[q][column])
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
        if len(counts) > _REPRESENTATIVE_GUARD:
            raise SizeGuard("joint state space exceeded the guard")
    return sum(ways for (vector, q), ways in counts.items() if q in dfa.finals)


def trace_description(dfa: Dfa, alph: IndepAlphabet, bound: Bound) -> Description:
    """Description of the trace closure of a regular language.

    The carrier is the string language itself, ``dfa_language(dfa)``,
    whose census table serves every draw; projection is the canonical
    form and the multiplicity of a trace is the number of its
    representatives inside the language.
    """
    if tuple(dfa.alphabet) != tuple(alph.symbols):
        raise ValueError("automaton and independence alphabets must agree")
    lang = dfa_language(dfa)
    return Description(
        sampler=lang.sample,
        project=lambda w: normal_form(w, alph),
        ambiguity=lambda trace: count_representatives(dfa, trace, alph),
        bound=bound,
        census=lang.census,
    )


def load_trace(text: str) -> tuple:
    """Parse a trace file, a DFA file plus ``indep a b`` lines, in one
    pass: ``(Dfa, IndepAlphabet)`` over the DFA's alphabet.  A pair that
    repeats a letter or names one outside the alphabet is a FormatError
    naming its ``indep`` line."""
    spec = read_automaton(text)
    automaton = automaton_dfa(spec)
    known = set(automaton.alphabet)
    for number, pair in spec[-1]:
        fault = _pair_fault(frozenset(pair), known)
        if fault:
            raise FormatError(f"line {number}: {fault}")
    return automaton, indep_alphabet(automaton.alphabet, [pair for _, pair in spec[-1]])
