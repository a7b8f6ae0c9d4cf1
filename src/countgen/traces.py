"""Trace languages: words modulo commutation of independent adjacent letters.

A trace is the equivalence class of a word under swaps of adjacent
independent letters; its canonical representative is the lexicographically
least class member.  Counting the members of a class, or the class members
inside a regular language, runs over consumption vectors (how many
occurrences of each letter have been emitted), which is exactly the
down-set structure of the occurrence order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .describe import Bound, Description
from .dfa import CensusTable, Dfa, dfa_sample
from .exceptions import SizeGuard
from .specfile import read_directives

# Largest commutation class the swap oracle lists, and largest state
# space the representative count explores.
_CLOSURE_LIMIT = 100_000
_REPRESENTATIVE_GUARD = 200_000


@dataclass(frozen=True)
class IndepAlphabet:
    """Ordered symbols plus a symmetric, irreflexive independence relation."""

    symbols: tuple
    pairs: frozenset  # of frozensets {a, b}

    def __post_init__(self):
        known = set(self.symbols)
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError("independence pairs must join two distinct letters")
            if not pair <= known:
                raise ValueError(f"pair {set(pair)!r} uses unknown letters")

    def independent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.pairs


def indep_alphabet(symbols, pairs) -> IndepAlphabet:
    return IndepAlphabet(
        tuple(symbols), frozenset(frozenset(p) for p in pairs)
    )


def normal_form(word: str, alph: IndepAlphabet) -> str:
    """Lexicographically least member of the word's commutation class.

    Greedy over consumption vectors: repeatedly emit the smallest letter,
    in character order, whose next occurrence is independent of every
    unconsumed occurrence before it.
    """
    occ = _occurrences(word, alph.symbols)
    by_char = sorted(enumerate(alph.symbols), key=lambda pair: pair[1])
    vector = [0] * len(alph.symbols)
    out = []
    for _ in word:
        for idx, letter in by_char:
            if _can_emit(occ, alph, vector, idx, letter):
                break
        vector[idx] += 1
        out.append(letter)
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


def _occurrences(word: str, symbols):
    occ = {a: [] for a in symbols}
    for i, letter in enumerate(word):
        if letter not in occ:
            raise ValueError(f"letter {letter!r} not in the alphabet")
        occ[letter].append(i)
    return occ


def _can_emit(occ, alph, vector, letter_index, letter):
    positions = occ[letter]
    k = vector[letter_index]
    if k >= len(positions):
        return False
    nxt = positions[k]
    # every unconsumed occurrence before nxt must be independent of the
    # letter; checking the earliest unconsumed one per letter suffices
    for j, other in enumerate(alph.symbols):
        if other == letter:
            continue
        others = occ[other]
        taken = vector[j]
        if (
            taken < len(others)
            and others[taken] < nxt
            and not alph.independent(other, letter)
        ):
            return False
    return True


def class_size(word: str, alph: IndepAlphabet) -> int:
    """Number of words in the commutation class of ``word``."""
    every_word = Dfa(alph.symbols, ((0,) * len(alph.symbols),), 0, frozenset({0}))
    return count_representatives(every_word, word, alph)


def count_representatives(dfa: Dfa, word: str, alph: IndepAlphabet) -> int:
    """Number of words of the regular language inside the word's class.

    Joint dynamic program over (consumption vector, automaton state),
    pruned to reachable pairs.
    """
    total = 1
    occ = _occurrences(word, alph.symbols)
    for positions in occ.values():
        total *= len(positions) + 1
    if total > _REPRESENTATIVE_GUARD:
        raise SizeGuard(f"{total} consumption vectors exceed the guard")
    order = alph.symbols
    start = (tuple(0 for _ in order), dfa.start)
    counts = {start: 1}
    for _ in range(len(word)):
        nxt: dict = {}
        for (vector, q), ways in counts.items():
            for idx, letter in enumerate(order):
                if _can_emit(occ, alph, vector, idx, letter):
                    bumped = vector[:idx] + (vector[idx] + 1,) + vector[idx + 1 :]
                    key = (bumped, dfa.trans[q][dfa.symbol_index(letter)])
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
        if len(counts) > _REPRESENTATIVE_GUARD:
            raise SizeGuard("joint state space exceeded the guard")
    return sum(ways for (vector, q), ways in counts.items() if q in dfa.finals)


def trace_description(dfa: Dfa, alph: IndepAlphabet, bound: Bound) -> Description:
    """Description of the trace closure of a regular language.

    The carrier is the string language itself; projection is the
    canonical form and the multiplicity of a trace is the number of its
    representatives inside the language.
    """
    if tuple(dfa.alphabet) != tuple(alph.symbols):
        raise ValueError("automaton and independence alphabets must agree")
    table = CensusTable(dfa)

    def sampler(n, src):
        return dfa_sample(dfa, n, src, table=table)

    return Description(
        sampler=sampler,
        project=lambda w: normal_form(w, alph),
        ambiguity=lambda trace: count_representatives(dfa, trace, alph),
        bound=bound,
        census=lambda n: table.count(dfa.start, n),
    )


def load_indep(text: str, symbols) -> IndepAlphabet:
    """Collect ``indep a b`` lines from an automaton file."""
    lines = read_directives(text, {"indep": 2}, other=lambda number, tokens: None)
    return indep_alphabet(symbols, [tuple(args) for _, args in lines["indep"]])
