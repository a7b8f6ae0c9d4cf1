"""Trace normal forms, class sizes, and representative counting."""

import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countgen.coins import FAIL, CoinSource, outcome_law
from countgen.describe import Bound, estimate_census, sample_report
from countgen.dfa import Dfa, dfa_census, dfa_from_regex, dfa_sample, load_dfa
from countgen.exceptions import AmbiguityExceeded, FormatError
from countgen.specfile import read_directives
from countgen.traces import (
    count_representatives,
    indep_alphabet,
    load_trace,
    normal_form,
    swap_closure,
    trace_description,
)


def class_size(word: str, alph) -> int:
    """Number of words in the commutation class of ``word``: its
    representatives in the language of every word."""
    every_word = Dfa(alph.symbols, ((0,) * len(alph.symbols),), 0, frozenset({0}))
    return count_representatives(every_word, word, alph)


AB_FREE = indep_alphabet("ab", [("a", "b")])
RIGID = indep_alphabet("ab", [])
CHAIN = indep_alphabet("abc", [("a", "b"), ("b", "c")])

# the flagship language: (a*c)*(ab)*c(a*c)* with a,b and b,c independent
FLAGSHIP_DFA = dfa_from_regex("(a*c)*(ab)*c(a*c)*", alphabet="abc")


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


def reference_normal_form(word, alph):
    """The rescanning normal form the occurrence-vector walk replaced:
    emit the smallest letter whose earliest remaining occurrence is
    independent of everything remaining before it."""
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for i, letter in enumerate(remaining):
            if any(not alph.independent(remaining[j], letter) for j in range(i)):
                continue
            if best is None or letter < remaining[best]:
                best = i
        out.append(remaining.pop(best))
    return "".join(out)


def _occurrences(word, symbols):
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
    for j, other in enumerate(alph.symbols):
        if other == letter:
            continue
        others = occ[other]
        taken = vector[j]
        if taken < len(others) and others[taken] < nxt and not alph.independent(other, letter):
            return False
    return True


def reference_vector_normal_form(word, alph):
    """normal_form as it was before the per-letter position lists: the
    consumption-vector walk testing every other letter per candidate."""
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


def reference_count_representatives(dfa, word, alph):
    """count_representatives as it was before the per-letter position lists."""
    occ = _occurrences(word, alph.symbols)
    order = alph.symbols
    counts = {(tuple(0 for _ in order), dfa.start): 1}
    for _ in range(len(word)):
        nxt = {}
        for (vector, q), ways in counts.items():
            for idx, letter in enumerate(order):
                if _can_emit(occ, alph, vector, idx, letter):
                    bumped = vector[:idx] + (vector[idx] + 1,) + vector[idx + 1 :]
                    key = (bumped, dfa.trans[q][dfa.symbol_index(letter)])
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return sum(ways for (vector, q), ways in counts.items() if q in dfa.finals)


def every_relation(symbols):
    pairs = list(combinations(symbols, 2))
    for mask in range(1 << len(pairs)):
        yield indep_alphabet(symbols, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestAlphabetLookups:
    @pytest.mark.parametrize("symbols", ["a", "ba", "cab"])
    def test_lookups_equal_their_definitions(self, symbols):
        for alph in every_relation(symbols):
            assert alph.index == {a: i for i, a in enumerate(symbols)}
            assert alph.dependent == tuple(
                tuple(j for j, b in enumerate(symbols) if b != a and not alph.independent(a, b))
                for a in symbols
            )
            assert [symbols[i] for i in alph.char_order] == sorted(symbols)

    def test_lookups_are_set_at_construction(self):
        alph = indep_alphabet("cab", [("a", "b")])
        assert {"index", "dependent", "char_order"} <= vars(alph).keys()
        assert alph.dependent is alph.dependent
        # equality and hashing still read the two fields only
        twin = indep_alphabet("cab", [("b", "a")])
        assert twin == alph and hash(twin) == hash(alph)
        assert repr(alph).startswith("IndepAlphabet(symbols=('c', 'a', 'b'), pairs=")


class TestNormalForm:
    def test_swap_pair(self):
        assert normal_form("ba", AB_FREE) == "ab"

    def test_rigid(self):
        assert normal_form("ba", RIGID) == "ba"
        assert normal_form("ab", RIGID) == "ab"

    def test_chain_class(self):
        assert swap_closure("abc", CHAIN) == {"abc", "bac", "acb"}
        assert normal_form("abc", CHAIN) == "abc"
        assert normal_form("bac", CHAIN) == "abc"
        assert normal_form("acb", CHAIN) == "abc"

    @pytest.mark.parametrize("alph", [AB_FREE, RIGID, CHAIN])
    def test_idempotent_and_class_invariant(self, alph):
        for n in range(1, 6):
            for w in words_of(alph.symbols, n):
                nf = normal_form(w, alph)
                assert normal_form(nf, alph) == nf
                cls = swap_closure(w, alph)
                assert nf == min(cls)
                assert all(normal_form(v, alph) == nf for v in cls)

    # letters declared out of character order, which is the order that counts
    @pytest.mark.parametrize("symbols", ["a", "ba", "cab", "dbca"])
    def test_equals_rescanning_reference(self, symbols):
        for alph in every_relation(symbols):
            for n in range(1, 7):
                for w in words_of(symbols, n):
                    assert normal_form(w, alph) == reference_normal_form(w, alph), (w, alph)

    @pytest.mark.parametrize("symbols", ["abc", "bca", "abcd", "dbca"])
    def test_equals_vector_reference(self, symbols):
        for alph in every_relation(symbols):
            for n in range(0, 6 if len(symbols) == 3 else 5):
                for w in words_of(symbols, n):
                    assert normal_form(w, alph) == reference_vector_normal_form(w, alph)

    def test_letter_outside_alphabet_refused(self):
        full = dfa_from_regex("(a|b|c)*", alphabet="abc")
        with pytest.raises(ValueError, match="'d' not in the alphabet"):
            normal_form("abd", CHAIN)
        with pytest.raises(ValueError, match="'d' not in the alphabet"):
            class_size("abd", CHAIN)
        with pytest.raises(ValueError, match="'d' not in the alphabet"):
            count_representatives(full, "abd", CHAIN)

    @given(st.text(alphabet="abc", min_size=1, max_size=7))
    @settings(max_examples=60)
    def test_least_member_property(self, w):
        nf = normal_form(w, CHAIN)
        assert nf in swap_closure(w, CHAIN)
        assert nf == min(swap_closure(w, CHAIN))


class TestClassSize:
    def test_rigid_singleton(self):
        assert class_size("abab", RIGID) == 1

    def test_free_pair(self):
        assert class_size("ab", AB_FREE) == 2

    def test_chain_triple(self):
        assert class_size("abc", CHAIN) == 3

    @pytest.mark.parametrize("alph", [AB_FREE, RIGID, CHAIN])
    def test_matches_swap_closure(self, alph):
        for n in range(1, 7):
            for w in words_of(alph.symbols, n):
                assert class_size(w, alph) == len(swap_closure(w, alph))


class TestCountRepresentatives:
    def test_full_language_gives_class_size(self):
        full = dfa_from_regex("(a|b|c)*", alphabet="abc")
        for w in ("abc", "bca", "aabc"):
            assert count_representatives(full, w, CHAIN) == class_size(w, CHAIN)

    def test_singleton_language(self):
        just_ab = dfa_from_regex("ab")
        assert count_representatives(just_ab, "ba", AB_FREE) == 1
        assert count_representatives(just_ab, "ab", AB_FREE) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_flagship_matches_brute_force(self, n):
        for w in words_of("abc", n):
            brute = sum(
                FLAGSHIP_DFA.accepts(v) for v in swap_closure(w, CHAIN)
            )
            if brute or FLAGSHIP_DFA.accepts(w):
                assert count_representatives(FLAGSHIP_DFA, w, CHAIN) == brute

    def test_flagship_matches_brute_force_n8(self):
        # at n = 8 restrict to the traces that actually meet the language
        traces_seen = {
            normal_form(w, CHAIN)
            for w in words_of("abc", 8)
            if FLAGSHIP_DFA.accepts(w)
        }
        assert traces_seen
        for t in traces_seen:
            brute = sum(FLAGSHIP_DFA.accepts(v) for v in swap_closure(t, CHAIN))
            assert count_representatives(FLAGSHIP_DFA, t, CHAIN) == brute

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_identity(self, n):
        # summing representative counts over distinct traces recovers the
        # slice census of the string language
        table = dfa_census(FLAGSHIP_DFA, n)
        slice_size = table.count(FLAGSHIP_DFA.start, n)
        traces = {
            normal_form(w, CHAIN)
            for w in words_of("abc", n)
            if FLAGSHIP_DFA.accepts(w)
        }
        total = sum(
            count_representatives(FLAGSHIP_DFA, t, CHAIN) for t in traces
        )
        assert total == slice_size

    def test_transitive_independence_unambiguous(self):
        # with a transitive (here: complete-on-{a,b}) independence the
        # closure of this language stays 1-ambiguous on small slices
        lang = dfa_from_regex("(ab)*")
        for n in (2, 4, 6):
            for w in words_of("ab", n):
                if lang.accepts(w):
                    nf = normal_form(w, AB_FREE)
                    assert count_representatives(lang, nf, AB_FREE) == 1


def random_dfa(symbols, seed):
    rng = random.Random(seed)
    states = rng.randint(1, 4)
    trans = tuple(tuple(rng.randrange(states) for _ in symbols) for _ in range(states))
    finals = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Dfa(tuple(symbols), trans, rng.randrange(states), finals)


class TestRepresentativesFastPath:
    @pytest.mark.parametrize("symbols", ["abc", "cab", "abcd", "dbca"])
    def test_equals_reference(self, symbols):
        full = Dfa(tuple(symbols), ((0,) * len(symbols),), 0, frozenset({0}))
        automata = [full, *(random_dfa(symbols, seed) for seed in range(3))]
        for alph in every_relation(symbols):
            for n in range(0, 5 if len(symbols) == 3 else 4):
                for w in words_of(symbols, n):
                    for a in automata:
                        assert count_representatives(a, w, alph) == \
                            reference_count_representatives(a, w, alph), (w, alph, a)

    def test_flagship_words_equal_reference(self):
        for w in words_of("abc", 7):
            assert count_representatives(FLAGSHIP_DFA, w, CHAIN) == \
                reference_count_representatives(FLAGSHIP_DFA, w, CHAIN)

    def test_automaton_without_a_letter_of_the_word(self):
        ab_only = dfa_from_regex("(a|b)*", alphabet="ab")
        assert count_representatives(ab_only, "ab", CHAIN) == 2
        with pytest.raises(ValueError, match="symbol 'c' not in alphabet"):
            count_representatives(ab_only, "abc", CHAIN)

    def test_repeated_symbols_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            indep_alphabet("aba", [])


class TestTraceDescription:
    def test_empty_independence_reduces_to_strings(self):
        lang = dfa_from_regex("(a|b)*")
        desc = trace_description(lang, RIGID, Bound(const=1))
        got = {sample_report(desc, 2, CoinSource(s)).value for s in range(40)}
        got.discard(FAIL)
        assert got == {"aa", "ab", "ba", "bb"}

    def test_two_word_class_single_trace(self):
        lang = dfa_from_regex("ab|ba")
        desc = trace_description(lang, AB_FREE, Bound(const=2))
        assert desc.ambiguity("ab") == 2
        for seed in range(10):
            w = sample_report(desc, 2, CoinSource(seed)).value
            if w is not FAIL:
                assert w == "ab"

    def test_flagship_census_estimate(self):
        bound = Bound(coeff=1, power=1, const=1)
        desc = trace_description(FLAGSHIP_DFA, CHAIN, bound)
        n = 4
        brute = len(
            {
                normal_form(w, CHAIN)
                for w in words_of("abc", n)
                if FLAGSHIP_DFA.accepts(w)
            }
        )
        hits = 0
        runs = 40
        for seed in range(runs):
            est = estimate_census(desc, n, Fraction(1, 2), CoinSource(seed))
            assert est is not FAIL
            if Fraction(brute, 2) <= est <= Fraction(3 * brute, 2):
                hits += 1
        assert hits / runs > 0.7

    def test_shared_table_keeps_carrier_law_and_bits(self):
        lang = dfa_from_regex("(a|b)*ab")
        desc = trace_description(lang, AB_FREE, Bound(const=4))
        for n in (3, 9, 5):
            assert desc.census(n) == dfa_census(lang, n).count(lang.start, n)
        for n in (2, 3):
            carrier = outcome_law(lambda src: (desc.sampler(n, src), src.bits_consumed))
            fresh = outcome_law(
                lambda src: (dfa_sample(lang, n, src, confidence=3), src.bits_consumed)
            )
            assert carrier == fresh

    def test_census_limit_is_the_language_views(self):
        lang = dfa_from_regex("(a|b)*ab")
        desc = trace_description(lang, AB_FREE, Bound(const=4))
        assert desc.census(4096) == 2**4094
        with pytest.raises(ValueError, match="^census length 4097 above limit 4096$"):
            desc.census(4097)

    def test_ambiguity_guard(self):
        lang = dfa_from_regex("ab|ba")
        desc = trace_description(lang, AB_FREE, Bound(const=1))
        # the description returns the raw count; the engine refuses it
        assert desc.ambiguity("ab") == 2
        with pytest.raises(AmbiguityExceeded, match="'ab' has multiplicity 2, bound 1"):
            sample_report(desc, 2, CoinSource(0))
        with pytest.raises(AmbiguityExceeded):
            estimate_census(desc, 2, Fraction(1, 2), CoinSource(0))


ABC_DFA = "states 1\nalphabet a b c\nstart 0\nfinals 0\ntrans 0 a 0\ntrans 0 b 0\ntrans 0 c 0\n"


def load_indep(text):
    """The independence relation of ``text`` followed by a DFA over abc."""
    return load_trace(text + ABC_DFA)[1]


def reference_load_trace(text):
    """The two-pass loader the CLI used before: the DFA, then a second read
    for the ``indep`` lines, each pair checked against the alphabet and
    refused with the number of its line."""
    automaton = load_dfa(text)
    lines = read_directives(text, {"indep": 2}, other=lambda number, tokens: None)
    for number, (a, b) in lines["indep"]:
        if a == b:
            raise FormatError(f"line {number}: independence pairs must join two distinct letters")
        if a not in automaton.alphabet or b not in automaton.alphabet:
            raise FormatError(f"line {number}: pair {tuple(sorted((a, b)))!r} uses unknown letters")
    return automaton, indep_alphabet(automaton.alphabet, [tuple(args) for _, args in lines["indep"]])


def outcome(load, text):
    try:
        return load(text)
    except (FormatError, ValueError) as exc:
        return type(exc), str(exc)


TRACE_TEXT = ABC_DFA + "indep a b\nindep b c\n"


class TestLoader:
    @pytest.mark.parametrize(
        "text",
        [
            TRACE_TEXT,
            ABC_DFA,
            TRACE_TEXT + "indep a\n",
            TRACE_TEXT + "indep a a\n",
            TRACE_TEXT + "indep a d\n",
            TRACE_TEXT.replace("trans 0 c 0\n", ""),
            TRACE_TEXT.replace("start 0", "start 0 0"),
            TRACE_TEXT + "ambiguity 2\n",
            TRACE_TEXT.replace("finals 0", "finals 1") + "indep a a\n",
            TRACE_TEXT.replace("states 1", "states one") + "indep a\n",
        ],
        ids=["valid", "no-indep", "indep-short", "indep-same", "indep-unknown", "missing-trans",
             "two-starts", "ambiguity", "bad-final-and-indep", "bad-states-and-indep"],
    )
    def test_one_pass_equals_two_pass(self, text):
        assert outcome(load_trace, text) == outcome(reference_load_trace, text)

    @pytest.mark.parametrize("line, message", [
        ("indep b b", "line 9: independence pairs must join two distinct letters"),
        ("indep z a", "line 9: pair ('a', 'z') uses unknown letters"),
        ("indep a z", "line 9: pair ('a', 'z') uses unknown letters"),
    ])
    def test_bad_pair_names_its_line(self, line, message):
        with pytest.raises(FormatError) as caught:
            load_trace(ABC_DFA + "indep a b\n" + line + "\n")
        assert str(caught.value) == message

    def test_unknown_pair_message_is_sorted(self):
        for pair in (("z", "a"), ("a", "z")):
            with pytest.raises(ValueError) as caught:
                indep_alphabet("ab", [pair])
            assert str(caught.value) == "pair ('a', 'z') uses unknown letters"

    def test_indep_lines(self):
        alph = load_indep("indep a b\nindep b c\n")
        assert alph.independent("a", "b")
        assert alph.independent("c", "b")
        assert not alph.independent("a", "c")

    def test_comments(self):
        alph = load_indep("indep a b  # commute\n# indep b c\n")
        assert alph.independent("a", "b")
        assert not alph.independent("b", "c")
