"""DFA census, sampling, rank/unrank and the text format."""

import random
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countgen import dfa as dfa_module
from countgen.coins import FAIL, CoinSource, bit_size, draw_uniform, outcome_law
from countgen.dfa import (
    CensusTable,
    Dfa,
    dfa_census,
    dfa_from_regex,
    dfa_language,
    dfa_rank,
    dfa_sample,
    dfa_unrank,
    load_dfa,
    read_automaton,
)
from countgen.exceptions import EmptySlice, FormatError, RankOutOfRange, SizeGuard
from countgen.nfa import Nfa, load_nfa, nfa_from_dfa, nfa_rank, nfa_unrank

import test_cli
import test_nfa


ALL_WORDS = dfa_from_regex("(a|b)*")
AB_STAR = dfa_from_regex("(ab)*")
CD_STAR = dfa_from_regex("cd*")
EVEN_A = dfa_from_regex("b*(ab*ab*)*")  # even number of a's
FINITE_AB = dfa_from_regex("ab")

AUTOMATA = [ALL_WORDS, AB_STAR, CD_STAR, EVEN_A, FINITE_AB]


def words_of(alphabet, n):
    return ("".join(tup) for tup in iproduct(alphabet, repeat=n))


def members_up_to(a, n):
    out = []
    for length in range(n + 1):
        out.extend(w for w in words_of(a.alphabet, length) if a.accepts(w))
    return out


def reference_live_states(a):
    """States both reachable from the start and co-accessible to a final."""
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


def reference_is_finite(a):
    """Finiteness by a recursive cycle search over the live states."""
    live = reference_live_states(a)
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


def brute_rank(a, word):
    """Enumeration oracle for the length-then-lex rank."""
    rank = 0
    for length in range(len(word)):
        rank += sum(a.accepts(w) for w in words_of(a.alphabet, length))
    rank += sum(
        a.accepts(w) for w in words_of(a.alphabet, len(word)) if w <= word
    )
    return rank


class TestCensus:
    def test_ab_star(self):
        table = dfa_census(AB_STAR, 4)
        assert table.count(AB_STAR.start, 4) == 1
        assert table.count(AB_STAR.start, 3) == 0

    def test_all_words(self):
        table = dfa_census(ALL_WORDS, 3)
        assert table.count(ALL_WORDS.start, 3) == 8

    def test_cd_star(self):
        table = dfa_census(CD_STAR, 5)
        assert table.count(CD_STAR.start, 5) == 1

    @pytest.mark.parametrize("a", AUTOMATA)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_brute_force_agreement(self, a, n):
        table = dfa_census(a, n)
        expected = sum(a.accepts(w) for w in words_of(a.alphabet, n))
        assert table.count(a.start, n) == expected

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_grown_out_of_order_matches_fresh(self, a):
        table = CensusTable(a)
        for n in (3, 9, 5):
            table.count(a.start, n)
        table.grow(4)
        for n in range(10):
            fresh = dfa_census(a, n)
            for q in range(a.n_states):
                assert table.count(q, n) == fresh.count(q, n)
        assert all(len(row) == 10 for row in table.counts)

    def test_negative_length_rejected(self):
        table = dfa_census(ALL_WORDS, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            table.count(ALL_WORDS.start, -1)

    def test_language_view_length_limit(self):
        view = dfa_language(AB_STAR)
        assert view.census(4096) == 1  # (ab)**2048
        with pytest.raises(ValueError, match="census length 4097 above limit 4096"):
            view.census(4097)


def reference_census_table(a, n):
    """Per-state census rows for lengths 0..n, by the DP over every state:
    no state shares a row."""
    rows = [[1 if q in a.finals else 0] for q in range(a.n_states)]
    for length in range(1, n + 1):
        for q, row in enumerate(rows):
            row.append(sum(rows[p][length - 1] for p in a.trans[q]))
    return rows


def reference_state_classes(a):
    """Moore refinement: split by finality, then by the classes of each
    state's successors, until the number of classes stops growing.
    Classes are numbered in the order of their least states."""
    classes = [int(q in a.finals) for q in range(a.n_states)]
    while True:
        signatures = {}
        refined = [
            signatures.setdefault((classes[q], tuple(classes[p] for p in a.trans[q])), len(signatures))
            for q in range(a.n_states)
        ]
        if len(signatures) == len(set(classes)):
            return tuple(refined)
        classes = refined


def random_dfa_with_copies(seed):
    """A seeded random DFA, then copies of some of its states (same moves,
    same finality; some edges retargeted to the copy) and states nothing
    reaches, so that classes of several states are common."""
    rng = random.Random(seed)
    core = rng.randint(1, 6)
    alphabet = "abc"[: rng.randint(1, 3)]
    trans = [[rng.randrange(core) for _ in alphabet] for _ in range(core)]
    finals = {q for q in range(core) if rng.random() < 0.4}
    for _ in range(rng.randint(0, 4)):
        original, copy = rng.randrange(len(trans)), len(trans)
        trans.append(list(trans[original]))
        if original in finals:
            finals.add(copy)
        for moves in trans:
            for s, p in enumerate(moves):
                if p == original and rng.random() < 0.5:
                    moves[s] = copy
    for _ in range(rng.randint(0, 2)):
        trans.append([rng.randrange(len(trans)) for _ in alphabet])
        if rng.random() < 0.4:
            finals.add(len(trans) - 1)
    return Dfa(tuple(alphabet), tuple(map(tuple, trans)), rng.randrange(core), frozenset(finals))


REGEX_DFAS = [
    dfa_from_regex(pattern)
    for pattern in ("(a|b)*abb(a|b)*", "(a|b)*aab(a|b)*", "(a|b)*abb", "(ab|ba)*(a|bb)+", "a(a|b)*a|b")
]
FIXTURE_DFAS = [*AUTOMATA, load_dfa(test_cli.AB_STAR), load_dfa(test_cli.TRACE_FILE)]
CLASS_CASES = [*FIXTURE_DFAS, *REGEX_DFAS, *(random_dfa_with_copies(seed) for seed in range(300))]
CLASS_IDS = [*(f"fixture-{i}" for i in range(len(FIXTURE_DFAS))),
             *(f"regex-{i}" for i in range(len(REGEX_DFAS))),
             *(f"copies-{seed}" for seed in range(300))]


def chain_dfa(n_states):
    """``a`` moves one state on, ``b`` goes to the last state (a sink); only
    the state before the sink is final, so no two states are equivalent."""
    sink = n_states - 1
    trans = tuple((min(q + 1, sink), sink) for q in range(n_states))
    return Dfa(("a", "b"), trans, 0, frozenset({sink - 1}))


class TestStateClasses:
    """The census grows one row per class of equivalent states; every
    state's row must still equal the per-state DP."""

    @pytest.mark.parametrize("a", CLASS_CASES, ids=CLASS_IDS)
    def test_classes_equal_moore_refinement(self, a):
        assert a.state_classes == reference_state_classes(a)

    @pytest.mark.parametrize("a", CLASS_CASES, ids=CLASS_IDS)
    def test_rows_equal_reference(self, a):
        reference = reference_census_table(a, 40)
        table = dfa_census(a, 40)
        assert table.counts == reference
        assert all(table.count(q, 40) == reference[q][40] for q in range(a.n_states))

    @pytest.mark.parametrize("a", CLASS_CASES, ids=CLASS_IDS)
    def test_out_of_order_growth_and_language_view(self, a):
        reference = reference_census_table(a, 40)
        table = CensusTable(a)
        for n in (3, 9, 5):
            table.count(a.start, n)
        table.grow(4)
        assert table.counts == [row[:10] for row in reference]
        view = dfa_language(a)
        for n in (3, 9, 5, 4, 40, *range(41)):
            assert view.census(n) == reference[a.start][n]

    @pytest.mark.parametrize("a", CLASS_CASES, ids=CLASS_IDS)
    def test_equivalent_states_share_one_row(self, a):
        classes, counts = a.state_classes, CensusTable(a).counts
        for p in range(a.n_states):
            for q in range(a.n_states):
                assert (counts[p] is counts[q]) == (classes[p] == classes[q])

    def test_abb_has_four_classes(self):
        abb = REGEX_DFAS[0]
        assert abb.n_states == 9
        assert len(set(abb.state_classes)) == 4
        assert len({id(row) for row in dfa_census(abb, 3).counts}) == 4

    def test_chain_has_no_equivalent_states(self):
        chain = chain_dfa(4097)
        assert chain.state_classes == tuple(range(4097))
        table = dfa_census(chain, 10)
        assert table.count(chain.start, 10) == 0
        assert table.count(4085, 10) == 1

    def test_classes_are_computed_once_at_the_first_census(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return partition(a)

        partition = dfa_module._state_classes
        monkeypatch.setattr(dfa_module, "_state_classes", counted)
        a = random_dfa_with_copies(7)
        assert calls == []
        dfa_census(a, 5)
        dfa_rank(a, "aaaa")
        assert calls == [a]
        assert a.state_classes is a.state_classes
        assert a == random_dfa_with_copies(7)  # the kept classes are not a field


def reference_rank(a, rows, word):
    """dfa_rank read off per-state reference rows."""
    n = len(word)
    rank = sum(rows[a.start][length] for length in range(n))
    q = a.start
    for i, sym in enumerate(word):
        s = a.symbol_index(sym)
        rank += sum(rows[a.trans[q][t]][n - i - 1] for t in range(s))
        q = a.trans[q][s]
    return rank + (q in a.finals)


def reference_unrank(a, rows, k):
    """dfa_unrank read off per-state reference rows (k is in range)."""
    n = 0
    while k > rows[a.start][n]:
        k -= rows[a.start][n]
        n += 1
    q, word = a.start, []
    for length in range(n, 0, -1):
        for s, p in enumerate(a.trans[q]):
            if k <= rows[p][length - 1]:
                break
            k -= rows[p][length - 1]
        word.append(a.alphabet[s])
        q = p
    return "".join(word)


class TestSharedRowsAtScale:
    """Samples, ranks and unranks on (a|b)*abb(a|b)* at the lengths the
    benchmark uses read the same counts as the per-state DP."""

    ABB = REGEX_DFAS[0]
    LENGTHS = range(990, 1011)

    @pytest.fixture(scope="class")
    def rows(self):
        return reference_census_table(self.ABB, self.LENGTHS[-1])

    def reference_table(self, rows):
        table = CensusTable(self.ABB)
        table.counts = rows  # per-state rows, none shared
        return table

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_words_and_bits(self, rows, seed):
        for n in self.LENGTHS:
            ref = CoinSource(1000 * seed + n)
            expected = dfa_sample(self.ABB, n, ref, table=self.reference_table(rows))
            src = CoinSource(1000 * seed + n)
            assert dfa_sample(self.ABB, n, src) == expected
            assert src.bits_consumed == ref.bits_consumed

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_and_unrank(self, rows, seed):
        rng = random.Random(seed)
        for n in self.LENGTHS:
            body = "".join(rng.choice("ab") for _ in range(n - 3))
            cut = rng.randint(0, n - 3)
            word = body[:cut] + "abb" + body[cut:]
            assert dfa_rank(self.ABB, word) == reference_rank(self.ABB, rows, word)
            shorter = sum(rows[self.ABB.start][:n])
            k = shorter + rng.randint(1, rows[self.ABB.start][n])
            assert dfa_unrank(self.ABB, k) == reference_unrank(self.ABB, rows, k)


@pytest.mark.parametrize("seed", range(60))
def test_rank_and_unrank_equal_reference_on_random_automata(seed):
    """The walk over shared class rows on automata with copied and
    unreachable states, against the per-state reference rows."""
    a = random_dfa_with_copies(seed)
    rows = reference_census_table(a, 8)
    rng = random.Random(seed)
    for n in range(8):
        for _ in range(6):
            word = "".join(rng.choice(a.alphabet) for _ in range(n))
            assert dfa_rank(a, word) == reference_rank(a, rows, word)
        shorter = sum(rows[a.start][:n])
        for k in range(shorter + 1, shorter + rows[a.start][n] + 1, max(1, rows[a.start][n] // 8)):
            assert dfa_unrank(a, k) == reference_unrank(a, rows, k)


class TestSample:
    def test_singleton_slice(self):
        assert dfa_sample(AB_STAR, 2, CoinSource(0)) == "ab"

    def test_empty_slice(self):
        with pytest.raises(EmptySlice):
            dfa_sample(AB_STAR, 3, CoinSource(0))

    def test_all_words_exact_uniformity(self):
        law = outcome_law(lambda src: dfa_sample(ALL_WORDS, 3, src, confidence=2))
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in words_of("ab", 3):
            assert law[w] / ok == Fraction(1, 8)

    @pytest.mark.parametrize("a", [ALL_WORDS, EVEN_A, CD_STAR])
    def test_exact_uniformity_small(self, a):
        for n in (1, 2, 3):
            table = dfa_census(a, n)
            total = table.count(a.start, n)
            if total == 0:
                continue
            law = outcome_law(lambda src: dfa_sample(a, n, src, confidence=2))
            ok = 1 - law.get(FAIL, Fraction(0))
            members = [w for w in words_of(a.alphabet, n) if a.accepts(w)]
            assert len(members) == total
            for w in members:
                assert law[w] / ok == Fraction(1, total)

    def test_failure_bound(self):
        # kappa = 3 + ceil(log n); failure is at most n / 2**kappa
        n = 6
        kappa = 3 + bit_size(n)
        runs = 4000
        fails = sum(
            dfa_sample(EVEN_A, n, CoinSource(seed)) is FAIL for seed in range(runs)
        )
        assert fails / runs <= n / 2**kappa

    def test_members_only(self):
        for seed in range(200):
            w = dfa_sample(EVEN_A, 5, CoinSource(seed))
            if w is not FAIL:
                assert EVEN_A.accepts(w) and len(w) == 5

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_shared_grown_table_keeps_law_and_bits(self, a):
        shared = CensusTable(a)
        shared.count(a.start, 9)
        for n in (1, 2, 3):
            if dfa_census(a, n).count(a.start, n) == 0:
                continue

            def run(src, table=None):
                return dfa_sample(a, n, src, confidence=2, table=table), src.bits_consumed

            fresh = outcome_law(run)
            assert outcome_law(lambda src: run(src, shared)) == fresh
            assert outcome_law(lambda src: run(src, CensusTable(a))) == fresh

    def test_table_of_another_automaton_is_refused(self):
        abb = dfa_from_regex("(a|b)*abb")
        for a, other in ((ALL_WORDS, abb), (abb, ALL_WORDS), (ALL_WORDS, dfa_from_regex("(a|b)*"))):
            table = dfa_census(other, 4)
            src = CoinSource(0)
            with pytest.raises(ValueError, match="^census table belongs to another automaton$"):
                dfa_sample(a, 4, src, table=table)
            assert src.bits_consumed == 0
            assert len(table.counts[0]) == 5  # refused before the table was read

    def test_negative_confidence_is_refused(self):
        # kappa = confidence + bit_size(n) <= 0 once left no draw attempts,
        # so every call came back FAIL
        abb = dfa_from_regex("(a|b)*abb")
        for seed in range(4):
            for confidence in (-1, -5):
                src, table = CoinSource(seed), CensusTable(abb)
                with pytest.raises(ValueError, match="^confidence must be >= 0$"):
                    dfa_sample(abb, 6, src, confidence=confidence, table=table)
                assert src.bits_consumed == 0
                assert len(table.counts[abb.start]) == 1  # refused before the table was read
            word = dfa_sample(abb, 6, CoinSource(seed), confidence=0)  # 0 stays legal
            assert word is FAIL or (len(word) == 6 and abb.accepts(word))

    def test_census_out_of_step_with_dfa_is_refused(self):
        table = dfa_census(ALL_WORDS, 2)
        table.counts[ALL_WORDS.start][2] += 1  # a rank no letter's cone holds
        with pytest.raises(AssertionError, match="rank exceeded slice census"):
            for seed in range(40):
                dfa_sample(ALL_WORDS, 2, CoinSource(seed), table=table)


def reference_dfa_sample(a, n, src, confidence=3):
    """dfa_sample with every census read through ``CensusTable.count``:
    one call per draw and one per letter searched."""
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
        for s, p in enumerate(a.trans[q]):
            below = table.count(p, length - 1)
            if r <= below:
                break
            r -= below
        word.append(a.alphabet[s])
        q = a.trans[q][s]
    return "".join(word)


def random_dfa(seed):
    """A seeded random total DFA with 1-6 states over 1-3 letters."""
    rng = random.Random(seed)
    states = rng.randint(1, 6)
    alphabet = "abc"[: rng.randint(1, 3)]
    trans = tuple(tuple(rng.randrange(states) for _ in alphabet) for _ in range(states))
    finals = frozenset(q for q in range(states) if rng.random() < 0.4)
    return Dfa(tuple(alphabet), trans, rng.randrange(states), finals)


FIXTURES_AND_RANDOM = [
    *AUTOMATA, load_dfa(test_cli.AB_STAR), *(random_dfa(seed) for seed in range(16))
]
FIXTURE_IDS = [*(f"fixture-{i}" for i in range(len(AUTOMATA) + 1)),
               *(f"random-{seed}" for seed in range(16))]


class TestSampleFastPath:
    @pytest.mark.parametrize("a", FIXTURES_AND_RANDOM, ids=FIXTURE_IDS)
    def test_words_and_bits_equal_reference(self, a):
        shared = CensusTable(a)
        for n in (1, 2, 3, 5, 8, 13, 30):
            if dfa_census(a, n).count(a.start, n) == 0:
                with pytest.raises(EmptySlice):
                    dfa_sample(a, n, CoinSource(0))
                continue
            for seed in range(10):
                for confidence in (0, 3):
                    ref = CoinSource(seed)
                    expected = reference_dfa_sample(a, n, ref, confidence)
                    for table in (None, shared):
                        src = CoinSource(seed)
                        assert dfa_sample(a, n, src, confidence, table) == expected
                        assert src.bits_consumed == ref.bits_consumed

    @pytest.mark.parametrize("seed", range(6))
    def test_law_equals_reference(self, seed):
        a = random_dfa(seed)
        for n in (1, 2):
            if dfa_census(a, n).count(a.start, n) == 0:
                continue

            def run(src, sample):
                return sample(a, n, src, 1), src.bits_consumed

            assert outcome_law(lambda src: run(src, dfa_sample)) == outcome_law(
                lambda src: run(src, reference_dfa_sample))


class TestKeptSampler:
    @pytest.mark.parametrize("a", FIXTURES_AND_RANDOM, ids=FIXTURE_IDS)
    def test_kept_draws_equal_reference(self, a):
        # two lengths on one table, then a census read past both, so the
        # rows grow under the kept draws before they draw again
        live = [n for n in (1, 2, 3, 5, 8, 13) if dfa_census(a, n).count(a.start, n)][-2:]
        table = CensusTable(a)
        for _ in range(2):
            for n in live:
                for seed in range(4):
                    ref, src = CoinSource(seed), CoinSource(seed)
                    expected = reference_dfa_sample(a, n, ref, 1)
                    assert dfa_sample(a, n, src, 1, table) == expected, (n, seed)
                    assert src.bits_consumed == ref.bits_consumed
            assert set(table.samplers) == {(n, 1) for n in live}
            kept = dict(table.samplers)
            table.count(a.start, max(live, default=0) + 9)
        assert table.samplers == kept  # the same draws, not rebuilt

    def test_one_draw_per_length_and_confidence(self):
        table = CensusTable(EVEN_A)
        for confidence in (0, 3, 3, 0):
            for n in (4, 6):
                dfa_sample(EVEN_A, n, CoinSource(n), confidence, table)
        assert set(table.samplers) == {(4, 0), (6, 0), (4, 3), (6, 3)}

    def test_moves_hold_the_target_rows(self):
        a = REGEX_DFAS[0]
        table = dfa_census(a, 3)
        for q, moves in enumerate(table.moves):
            assert [(letter, p) for letter, p, _ in moves] == list(zip(a.alphabet, a.trans[q]))
            assert all(row is table.counts[p] for _, p, row in moves)
        assert table.moves is table.moves

    def test_empty_slice_raises_on_every_call(self):
        table = CensusTable(AB_STAR)
        for _ in range(3):
            for t in (None, table):
                src = CoinSource(0)
                with pytest.raises(EmptySlice):
                    dfa_sample(AB_STAR, 3, src, table=t)
                assert src.bits_consumed == 0
        assert table.samplers == {}
        assert dfa_sample(AB_STAR, 4, CoinSource(0), table=table) == "abab"
        assert set(table.samplers) == {(4, 3)}

    @pytest.mark.parametrize("n, confidence", [(0, 3), (-2, 3), (4, -1), (0, -1)])
    def test_bad_arguments_refused_before_the_table_is_read(self, n, confidence):
        table = CensusTable(EVEN_A)
        src = CoinSource(0)
        with pytest.raises(ValueError, match="^(slice length|confidence) must be >= [01]$"):
            dfa_sample(EVEN_A, n, src, confidence, table)
        assert src.bits_consumed == 0
        assert len(table.counts[EVEN_A.start]) == 1 and table.samplers == {}

    def test_census_out_of_step_under_a_kept_draw_is_refused(self):
        table = dfa_census(ALL_WORDS, 2)
        assert dfa_sample(ALL_WORDS, 2, CoinSource(0), table=table) is not FAIL
        table.counts[ALL_WORDS.start][2] += 1  # a rank no letter's cone holds
        with pytest.raises(AssertionError, match="rank exceeded slice census"):
            for seed in range(40):
                dfa_sample(ALL_WORDS, 2, CoinSource(seed), table=table)


class TestRank:
    def test_empty_word_in_full_language(self):
        assert dfa_rank(ALL_WORDS, "") == 1

    def test_b_in_full_language(self):
        assert dfa_rank(ALL_WORDS, "b") == 3

    def test_cdd(self):
        assert dfa_rank(CD_STAR, "cdd") == 3

    def test_non_member_word(self):
        # dd is not in cd*: rank counts members at or before it
        assert dfa_rank(CD_STAR, "dd") == brute_rank(CD_STAR, "dd")

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_brute_force_agreement(self, a, max_len=5):
        for length in range(max_len + 1):
            for w in words_of(a.alphabet, length):
                assert dfa_rank(a, w) == brute_rank(a, w)

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_monotonicity(self, a):
        previous = 0
        for length in range(4):
            for w in sorted(words_of(a.alphabet, length)):
                r = dfa_rank(a, w)
                assert r >= previous
                previous = r


class TestUnrank:
    def test_language_view_refuses_a_rank_outside_the_slice(self):
        view = dfa_language(ALL_WORDS)
        assert [view.unrank(2, r) for r in range(1, 5)] == ["aa", "ab", "ba", "bb"]
        for r in (0, 5):
            with pytest.raises(RankOutOfRange, match=f"^rank {r} outside the 4 members of length 2$"):
                view.unrank(2, r)

    def test_lex_least(self):
        assert dfa_unrank(CD_STAR, 1) == "c"

    def test_third_word(self):
        assert dfa_unrank(ALL_WORDS, 3) == "b"

    def test_finite_out_of_range(self):
        assert dfa_unrank(FINITE_AB, 1) == "ab"
        with pytest.raises(RankOutOfRange):
            dfa_unrank(FINITE_AB, 2)

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_roundtrip_members(self, a):
        for w in members_up_to(a, 8):
            assert dfa_unrank(a, dfa_rank(a, w)) == w

    @pytest.mark.parametrize("a", [ALL_WORDS, AB_STAR, CD_STAR, EVEN_A])
    def test_roundtrip_ranks(self, a):
        for k in range(1, 30):
            w = dfa_unrank(a, k)
            assert dfa_rank(a, w) == k

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=30)
    def test_roundtrip_random_ranks(self, k):
        w = dfa_unrank(EVEN_A, k)
        assert dfa_rank(EVEN_A, w) == k

    @pytest.mark.parametrize("seed", range(200))
    def test_random_automata_match_enumeration(self, seed):
        rng = random.Random(seed)
        n_states, alphabet = rng.randint(1, 6), "abc"[: rng.randint(1, 3)]
        trans = tuple(
            tuple(rng.randrange(n_states) for _ in alphabet) for _ in range(n_states)
        )
        finals = frozenset(q for q in range(n_states) if rng.random() < 0.3)
        a = Dfa(tuple(alphabet), trans, 0, finals)
        # members of a finite language are shorter than n_states <= 6
        members = members_up_to(a, 6)
        for k, w in enumerate(members, 1):
            assert dfa_unrank(a, k) == w
        if reference_is_finite(a):
            size = len(members)
            with pytest.raises(RankOutOfRange, match=f"language has only {size} members"):
                dfa_unrank(a, size + 1)
        else:
            assert len(dfa_unrank(a, len(members) + 1)) > 6

    def test_long_chains(self):
        # a 1200-state chain over one letter whose last state loops; deeper
        # than a recursive cycle search can go
        chain = tuple((q + 1,) for q in range(1199)) + ((1199,),)
        finite = Dfa(("a",), chain, 0, frozenset({1198}))
        assert dfa_unrank(finite, 1) == "a" * 1198
        with pytest.raises(RankOutOfRange, match="language has only 1 members"):
            dfa_unrank(finite, 2)
        infinite = Dfa(("a",), chain, 0, frozenset({1199}))
        assert dfa_unrank(infinite, 3) == "a" * 1201


class TestNfaFamilyAgreement:
    """Both automaton families rank in the same length-first order."""

    @pytest.mark.parametrize("a", FIXTURES_AND_RANDOM, ids=FIXTURE_IDS)
    def test_same_rank_and_unrank(self, a):
        lifted = nfa_from_dfa(a)
        for length in range(7):
            for w in words_of(a.alphabet, length):
                assert nfa_rank(lifted, w) == dfa_rank(a, w)
        members = members_up_to(a, 6)
        for k, w in enumerate(members, 1):
            assert nfa_unrank(lifted, k) == dfa_unrank(a, k) == w
        if reference_is_finite(a):
            message = f"^language has only {len(members)} members$"
            for unrank in (lambda k: dfa_unrank(a, k), lambda k: nfa_unrank(lifted, k)):
                with pytest.raises(RankOutOfRange, match=message):
                    unrank(len(members) + 1)
        else:
            assert nfa_unrank(lifted, len(members) + 1) == dfa_unrank(a, len(members) + 1)

    def test_unrank_stops_at_the_longest_slice(self):
        a = dfa_from_regex("a*")
        lifted = nfa_from_dfa(a)
        for unrank in (lambda k: dfa_unrank(a, k), lambda k: nfa_unrank(lifted, k)):
            assert unrank(4097) == "a" * 4096
            with pytest.raises(SizeGuard, match="^rank 4098 not reached by length 4096$"):
                unrank(4098)


def slice_rank(a, word):
    """Reference rank within the fixed-length slice: shorter words are not counted."""
    n = len(word)
    table = dfa_census(a, n)
    return dfa_rank(a, word) - sum(table.count(a.start, m) for m in range(n))


class TestSliceRank:
    def test_matches_full_rank_offset(self):
        # slice rank drops exactly the count of shorter members
        for w in ("", "a", "b", "ab", "bb", "abb"):
            n = len(w)
            shorter = sum(
                sum(EVEN_A.accepts(v) for v in words_of("ab", length))
                for length in range(n)
            )
            assert slice_rank(EVEN_A, w) == dfa_rank(EVEN_A, w) - shorter


class TestFormatsAndRegex:
    DFA_TEXT = """
# words over ab with even number of a
states 2
alphabet a b
start 0
finals 0
trans 0 a 1
trans 0 b 0
trans 1 a 0
trans 1 b 1
"""

    def test_load(self):
        a = load_dfa(self.DFA_TEXT)
        assert a.accepts("ab") is False
        assert a.accepts("aa")
        table = dfa_census(a, 3)
        assert table.count(a.start, 3) == 4

    def test_load_rejects_partial(self):
        with pytest.raises(FormatError):
            load_dfa("states 1\nalphabet a\nstart 0\nfinals 0\n")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("trans 1 b 1", "trans -1 b 1"),
            ("trans 1 b 1", "trans 2 b 1"),
            ("trans 0 a 1", "trans 0 a -1"),
            ("start 0", "start 2"),
            ("finals 0", "finals 0 -2"),
        ],
    )
    def test_load_rejects_state_out_of_range(self, old, new):
        with pytest.raises(FormatError, match="outside 0..1"):
            load_dfa(self.DFA_TEXT.replace(old, new))

    def test_regex_language(self):
        a = dfa_from_regex("(a|b)*abb")
        for w in ("abb", "aabb", "babb"):
            assert a.accepts(w)
        for w in ("", "ab", "abba"):
            assert not a.accepts(w)

    def test_regex_matches_membership_brute(self):
        a = dfa_from_regex("(a*c)*(ab)*c(a*c)*", alphabet="abc")
        # directly checkable members and non-members
        assert a.accepts("c")
        assert a.accepts("abc")
        assert a.accepts("cc")
        assert a.accepts("acabcac")
        assert not a.accepts("ab")
        assert not a.accepts("ba")

    def test_word_language_adapter(self):
        lang = dfa_language(EVEN_A)
        assert lang.census(2) == 2
        assert lang.member("aa")
        w = lang.sample(2, CoinSource(0))
        assert w in ("aa", "bb")


def reference_load_dfa(text):
    """The DFA loader as it stood before the shared reader."""
    n_states = alphabet = start = finals = None
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
    table = [[None] * len(alphabet) for _ in range(n_states)]
    for q, sym, p in edges:
        table[q][alphabet.index(sym)] = p
    return Dfa(alphabet, tuple(tuple(row) for row in table), start, finals)


def reference_load_nfa(text):
    """The NFA loader as it stood before the shared reader."""
    n_states = alphabet = ambiguity = None
    starts, finals, edges = [], [], []
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
            starts.extend(int(tok) for tok in args)
        elif key == "finals":
            finals.extend(int(tok) for tok in args)
        elif key == "ambiguity":
            ambiguity = int(args[0])
        elif key == "trans":
            edges.append((int(args[0]), args[1], int(args[2])))
        else:
            raise FormatError(f"unknown directive {key!r}")
    matrices = [[[0] * n_states for _ in range(n_states)] for _ in alphabet]
    for q, sym, p in edges:
        matrices[alphabet.index(sym)][q][p] += 1
    return Nfa(
        alphabet,
        tuple(tuple(tuple(row) for row in m) for m in matrices),
        tuple(int(q in starts) for q in range(n_states)),
        tuple(int(q in finals) for q in range(n_states)),
        ambiguity,
    )


def flagship_dfa_text():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads.FLAGSHIP_DFA


DFA_FIXTURES = {
    "cli-ab": test_cli.AB_STAR,
    "cli-trace": test_cli.TRACE_FILE,
    "even-a": TestFormatsAndRegex.DFA_TEXT,
    "flagship": flagship_dfa_text(),
}
NFA_FIXTURES = {
    "cli-two-route": test_cli.TWO_ROUTE_NFA,
    "cli-b-then-any": test_cli.B_THEN_ANY_NFA,
    "cli-eps": test_cli.EPS_NFA,
    "loader": test_nfa.TestLoader.NFA_TEXT,
}
NFA_TEXT = test_cli.TWO_ROUTE_NFA


def with_comments(text):
    return "".join(f"{line}  # note {i}\n" for i, line in enumerate(text.splitlines()))


class TestAutomatonReader:
    @pytest.mark.parametrize("text", DFA_FIXTURES.values(), ids=DFA_FIXTURES.keys())
    def test_dfa_fixtures_load_as_before(self, text):
        assert load_dfa(text) == reference_load_dfa(text)
        assert load_dfa(with_comments(text)) == reference_load_dfa(text)

    @pytest.mark.parametrize("text", NFA_FIXTURES.values(), ids=NFA_FIXTURES.keys())
    def test_nfa_fixtures_load_as_before(self, text):
        assert load_nfa(text) == reference_load_nfa(text)
        assert load_nfa(with_comments(text)) == reference_load_nfa(text)

    def test_comment_after_finals(self):
        text = test_cli.AB_STAR.replace("finals 0", "finals 0 # accepting")
        assert load_dfa(text) == reference_load_dfa(test_cli.AB_STAR)

    def test_finals_lines_add_up(self):
        text = test_cli.AB_STAR.replace("finals 0", "finals 0\nfinals 1")
        assert load_dfa(text).finals == {0, 1}

    def test_shared_fields(self):
        n_states, alphabet, starts, finals, edges, ambiguity, indep = read_automaton(NFA_TEXT)
        assert (n_states, alphabet, starts, finals) == (2, ("a",), [0], [1])
        assert (edges, ambiguity, indep) == ([(0, 0, 1), (0, 0, 1)], 2, [])

    @pytest.mark.parametrize(
        "old, new",
        [
            ("states 3", "states 3 4"),
            ("states 3", "states three"),
            ("trans 0 a 1", "trans 0 a 1 2"),
            ("trans 0 a 1", "trans 0 a"),
            ("trans 0 a 1", "trans 0 a one"),
            ("finals 0", "finals x"),
            ("start 0", "start 0 1"),
            ("start 0", "start 0\nstart 1"),
            ("start 0", "start"),
            ("alphabet a b", "alphabet ab b"),
            ("alphabet a b", "alphabet a b a"),
            ("alphabet a b", "alphabet a b\nalphabet a b"),
            ("finals 0", "finals 0\nambiguity 1"),
            ("finals 0", "finals 0\nindep a"),
            ("finals 0", "final 0"),
        ],
    )
    def test_malformed_dfa(self, old, new):
        text = test_cli.AB_STAR
        assert old in text
        with pytest.raises(FormatError):
            load_dfa(text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("alphabet a", "alphabet ab c"),
            ("alphabet a", "alphabet a a"),
            ("states 2", "states 2 2"),
            ("trans 0 a 1", "trans 0 a 1 1"),
            ("start 0", "start zero"),
            ("finals 1", "finals"),
            ("ambiguity 2", "ambiguity 0"),
            ("ambiguity 2", "ambiguity"),
            ("ambiguity 2", "ambiguity 2\nambiguity 3"),
            ("ambiguity 2\n", ""),
        ],
    )
    def test_malformed_nfa(self, old, new):
        assert old in NFA_TEXT
        with pytest.raises(FormatError):
            load_nfa(NFA_TEXT.replace(old, new, 1))
