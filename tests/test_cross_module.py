"""Cross-module consistency: different algorithms, identical laws and counts."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from countgen.cfg import CnfGrammar, earley_count
from countgen.coins import FAIL, CoinSource, gen_uniform, outcome_law
from countgen.describe import (
    amplify_urg,
    estimate_census,
    product,
    sample_report,
    union,
)
from countgen.dfa import dfa_census, dfa_from_regex, dfa_language, dfa_sample, dfa_unrank
from countgen.nfa import (
    Nfa,
    nfa_from_dfa,
    nfa_sample_slice,
    nfa_slice_census,
    nfa_unrank,
)
from countgen.traces import indep_alphabet, trace_description
from countgen.describe import Bound


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


class TestSamplerAgreement:
    def test_dfa_and_rank_samplers_same_law(self):
        # per-letter rejection vs rank-and-bisect on the same slice: both
        # must be uniform on the same member set
        automaton = dfa_from_regex("b*(ab*ab*)*")
        lifted = nfa_from_dfa(automaton)
        n = 3
        members = [w for w in words_of("ab", n) if automaton.accepts(w)]
        law_letters = outcome_law(lambda src: dfa_sample(automaton, n, src, confidence=2))
        law_ranks = outcome_law(lambda src: nfa_sample_slice(lifted, n, src))
        for law in (law_letters, law_ranks):
            good = 1 - law.get(FAIL, Fraction(0))
            for w in members:
                assert law[w] / good == Fraction(1, len(members))

    def test_nfa_census_equals_dfa_census(self):
        automaton = dfa_from_regex("(a|b)*aa(a|b)*")
        lifted = nfa_from_dfa(automaton)
        table = dfa_census(automaton, 6)
        for n in range(7):
            assert nfa_slice_census(lifted, n) == table.count(automaton.start, n)

    def test_nfa_sampler_consumes_exactly_the_rank_draw(self):
        # the census fixes gen_uniform's width and attempts and the greedy
        # walk draws nothing, so every tape must give the same bits and the
        # k-th word.  The automaton is the block-diagonal union of (a|b)*a
        # and a(a|b)*, where aaa and aba have two accepting paths.
        ends_a = nfa_from_dfa(dfa_from_regex("(a|b)*a"))
        starts_a = nfa_from_dfa(dfa_from_regex("a(a|b)*"))
        pad_e, pad_s = (0,) * starts_a.dim, (0,) * ends_a.dim
        union = Nfa(
            ("a", "b"),
            tuple(
                tuple(row + pad_e for row in me) + tuple(pad_s + row for row in ms)
                for me, ms in zip(ends_a.matrices, starts_a.matrices)
            ),
            ends_a.start + starts_a.start,
            ends_a.accept + starts_a.accept,
            2,
        )
        n = 3
        census = nfa_slice_census(union, n)
        assert census == 6
        shorter = sum(nfa_slice_census(union, m) for m in range(n))

        def by_rank(src):
            k = gen_uniform(src, census)
            word = FAIL if k is FAIL else nfa_unrank(union, shorter + k)
            return word, src.bits_consumed

        law_sampler = outcome_law(
            lambda src: (nfa_sample_slice(union, n, src), src.bits_consumed)
        )
        assert law_sampler == outcome_law(by_rank)

    def test_nfa_unrank_equals_dfa_unrank(self):
        automaton = dfa_from_regex("(a|b)*aa(a|b)*")
        lifted = nfa_from_dfa(automaton)
        shorter = 0
        for n in range(6):
            census = nfa_slice_census(lifted, n)
            for k in range(1, census + 1):
                assert nfa_unrank(lifted, shorter + k) == dfa_unrank(automaton, shorter + k)
            shorter += census


class TestCombinatorsOverAutomata:
    @pytest.mark.parametrize(
        "left, right", [("(a|b)*a", "a(a|b)*"), ("(ab)*", "(a|b)*"), ("ab|ba|aab", "b*")]
    )
    def test_census_equals_independent_sum(self, left, right):
        first, second = dfa_from_regex(left, "ab"), dfa_from_regex(right, "ab")
        count = {
            (a, n): sum(a.accepts(w) for w in words_of("ab", n))
            for a in (first, second)
            for n in range(9)
        }
        both = union(dfa_language(first), dfa_language(second))
        concat = product(dfa_language(first), dfa_language(second))
        for n in (3, 8, 5, 0):
            assert both.census(n) == count[first, n] + count[second, n]
            assert concat.census(n) == sum(
                count[first, k] * count[second, n - k] for k in range(n + 1)
            )

    def test_union_of_dfa_languages(self):
        ends_a = dfa_language(dfa_from_regex("(a|b)*a"))
        starts_a = dfa_language(dfa_from_regex("a(a|b)*"))
        desc = union(ends_a, starts_a)
        n = 2
        union_members = {
            w
            for w in words_of("ab", n)
            if ends_a.member(w) or starts_a.member(w)
        }
        law = outcome_law(lambda src: sample_report(desc, n, src, trials=1).value)
        good = 1 - law.get(FAIL, Fraction(0))
        for w in union_members:
            assert law[w] / good == Fraction(1, len(union_members))

    def test_union_census_estimate(self):
        ends_a = dfa_language(dfa_from_regex("(a|b)*a"))
        starts_a = dfa_language(dfa_from_regex("a(a|b)*"))
        desc = union(ends_a, starts_a)
        n = 4
        truth = sum(
            1
            for w in words_of("ab", n)
            if ends_a.member(w) or starts_a.member(w)
        )
        hits = 0
        for seed in range(40):
            est = estimate_census(desc, n, Fraction(1, 2), CoinSource(seed))
            if est is not FAIL and Fraction(truth, 2) <= est <= Fraction(3 * truth, 2):
                hits += 1
        assert hits / 40 > 0.75

    def test_product_of_dfa_languages_census(self):
        ab_star = dfa_language(dfa_from_regex("(ab)*"))
        all_words = dfa_language(dfa_from_regex("(a|b)*"))
        desc = product(ab_star, all_words)
        for n in range(6):
            convolution = sum(
                ab_star.census(k) * all_words.census(n - k) for k in range(n + 1)
            )
            assert desc.census(n) == convolution

    def test_product_multiplicity_counts_factorizations(self):
        ab_star = dfa_language(dfa_from_regex("(ab)*"))
        desc = product(ab_star, ab_star)
        # abab factors as eps*abab, ab*ab, abab*eps
        assert desc.ambiguity("abab") == 3


class TestAmplifiedDescriptions:
    def test_amplified_dfa_sampler_keeps_law(self):
        automaton = dfa_from_regex("(a|b)*aa(a|b)*")
        n = 3
        base = lambda src: dfa_sample(automaton, n, src, confidence=1)
        boosted = amplify_urg(base, Fraction(1, 2), Fraction(1, 16))
        base_law = outcome_law(base)
        boosted_law = outcome_law(boosted)
        base_good = 1 - base_law.get(FAIL, Fraction(0))
        boosted_good = 1 - boosted_law.get(FAIL, Fraction(0))
        assert boosted_law.get(FAIL, Fraction(0)) <= base_law.get(FAIL, Fraction(0))
        for w in words_of("ab", n):
            if automaton.accepts(w):
                assert base_law[w] / base_good == boosted_law[w] / boosted_good


class TestTraceOverRegularPipeline:
    def test_trace_sampler_law_matches_class_structure(self):
        # language {ab, ba, bb}: classes under a~b are [ab] = {ab, ba} and
        # [bb]; the trace sampler must weight them equally
        lang = dfa_from_regex("ab|ba|bb")
        alph = indep_alphabet("ab", [("a", "b")])
        desc = trace_description(lang, alph, Bound(const=2))
        law = outcome_law(lambda src: sample_report(desc, 2, src, trials=1).value)
        good = 1 - law.get(FAIL, Fraction(0))
        assert law["ab"] / good == Fraction(1, 2)
        assert law["bb"] / good == Fraction(1, 2)


class TestGrammarValidation:
    def test_duplicate_production_rejected(self):
        with pytest.raises(ValueError):
            CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S"), ("S", "S")]}, {"S": ["a"]})

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            CnfGrammar(("S",), ("a",), "S", {"S": [("S", "T")]}, {"S": ["a"]})
        with pytest.raises(ValueError):
            CnfGrammar(("S",), ("a",), "S", {}, {"S": ["b"]})

    def test_counts_survive_reordered_declarations(self):
        one = CnfGrammar(
            ("S", "A"), ("a", "b"), "S",
            {"S": [("A", "S"), ("A", "A")]}, {"S": ["a"], "A": ["a", "b"]},
        )
        two = CnfGrammar(
            ("S", "A"), ("a", "b"), "S",
            {"S": [("A", "A"), ("A", "S")]}, {"S": ["a"], "A": ["b", "a"]},
        )
        for n in range(1, 6):
            for w in words_of("ab", n):
                assert earley_count(one, w) == earley_count(two, w)
