"""The many-to-one carrier engine: sampling, estimation, combinators."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import countgen.describe as describe_module
from countgen.cfg import CnfGrammar, cfl_description
from countgen.coins import FAIL, CoinSource, TapeSource, bit_size, gen_uniform, lcm_upto, outcome_law
from countgen.dfa import dfa_from_regex, dfa_language
from countgen.describe import (
    Bound,
    Description,
    DnfFormula,
    WordLanguage,
    amplify_ras,
    amplify_urg,
    dnf_description,
    estimate_census,
    exact_count,
    product,
    sample_report,
    trial_budget,
    union,
    verify_description,
)
from countgen.exceptions import (
    AmbiguityExceeded,
    CeilingExceeded,
    EmptyLanguage,
    EmptySlice,
)
from countgen.pseudobool import load_clauses
from countgen.traces import indep_alphabet, trace_description


def load_dnf(text: str) -> DnfFormula:
    """Parse the clause format: first line ``n m``, then one clause per line."""
    n, clauses = load_clauses(text)
    return DnfFormula(n, tuple(clauses))


def finite_language(words) -> WordLanguage:
    """WordLanguage view of an explicit finite set of words."""
    by_size: dict = {}
    for w in words:
        by_size.setdefault(len(w), []).append(w)
    for group in by_size.values():
        group.sort()

    def census(n):
        return len(by_size.get(n, ()))

    def member(w):
        return w in by_size.get(len(w), ())

    def sample(n, src):
        slice_ = by_size.get(n, ())
        if not slice_:
            raise EmptySlice(f"no words of length {n}")
        r = gen_uniform(src, len(slice_))
        if r is FAIL:
            return FAIL
        return slice_[r - 1]

    def unrank(n, i):
        return by_size[n][i - 1]

    return WordLanguage(sample, member, census, unrank)


def two_copy_description(elements):
    """Carrier = two tagged copies of an explicit word set (every d = 2)."""
    tagged = sorted((tag, w) for w in elements for tag in ("A", "B"))
    by_size = {}
    for t in tagged:
        by_size.setdefault(len(t[1]), []).append(t)

    def sampler(n, src):
        slice_ = by_size[n]
        r = gen_uniform(src, len(slice_))
        if r is FAIL:
            return FAIL
        return slice_[r - 1]

    return Description(
        sampler=sampler,
        project=lambda t: t[1],
        ambiguity=lambda s: 2,
        bound=Bound(const=2),
        census=lambda n: len(by_size.get(n, ())),
    )


def identity_description(elements):
    lang = finite_language(elements)
    return Description(
        sampler=lang.sample,
        project=lambda t: t,
        ambiguity=lambda s: 1,
        bound=Bound(const=1),
        census=lang.census,
    )


class TestTrialBudget:
    def test_adurg_sizing(self):
        # smallest t with (4/3)(5/8)**t < 1/4
        assert trial_budget(Fraction(4, 3), Fraction(3, 8), 1, Fraction(1, 4)) == 4

    def test_immediate_success(self):
        assert trial_budget(1, Fraction(1, 2), 1, Fraction(3, 4)) == 1

    def test_logarithmic_growth_in_delta(self):
        base = trial_budget(1, Fraction(3, 8), 1, Fraction(1, 4))
        doubled = trial_budget(1, Fraction(3, 8), 1, Fraction(1, 8))
        assert doubled <= 2 * base

    def test_minimality(self):
        t = trial_budget(Fraction(4, 3), Fraction(3, 8), 1, Fraction(1, 4))
        base = 1 - Fraction(3, 8)
        assert Fraction(4, 3) * base**t < Fraction(1, 4)
        assert Fraction(4, 3) * base ** (t - 1) >= Fraction(1, 4)

    @given(
        st.fractions(min_value="1/8", max_value="4", max_denominator=16),
        st.fractions(min_value="1/16", max_value="7/8", max_denominator=16),
        st.fractions(min_value="1/64", max_value="1/2", max_denominator=64),
    )
    @settings(max_examples=40)
    def test_budget_is_smallest(self, alpha, beta, delta):
        t = trial_budget(alpha, beta, 1, delta)
        base = 1 - beta
        assert alpha * base**t < delta
        if t > 1:
            assert alpha * base ** (t - 1) >= delta

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=24)
    def test_lcm_acceptance_thresholds_are_integers(self, d_max):
        # the acceptance threshold m/d is integral for every multiplicity
        # d below the bound, because m = lcm{1..d_max}
        from countgen.coins import lcm_upto

        m = lcm_upto(d_max)
        for d in range(1, d_max + 1):
            assert m % d == 0


def reference_trial_budget(alpha, beta, epsilon, delta):
    """``trial_budget`` as it was before its float guess had a fallback."""
    alpha, beta, epsilon, delta = map(Fraction, (alpha, beta, epsilon, delta))
    base = 1 - beta * epsilon
    if alpha * base < delta:
        return 1
    guess = math.log(float(alpha / delta)) / -math.log(float(base))
    t = max(1, math.ceil(guess))
    if t <= 4096:
        while alpha * base**t >= delta:
            t += 1
        while t > 1 and alpha * base ** (t - 1) < delta:
            t -= 1
    return t


BUDGET_ALPHAS = [Fraction(1, 8), 1, Fraction(4, 3), Fraction(8, 3), 10**6, 10**400]
BUDGET_BETAS = [Fraction(1, 16), Fraction(3, 8), Fraction(27, 64), Fraction(3, 4), 1]
BUDGET_EPSILONS = [Fraction(1, 10**k) for k in (1, 2, 3, 6, 8, 12, 16, 20, 40, 400)] + [
    Fraction(1, 3 * 192 * 14) ** 2, Fraction(1, 2), Fraction(9, 10), Fraction(15, 16)]
BUDGET_DELTAS = [Fraction(3, 4), Fraction(1, 4), Fraction(1, 64), Fraction(1, 10**12), Fraction(1, 10**400)]


class TestTrialBudgetFallback:
    """Where a float overflows or rounds to 0 or 1 the guess falls back to
    integer logarithms; every budget the float guess gave stays."""

    def test_same_budgets_wherever_the_float_guess_held(self):
        kept = fell_back = 0
        for alpha in BUDGET_ALPHAS:
            for beta in BUDGET_BETAS:
                for epsilon in BUDGET_EPSILONS:
                    if epsilon >= 1 / beta:
                        continue
                    for delta in BUDGET_DELTAS:
                        t = trial_budget(alpha, beta, epsilon, delta)
                        assert type(t) is int and t >= 1
                        try:
                            expected = reference_trial_budget(alpha, beta, epsilon, delta)
                        except (ArithmeticError, ValueError):
                            fell_back += 1
                            continue
                        assert t == expected, (alpha, beta, epsilon, delta)
                        kept += 1
        assert kept > 1000 and fell_back > 100

    def test_base_rounding_to_one(self):
        # float(1 - 10**-20) is 1.0; -log(1 - x) is x to within 10**-20
        t = trial_budget(1, 1, Fraction(1, 10**20), Fraction(1, 4))
        assert abs(t - math.log(4) * 10**20) < 10**6

    def test_small_budgets_stay_exact_past_float_range(self):
        # alpha / delta = 10**400 overflows a float; both budgets are verified
        assert trial_budget(10**400, Fraction(1, 2), 1, 1) == 1329
        assert 2**1328 <= 10**400 < 2**1329
        # base 10**-350 rounds to 0.0: 10**400 * base**2 < 1 <= 10**400 * base
        assert trial_budget(10**400, 1, 1 - Fraction(1, 10**350), 1) == 2


class TestSampleDescribed:
    def test_two_copy_uniform_by_enumeration(self):
        desc = two_copy_description(["x", "y"])
        law = outcome_law(lambda src: sample_report(desc, 1, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["x"] / ok == Fraction(1, 2)
        assert law["y"] / ok == Fraction(1, 2)
        assert law.get(FAIL, Fraction(0)) <= Fraction(1, 4)

    def test_unambiguous_reduces_to_projection(self):
        desc = identity_description(["a", "b", "c"])
        law = outcome_law(lambda src: sample_report(desc, 1, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in ("a", "b", "c"):
            assert law[w] / ok == Fraction(1, 3)

    def test_empty_slice(self):
        desc = identity_description(["ab"])
        with pytest.raises(EmptySlice):
            sample_report(desc, 3, CoinSource(0))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        desc = two_copy_description(["x", "y"])
        with pytest.raises(ValueError, match="trials"):
            sample_report(desc, 1, CoinSource(0), trials=trials)

    def test_report_counts_trials_and_bits(self):
        desc = two_copy_description(["x", "y"])
        src = CoinSource(5)
        report = sample_report(desc, 1, src)
        assert report.value in ("x", "y", FAIL)
        assert 1 <= report.trials <= trial_budget(
            1, Fraction(3, 8), Fraction(1, 2), Fraction(1, 4)
        )
        assert report.bits == src.bits_consumed


def reference_sample_report(desc, n, src, trials=None):
    """The engine loop before ``draw_uniform`` drew its acceptance coin:
    ``bit_size(lcm)`` raw bits per coin, compared against lcm // d."""
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    if desc.census(n) == 0:
        raise EmptySlice(f"carrier census is 0 at size {n}")
    before = src.bits_consumed
    d_max = desc.bound(n)
    m = lcm_upto(d_max)
    width = bit_size(m)
    budget = trials if trials is not None else describe_module.trial_budget(
        1, Fraction(3, 8), Fraction(1, d_max), Fraction(1, 4)
    )
    for trial in range(1, budget + 1):
        t = desc.sampler(n, src)
        if t is FAIL:
            continue
        s = desc.project(t)
        d = describe_module._multiplicity(desc, s, d_max)
        r = src.draw(width) + 1
        if r <= m // d:
            return s, trial, src.bits_consumed - before
    return FAIL, budget, src.bits_consumed - before


def report_tuple(desc, n, src, trials=None):
    """``sample_report`` as the (value, trials, bits) the reference returns."""
    r = sample_report(desc, n, src, trials)
    return (r.value, r.trials, r.bits)


def rebuilt(obj, **changes):
    """A new record of ``obj``'s type: its fields, with ``changes`` applied."""
    fields = {name: getattr(obj, name) for name in type(obj).__match_args__}
    return type(obj)(**{**fields, **changes})


def reference_union(a, b):
    """``union(a, b)`` with the routing draw read as ``bit_size(total)``
    raw bits per round, over ``trial_budget(1, 3/8, 1, 1/4)`` rounds."""
    def sampler(n, src):
        total = a.census(n) + b.census(n)
        if total == 0:
            raise EmptySlice(f"both operands empty at size {n}")
        width = bit_size(total)
        left = a.census(n)
        for _ in range(trial_budget(1, Fraction(3, 8), 1, Fraction(1, 4))):
            r = src.draw(width) + 1
            if r <= left:
                return ("L", a.unrank(n, r))
            if r <= total:
                return ("R", b.unrank(n, r - left))
        return FAIL

    return rebuilt(union(a, b), sampler=sampler)


def reference_product(a, b):
    """``product(a, b)`` as a retry loop of ``gen_uniform`` rounds over
    the carrier census, ``trial_budget(1, 27/64, 1, 1/4)`` of them, with
    the split found by a running sum."""
    def sampler(n, src):
        split = [a.census(k) * b.census(n - k) for k in range(n + 1)]
        total = sum(split)
        if total == 0:
            raise EmptySlice(f"product slice empty at size {n}")
        for _ in range(trial_budget(1, Fraction(27, 64), 1, Fraction(1, 4))):
            r = gen_uniform(src, total)
            if r is FAIL:
                continue
            acc = 0
            for k, bucket in enumerate(split):
                if acc + bucket >= r:
                    break
                acc += bucket
            i, j = divmod(r - acc - 1, b.census(n - k))
            return (a.unrank(k, i + 1), b.unrank(n - k, j + 1))
        return FAIL

    return rebuilt(product(a, b), sampler=sampler)


class CountingSource:
    """A coin source that counts its ``draw`` calls."""

    def __init__(self, src):
        self.src = src
        self.calls = 0

    @property
    def bits_consumed(self):
        return self.src.bits_consumed

    def draw(self, k):
        self.calls += 1
        return self.src.draw(k)


def union_pairs():
    """(left, right, n) with forced routing (total census 1) and an empty
    side."""
    xy, yz = finite_language(["xa", "ya"]), finite_language(["ya", "za", "zb"])
    one, empty = finite_language(["q"]), finite_language([])
    return {
        "exact": (xy, yz, 2),
        "exact-forced": (one, empty, 1),
        "exact-left-empty": (empty, yz, 2),
    }


UNION_ROUTES = list(union_pairs())


def engine_descriptions():
    """(description, n) for the engine: forced acceptance (d_max = 1),
    lcm 2, 6 and 60, and unions."""
    pairs = union_pairs()
    return {
        "forced-d1": (identity_description(["a", "b", "c"]), 1),
        "two-copy": (two_copy_description(["x", "y", "z"]), 1),
        "dnf": (dnf_description(DnfFormula(3, ((1,), (1, 2), (2, 3)))), 3),
        "cfl": (cfl_description(CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]},
                                           {"S": ["a"]}), Bound(const=5)), 4),
        "union-exact": (union(*pairs["exact"][:2]), 2),
        "union-forced": (union(*pairs["exact-forced"][:2]), 1),
    }


ENGINE_NAMES = list(engine_descriptions())


class TestOneRejectionLoop:
    """The engine's acceptance coin and the union's routing draw through
    ``draw_uniform`` against the raw-bit loops they replaced."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("trials", [None, 1, 3])
    def test_sample_report_matches_reference(self, name, trials):
        desc, n = engine_descriptions()[name]
        for seed in range(150):
            src, plain = CoinSource(seed), CoinSource(seed)
            assert report_tuple(desc, n, src, trials) == reference_sample_report(
                desc, n, plain, trials
            )
            assert src.bits_consumed == plain.bits_consumed

    @pytest.mark.parametrize("name", ["forced-d1", "two-copy", "union-exact", "union-forced"])
    def test_sample_report_law_matches_reference(self, monkeypatch, name):
        # two union attempts keep the tape tree small enough to explore
        monkeypatch.setattr(describe_module, "trial_budget", lambda *args: 2)
        desc, n = engine_descriptions()[name]

        def law(sample):
            return outcome_law(lambda src: sample(desc, n, src, 2) + (src.bits_consumed,))

        assert law(report_tuple) == law(reference_sample_report)

    def test_forced_acceptance_makes_no_draw(self):
        # d_max = 1: lcm 1, so the coin is a forced choice; the carrier's
        # own draws are the only ones, with the same bits as before; only an
        # accepted carrier reaches the coin
        desc, n = engine_descriptions()["forced-d1"]
        retried = 0
        for seed in range(100):
            src, plain = CountingSource(CoinSource(seed)), CountingSource(CoinSource(seed))
            value, trials, bits = report_tuple(desc, n, src)
            assert (value, trials, bits) == reference_sample_report(desc, n, plain)
            assert plain.calls - src.calls == (value is not FAIL)
            retried += trials > 1
        assert retried

    @pytest.mark.parametrize("route", UNION_ROUTES)
    def test_union_sampler_matches_reference(self, route):
        a, b, n = union_pairs()[route]
        desc, ref = union(a, b), reference_union(a, b)
        for seed in range(300):
            src, plain = CoinSource(seed), CoinSource(seed)
            assert desc.sampler(n, src) == ref.sampler(n, plain)
            assert src.bits_consumed == plain.bits_consumed

    @pytest.mark.parametrize("route", UNION_ROUTES)
    def test_union_sampler_law_matches_reference(self, route):
        a, b, n = union_pairs()[route]
        desc, ref = union(a, b), reference_union(a, b)

        def law(sampler):
            return outcome_law(lambda src: (sampler(n, src), src.bits_consumed))

        got = law(desc.sampler)
        assert got == law(ref.sampler)
        assert any(out is not FAIL for out, _ in got)

    @pytest.mark.parametrize("route", ["exact-forced"])
    def test_forced_routing_makes_no_draw(self, route):
        a, b, n = union_pairs()[route]
        src = CountingSource(CoinSource(0))
        assert union(a, b).sampler(n, src) in (("L", "q"), ("R", "q"))
        assert src.calls == 0


# six DFA languages over {a, b}; empty slices and censuses from 0 to 256
RANK_ROUTE_REGEXES = ["(a|b)*", "(ab)*", "a(a|b)*", "(a|b)*a", "(aa|b)*", "(a|bb)*ba"]
COMBINATORS = {"union": (union, reference_union), "product": (product, reference_product)}


def outcome(run):
    """``run()``, or the name of the ``EmptySlice`` it raised."""
    try:
        return run()
    except EmptySlice:
        return "EmptySlice"


class TestRankRoute:
    """``union`` and ``product`` draw one rank and unrank it: the same
    words, trials and bits as the retry loops they replaced."""

    @pytest.mark.parametrize("name", COMBINATORS)
    def test_same_draws_as_reference_on_dfa_languages(self, name):
        combinator, reference = COMBINATORS[name]
        langs = [dfa_language(dfa_from_regex(r, alphabet="ab")) for r in RANK_ROUTE_REGEXES]
        fails = Counter()
        for a in langs:
            for b in langs:
                desc, ref = combinator(a, b), reference(a, b)
                for n in range(9):
                    for seed in range(40):
                        src, plain = CoinSource(seed), CoinSource(seed)
                        got = outcome(lambda: desc.sampler(n, src))
                        assert got == outcome(lambda: ref.sampler(n, plain))
                        assert src.bits_consumed == plain.bits_consumed
                        fails["sampler"] += got is FAIL
                        src, plain = CoinSource(seed), CoinSource(seed)
                        got = outcome(lambda: report_tuple(desc, n, src))
                        assert got == outcome(lambda: report_tuple(ref, n, plain))
                        assert src.bits_consumed == plain.bits_consumed
                        fails["report"] += got[0] is FAIL
        assert fails["sampler"] and fails["report"]

    @pytest.mark.parametrize("name", COMBINATORS)
    def test_no_operand_sampler_is_called(self, name):
        def refuse(n, src):
            raise AssertionError("operand sampler called")

        a, b = (rebuilt(finite_language(words), sample=refuse)
                for words in (["a", "ab"], ["b", "a", ""]))
        desc = COMBINATORS[name][0](a, b)
        for seed in range(20):
            value = desc.sampler(2, CoinSource(seed))
            assert value is FAIL or desc.ambiguity(desc.project(value)) >= 1


CEILING_CALLS = {
    "sample": lambda desc, src: sample_report(desc, 3, src),
    "estimate": lambda desc, src: estimate_census(desc, 3, Fraction(1, 2), src),
    "exact": lambda desc, src: exact_count(desc, 3, src),
}


class TestBoundCeiling:
    """A multiplicity bound above 2**13 is refused before any draw."""

    @pytest.mark.parametrize("call", CEILING_CALLS)
    @pytest.mark.parametrize("bound, message", [
        (Bound(const=8193), "multiplicity bound 8193 at size 3 above 8192"),
        (Bound(const=200000), "multiplicity bound 200000 at size 3 above 8192"),
        (Bound(1, 100000, 1), "multiplicity bound 1*n**100000+1 at size 3 above 8192"),
        (Bound(2, 10**18, -7), "multiplicity bound 2*n**1000000000000000000-7 at size 3 above 8192"),
    ])
    def test_refused_on_an_empty_tape(self, call, bound, message):
        desc = rebuilt(two_copy_description(["abc"]), bound=bound)
        src = TapeSource(())
        with pytest.raises(CeilingExceeded) as refused:
            CEILING_CALLS[call](desc, src)
        assert str(refused.value) == message
        assert src.bits_consumed == 0

    def test_bound_at_the_ceiling_draws_as_before(self):
        desc = rebuilt(two_copy_description(["x", "y"]), bound=Bound(const=8192))
        for seed in range(3):
            src, plain = CoinSource(seed), CoinSource(seed)
            assert report_tuple(desc, 1, src) == reference_sample_report(desc, 1, plain)
            assert src.bits_consumed == plain.bits_consumed

    def test_shortcut_refuses_only_values_past_the_ceiling(self):
        for coeff in range(4):
            for power in range(42):
                for const in (-10**6, -8192, -5, 0, 1, 7, 8000, 10**5):
                    bound = Bound(coeff, power, const)
                    for n in (0, 1, 2, 3, 5, 64, 1000):
                        value = coeff * n**power + const
                        try:
                            got = bound(n)
                        except CeilingExceeded:
                            assert value > 8192
                        except ValueError:
                            assert value < 1
                        else:
                            assert got == value >= 1

    @pytest.mark.parametrize("fields", [(-1, 1, 1), (1, -1, 1)])
    def test_negative_coeff_or_power_refused(self, fields):
        with pytest.raises(ValueError, match="coeff and power must be >= 0"):
            Bound(*fields)


class TestEstimateCensus:
    def test_unambiguous_is_constant(self):
        desc = identity_description(["a", "b", "c"])
        est = estimate_census(desc, 1, Fraction(1, 2), CoinSource(3))
        assert est == 3

    def test_two_copy_coverage(self):
        # |S_1| = 4, carrier census 8; estimate should land in
        # [C/2, 3C/2] in at least 3/4 of seeded runs
        desc = two_copy_description(["a", "b", "c", "d"])
        hits = 0
        runs = 1000
        for seed in range(runs):
            est = estimate_census(desc, 1, Fraction(1, 2), CoinSource(seed))
            assert est is not FAIL
            if Fraction(2) <= est <= Fraction(6):
                hits += 1
        assert hits / runs > 0.75

    def test_population_mean_identity(self):
        # exact mean of 1/d over the carrier equals C_S / C_T
        desc = two_copy_description(["u", "v", "w"])
        carrier = [("A", w) for w in "uvw"] + [("B", w) for w in "uvw"]
        mean = sum(
            Fraction(1, desc.ambiguity(desc.project(t))) for t in carrier
        ) / len(carrier)
        assert mean == Fraction(3, 6)


def reference_estimate(desc, n, epsilon, src):
    """The estimator loop without the multiplicity memo: one ``ambiguity``
    call and one Fraction addition per successful trial."""
    total = desc.census(n)
    budget = describe_module.trial_budget(
        Fraction(8, 3), Fraction(3, 4), (Fraction(epsilon) / desc.bound(n)) ** 2,
        Fraction(1, 4),
    )
    successes = 0
    acc = Fraction(0)
    for _ in range(budget):
        t = desc.sampler(n, src)
        if t is FAIL:
            continue
        successes += 1
        acc += Fraction(1, desc.ambiguity(desc.project(t)))
    if successes == 0:
        return FAIL
    return acc * total / successes


def counting(desc):
    """``desc`` with its carrier draws, ``project`` arguments (``projected``)
    and results (``drawn``), and ``ambiguity`` calls logged in order."""
    log = {"carriers": [], "projected": [], "drawn": [], "calls": []}

    def sampler(n, src):
        t = desc.sampler(n, src)
        if t is not FAIL:
            log["carriers"].append(t)
        return t

    def project(t):
        log["projected"].append(t)
        log["drawn"].append(desc.project(t))
        return log["drawn"][-1]

    def ambiguity(s):
        log["calls"].append(s)
        return desc.ambiguity(s)

    return rebuilt(desc, sampler=sampler, project=project, ambiguity=ambiguity), log


# (x1) or (x1 and x2): multiplicities 1 (10) and 2 (11)
RUNNING_DNF = DnfFormula(2, ((1,), (1, 2)))


def memo_descriptions():
    """(description, n) whose estimates draw repeated carriers and elements."""
    chain = indep_alphabet("abc", [("a", "b"), ("b", "c")])
    flagship = dfa_from_regex("(a*c)*(ab)*c(a*c)*", alphabet="abc")
    return {
        "dnf": (dnf_description(DnfFormula(4, ((1,), (1, 2), (-3,), (2, 4)))), 4),
        "union": (union(finite_language(["aa", "ab", "ba"]), finite_language(["ab", "bb"])), 2),
        "cfl": (cfl_description(
            CnfGrammar(("S",), ("a", "b"), "S", {"S": [("S", "S")]}, {"S": ["a", "b"]}),
            Bound(const=5)), 4),
        "trace": (trace_description(flagship, chain, Bound(coeff=1, power=1, const=1)), 5),
        "product": (product(finite_language(["", "a", "ab"]), finite_language(["", "b", "ab"])), 2),
    }


MEMO_NAMES = ["dnf", "union", "cfl", "trace", "product"]


class TestEstimateMemo:
    @pytest.mark.parametrize("name", MEMO_NAMES)
    def test_one_ambiguity_call_per_distinct_element(self, name):
        desc, n = memo_descriptions()[name]
        for seed in range(3):
            logged, log = counting(desc)
            est = estimate_census(logged, n, Fraction(1, 2), CoinSource(seed))
            assert est == reference_estimate(desc, n, Fraction(1, 2), CoinSource(seed))
            assert sorted(log["calls"]) == sorted(set(log["drawn"]))
            assert len(log["drawn"]) > len(log["calls"])

    @pytest.mark.parametrize("name", MEMO_NAMES)
    def test_one_project_call_per_distinct_carrier(self, name):
        desc, n = memo_descriptions()[name]
        for seed in range(3):
            logged, log = counting(desc)
            estimate_census(logged, n, Fraction(1, 2), CoinSource(seed))
            assert len(log["projected"]) == len(set(log["projected"]))
            assert set(log["projected"]) == set(log["carriers"])
            assert len(log["carriers"]) > len(log["projected"])

    @pytest.mark.parametrize("name", MEMO_NAMES)
    def test_same_value_and_bits_as_unmemoized_loop(self, name):
        desc, n = memo_descriptions()[name]
        for seed in range(20):
            memo, plain = CoinSource(seed), CoinSource(seed)
            assert estimate_census(desc, n, Fraction(1, 3), memo) == reference_estimate(
                desc, n, Fraction(1, 3), plain
            )
            assert memo.bits_consumed == plain.bits_consumed

    @pytest.mark.parametrize(
        "desc",
        [dnf_description(RUNNING_DNF), union(finite_language(["a", "b"]), finite_language(["b"]))],
        ids=["dnf", "union"],
    )
    def test_law_with_bits_equals_unmemoized_loop(self, monkeypatch, desc):
        # four trials keep the tape tree small enough to explore
        monkeypatch.setattr(describe_module, "trial_budget", lambda *args: 4)
        n = 2 if desc.census(2) else 1

        def law(estimate):
            def run(src):
                value = estimate(desc, n, Fraction(1, 2), src)
                return value, src.bits_consumed

            return outcome_law(run)

        memoized = law(estimate_census)
        assert memoized == law(reference_estimate)
        assert len({value for value, _ in memoized if value is not FAIL}) > 2

    def test_ambiguity_exceeded_at_first_element_over_bound(self):
        def ambiguity(s):
            if s == "c":
                raise AmbiguityExceeded(f"{s!r} over the bound")
            return 1

        desc = rebuilt(identity_description(["a", "b", "c"]), ambiguity=ambiguity)
        for seed in range(10):
            logged, log = counting(desc)
            drawn, calls = log["drawn"], log["calls"]
            src, plain = CoinSource(seed), CoinSource(seed)
            with pytest.raises(AmbiguityExceeded):
                estimate_census(logged, 1, Fraction(1, 2), src)
            with pytest.raises(AmbiguityExceeded):
                reference_estimate(desc, 1, Fraction(1, 2), plain)
            assert src.bits_consumed == plain.bits_consumed
            assert drawn[-1] == calls[-1] == "c"
            assert "c" not in drawn[:-1]

    @pytest.mark.parametrize(
        "desc, n",
        [
            (dnf_description(RUNNING_DNF), 2),
            (union(finite_language(["a", "b"]), finite_language(["b"])), 1),
            (cfl_description(CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]},
                                        {"S": ["a"]}), Bound(const=2)), 3),
        ],
        ids=["dnf", "union", "cfl"],
    )
    def test_exact_count_unchanged(self, desc, n):
        total = desc.census(n)
        for seed in range(5):
            src, plain = CoinSource(seed), CoinSource(seed)
            expected = reference_estimate(desc, n, Fraction(1, 3 * total), plain)
            assert exact_count(desc, n, src) == int(expected + Fraction(1, 2))
            assert src.bits_consumed == plain.bits_consumed


class TestExactCount:
    def test_unambiguous_deterministic(self):
        desc = identity_description(["a", "b", "c"])
        assert exact_count(desc, 1, CoinSource(0)) == 3

    def test_ceiling_guard(self):
        desc = identity_description([f"{i:04d}" for i in range(600)])
        with pytest.raises(CeilingExceeded):
            exact_count(desc, 4, CoinSource(0), ceiling=512)

    @pytest.mark.parametrize("ceiling", [0, -1])
    def test_ceiling_below_one_refused(self, ceiling):
        desc = identity_description(["a", "b", "c"])
        src = TapeSource(())
        with pytest.raises(ValueError, match="^ceiling must be >= 1$"):
            exact_count(desc, 1, src, ceiling=ceiling)
        assert src.bits_consumed == 0

    def test_budget_past_the_trial_ceiling_refused_before_a_draw(self):
        # census 300 is under the census ceiling, but epsilon 1/900 plans
        # about 2.6M carrier draws
        desc = identity_description([f"{i:03d}" for i in range(300)])
        src = TapeSource(())
        with pytest.raises(CeilingExceeded, match=r"^estimate at epsilon 1/900 and "
                           r"bound 1 plans \d+ carrier draws, above 1048576$"):
            exact_count(desc, 3, src)
        assert src.bits_consumed == 0

    def test_trial_ceiling_bounds_the_planned_budget(self, monkeypatch):
        desc = identity_description(["a", "b", "c"])
        epsilon = Fraction(1, 2)
        budget = trial_budget(Fraction(8, 3), Fraction(3, 4), epsilon**2, Fraction(1, 4))
        monkeypatch.setattr(describe_module, "_TRIAL_CEILING", budget)
        assert estimate_census(desc, 1, epsilon, CoinSource(0)) == 3
        monkeypatch.setattr(describe_module, "_TRIAL_CEILING", budget - 1)
        src = TapeSource(())
        with pytest.raises(CeilingExceeded, match=f"plans {budget} carrier draws, above {budget - 1}$"):
            estimate_census(desc, 1, epsilon, src)
        assert src.bits_consumed == 0

    def test_two_copy_count(self):
        desc = two_copy_description(["p", "q"])
        hits = sum(
            exact_count(desc, 1, CoinSource(seed)) == 2 for seed in range(60)
        )
        assert hits / 60 > 0.75


ENGINE_CALLS = {
    "estimate": lambda desc, src: estimate_census(desc, 1, Fraction(1, 2), src),
    "exact": lambda desc, src: exact_count(desc, 1, src),
    "sample": lambda desc, src: sample_report(desc, 1, src),
}


class TestMultiplicityCheck:
    """The engine, not the description, enforces 1 <= multiplicity <= bound."""

    @pytest.mark.parametrize("call", ENGINE_CALLS)
    def test_zero_multiplicity_refused(self, call):
        desc = rebuilt(identity_description(["a", "b"]), ambiguity=lambda s: 0)
        with pytest.raises(ValueError, match="has multiplicity 0, bound 1"):
            ENGINE_CALLS[call](desc, CoinSource(0))

    @pytest.mark.parametrize("call", ENGINE_CALLS)
    def test_multiplicity_above_bound_refused(self, call):
        desc = rebuilt(identity_description(["a", "b"]), ambiguity=lambda s: 5)
        with pytest.raises(AmbiguityExceeded, match="has multiplicity 5, bound 1"):
            ENGINE_CALLS[call](desc, CoinSource(0))

    def test_bound_is_read_at_the_slice_size(self):
        # bound n + 1 admits multiplicity 3 at size 2, not at size 1
        desc = rebuilt(
            two_copy_description(["x", "yz"]), ambiguity=lambda s: 3, bound=Bound(1, 1, 1)
        )
        assert sample_report(desc, 2, CoinSource(0)).value in ("yz", FAIL)
        with pytest.raises(AmbiguityExceeded, match="'x' has multiplicity 3, bound 2"):
            sample_report(desc, 1, CoinSource(0))

    def test_combinators_return_raw_counts(self):
        left, right = finite_language(["a", "ab"]), finite_language(["b", "ab"])
        assert union(left, right).ambiguity("z") == 0
        assert union(left, right).ambiguity("ab") == 2
        assert product(left, right).ambiguity("zz") == 0
        assert dnf_description(RUNNING_DNF).ambiguity("01") == 0


class TestUnion:
    def test_word_language_needs_census(self):
        lang = finite_language(["a"])
        with pytest.raises(TypeError, match="census"):
            WordLanguage(lang.sample, lang.member)
        with pytest.raises(TypeError, match="unrank"):
            WordLanguage(lang.sample, lang.member, lang.census)

    def test_disjoint_union_uniform(self):
        a = finite_language(["aa", "ab"])
        b = finite_language(["bb", "ba"])
        desc = union(a, b)
        law = outcome_law(lambda src: sample_report(desc, 2, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in ("aa", "ab", "bb", "ba"):
            assert law[w] / ok == Fraction(1, 4)

    def test_same_language_twice(self):
        a = finite_language(["x", "y"])
        desc = union(a, a)
        assert desc.ambiguity("x") == 2
        # the conditional law is invariant in the retry budget, so a
        # two-trial enumeration already shows exact uniformity
        law = outcome_law(lambda src: sample_report(desc, 1, src, trials=2).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["x"] / ok == Fraction(1, 2)
        assert law["y"] / ok == Fraction(1, 2)

    def test_degenerate_left_empty(self):
        a = finite_language([])
        b = finite_language(["z"])
        desc = union(a, b)
        law = outcome_law(lambda src: sample_report(desc, 1, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["z"] / ok == 1

    def test_union_census_identity(self):
        a = finite_language(["aa", "ab"])
        b = finite_language(["bb"])
        assert union(a, b).census(2) == 3

    def test_verify_reads_a_carrier_generator_once(self):
        desc = union(finite_language(["a", "b"]), finite_language(["b"]))
        carrier = [("L", "a"), ("L", "b"), ("R", "b")]
        verify_description(desc, 1, carrier)
        verify_description(desc, 1, (t for t in carrier))
        wrong_census = rebuilt(desc, census=lambda n: 4)
        for given_slice in (carrier, (t for t in carrier)):
            with pytest.raises(AssertionError, match="census mismatch"):
                verify_description(wrong_census, 1, given_slice)

    def test_unrank_route_is_exact_and_thrifty(self):
        a = finite_language(["aa", "ab"])
        b = finite_language(["ba", "bb"])
        desc = union(a, b)
        law = outcome_law(lambda src: sample_report(desc, 2, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in ("aa", "ab", "ba", "bb"):
            assert law[w] / ok == Fraction(1, 4)


class TestProduct:
    def test_singleton_product(self):
        desc = product(finite_language(["a"]), finite_language(["b"]))
        assert desc.census(2) == 1
        assert desc.ambiguity("ab") == 1
        law = outcome_law(lambda src: sample_report(desc, 2, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["ab"] / ok == 1

    def test_two_by_two_unambiguous(self):
        lang = finite_language(["a", "b"])
        desc = product(lang, lang)
        assert desc.census(2) == 4
        for w in ("aa", "ab", "ba", "bb"):
            assert desc.ambiguity(w) == 1

    def test_double_factorization(self):
        desc = product(finite_language(["ab", "a"]), finite_language(["b", "bb"]))
        assert desc.ambiguity("abb") == 2
        # enumeration: carrier slice at 3 is {(ab,b), (a,bb)}, both map to abb
        verify_description(desc, 3, [("ab", "b"), ("a", "bb")])

    def test_graded_product_census_convolution(self):
        a = finite_language(["a", "aa", "ba"])
        b = finite_language(["b", "ab"])
        desc = product(a, b)
        for n in range(1, 5):
            expected = sum(a.census(k) * b.census(n - k) for k in range(n + 1))
            assert desc.census(n) == expected

    def test_graded_sampler_uniform(self):
        # "abb" factors twice; the carrier slice at 3 is {(ab,b), (a,bb)}
        # and both project to the single word of the slice
        desc = product(finite_language(["ab", "a"]), finite_language(["b", "bb"]))
        for trials in (1, 2):
            law = outcome_law(lambda src: sample_report(desc, 3, src, trials=trials).value)
            ok = 1 - law.get(FAIL, Fraction(0))
            assert set(law) - {FAIL} == {"abb"}
            assert law["abb"] / ok == 1

    def test_graded_sampler_uniform_two_words(self):
        # carrier slice at 2: (a,b), (a,a), (ab,"") -- so ab is covered
        # twice, aa once, and the output law must still be uniform
        desc = product(finite_language(["a", "ab"]), finite_language(["b", "a", ""]))
        assert desc.census(2) == 3
        assert desc.ambiguity("ab") == 2
        assert desc.ambiguity("aa") == 1
        verify_description(desc, 2, [("a", "b"), ("a", "a"), ("ab", "")])
        law = outcome_law(lambda src: sample_report(desc, 2, src, trials=1).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["ab"] / ok == Fraction(1, 2)
        assert law["aa"] / ok == Fraction(1, 2)


class TestAmplify:
    def test_never_failing_base_unchanged(self):
        wrapped = amplify_urg(lambda: "v", Fraction(1, 2), Fraction(1, 4))
        assert wrapped() == "v"

    def test_half_to_quarter_uses_two_attempts(self):
        calls = []

        def base(src):
            calls.append(1)
            return FAIL if src.draw(1) else "ok"

        wrapped = amplify_urg(base, Fraction(1, 2), Fraction(1, 4))
        assert wrapped.attempts == 2
        law = outcome_law(wrapped)
        assert law[FAIL] == Fraction(1, 4)

    def test_conditional_law_preserved(self):
        def base(src):
            u = src.draw(2)
            if u == 3:
                return FAIL
            return "xyz"[u]

        wrapped = amplify_urg(base, Fraction(1, 4) + Fraction(1, 100), Fraction(1, 16))
        base_law = outcome_law(base)
        amp_law = outcome_law(wrapped)
        base_ok = 1 - base_law[FAIL]
        amp_ok = 1 - amp_law[FAIL]
        for v in "xyz":
            assert base_law[v] / base_ok == amp_law[v] / amp_ok

    def test_median_of_repeats(self):
        # advantage 49/100 at target 3/4 sizes the loop to exactly 3 repeats
        feed = iter([10, 12, 50])
        est = amplify_ras(lambda: next(feed), Fraction(49, 100), Fraction(3, 4))
        assert est.repeats == 3
        assert est() == 12

    def test_all_repeats_equal(self):
        est = amplify_ras(lambda: Fraction(7), Fraction(1, 4), Fraction(1, 4))
        assert est() == 7

    def test_weak_estimator_boosted(self):
        # per-run correctness 3/5 with errors split across both sides; the
        # median of 25 repeats is wrong only when one side collects 13 of
        # 25, and that binomial tail is far below 0.05
        def estimator(src):
            r = gen_uniform(src, 5, Fraction(1, 64))
            if r is FAIL or r <= 3:
                return 100
            return 50 if r == 4 else 150

        correct = 0
        runs = 400
        for seed in range(runs):
            src = CoinSource(seed)
            results = [estimator(src) for _ in range(25)]
            if sorted(results)[len(results) // 2] == 100:
                correct += 1
        assert correct / runs >= 0.95


class TestDnf:
    def test_formula_validation(self):
        with pytest.raises(ValueError):
            DnfFormula(2, ((),))
        with pytest.raises(ValueError):
            DnfFormula(2, ((1, -1),))
        with pytest.raises(ValueError):
            DnfFormula(2, ((3,),))

    def test_no_clauses(self):
        with pytest.raises(EmptyLanguage):
            dnf_description(DnfFormula(2, ()))

    def test_single_clause(self):
        desc = dnf_description(DnfFormula(2, ((1, 2),)))
        assert desc.census(2) == 1
        law = outcome_law(lambda src: sample_report(desc, 2, src).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["11"] / ok == 1

    def test_running_example_uniform(self):
        # (x1) or (x1 and x2): carrier has 3 elements, outputs 10 and 11
        formula = DnfFormula(2, ((1,), (1, 2)))
        desc = dnf_description(formula)
        assert desc.census(2) == 3
        assert desc.ambiguity("11") == 2
        assert desc.ambiguity("10") == 1
        carrier = [(0, "10"), (0, "11"), (1, "11")]
        verify_description(desc, 2, carrier)
        for trials in (1, 2):
            law = outcome_law(lambda src: sample_report(desc, 2, src, trials=trials).value)
            ok = 1 - law.get(FAIL, Fraction(0))
            assert law["10"] / ok == Fraction(1, 2)
            assert law["11"] / ok == Fraction(1, 2)

    def test_running_example_failure_rate(self):
        formula = DnfFormula(2, ((1,), (1, 2)))
        desc = dnf_description(formula)
        fails = sum(
            sample_report(desc, 2, CoinSource(seed)).value is FAIL
            for seed in range(2000)
        )
        assert fails / 2000 <= 0.25

    def test_tautology_two_clauses(self):
        formula = DnfFormula(1, ((1,), (-1,)))
        desc = dnf_description(formula)
        assert desc.ambiguity("0") == 1
        assert desc.ambiguity("1") == 1
        law = outcome_law(lambda src: sample_report(desc, 1, src, trials=2).value)
        ok = 1 - law.get(FAIL, Fraction(0))
        assert law["0"] / ok == Fraction(1, 2)
        assert law["1"] / ok == Fraction(1, 2)

    def test_estimator_concentrates(self):
        formula = DnfFormula(2, ((1,), (1, 2)))
        desc = dnf_description(formula)
        est = estimate_census(desc, 2, Fraction(1, 4), CoinSource(11))
        assert Fraction(3, 2) <= est <= Fraction(5, 2)

    def test_exact_count_is_two(self):
        formula = DnfFormula(2, ((1,), (1, 2)))
        desc = dnf_description(formula)
        assert exact_count(desc, 2, CoinSource(17)) == 2

    def test_loader(self):
        formula = load_dnf("2 2\n1\n1 2\n")
        assert formula.n == 2
        assert formula.clauses == ((1,), (1, 2))
        assert load_dnf("# x1 or x1x2\n2 2\n1 # x1\n1 2\n") == formula
