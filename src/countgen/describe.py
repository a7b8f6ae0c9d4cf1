"""Sampling and counting for structures reached through a many-to-one carrier.

A target structure S is handled through a carrier T, a size-preserving
surjection of T onto S, and the multiplicity with which each element of S
is covered.  Rejection against the multiplicity turns a uniform sampler
for T into a uniform sampler for S; averaging reciprocal multiplicities
turns the census of T into an estimator for the census of S, and rounding
a sharp enough estimate recovers the exact count.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from ._record import record
from .coins import FAIL, draw_uniform, gen_uniform, lcm_upto
from .exceptions import (
    AmbiguityExceeded,
    CeilingExceeded,
    EmptyLanguage,
    EmptySlice,
)

# Budgets up to this size are verified exactly; a larger one is the
# float guess, unverified (ROADMAP item 9).
_EXACT_BUDGET_LIMIT = 4096
# Most carrier draws one estimate may plan.
_TRIAL_CEILING = 1 << 20
# Largest multiplicity bound the engine accepts: the acceptance coin is
# drawn over lcm{1..bound(n)}, which at 2**13 already has 11,797 bits.
_BOUND_CEILING = 1 << 13


@lru_cache(maxsize=None)
def trial_budget(alpha, beta, epsilon, delta) -> int:
    """Smallest t >= 1 with alpha * (1 - beta*epsilon)**t < delta.

    Sizes the engine's retry loops and the repeats of ``amplify_ras``:
    alpha is the slack factor in front of the per-trial bound,
    beta*epsilon the per-trial success mass, delta the failure
    probability the loop must get under.
    """
    alpha, beta, epsilon, delta = map(Fraction, (alpha, beta, epsilon, delta))
    if alpha <= 0 or beta <= 0 or delta <= 0:
        raise ValueError("alpha, beta, delta must be positive")
    if not 0 < epsilon < 1 / beta:
        raise ValueError("epsilon must lie in (0, 1/beta)")
    base = 1 - beta * epsilon
    if alpha * base < delta:
        return 1
    ratio = alpha / delta
    try:
        guess = math.log(float(ratio)) / -math.log(float(base))
    except (ArithmeticError, ValueError):  # a float overflowed or hit 0 or 1
        log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
        log_base = math.log(base.denominator) - math.log(base.numerator)
        guess = Fraction(log_ratio) / max(1 - base, Fraction(log_base))  # -log(base) >= 1 - base
    t = max(1, math.ceil(guess))
    if t <= _EXACT_BUDGET_LIMIT:
        while alpha * base**t >= delta:
            t += 1
        while t > 1 and alpha * base ** (t - 1) < delta:
            t -= 1
    return t


@record
class Bound:
    """Polynomial multiplicity bound n -> coeff * n**power + const."""

    coeff: int = 0
    power: int = 0
    const: int = 1

    def __post_init__(self):
        if self.coeff < 0 or self.power < 0:
            raise ValueError("multiplicity bound coeff and power must be >= 0")

    def __call__(self, n: int) -> int:
        # n**power >= 2**((bit_length(n) - 1) * power): two bits past the
        # ceiling and |const| put the value over the ceiling, uncomputed
        if self.coeff and (n.bit_length() - 1) * self.power > max(
                abs(self.const), _BOUND_CEILING).bit_length() + 1:
            raise CeilingExceeded(f"multiplicity bound {self.coeff}*n**{self.power}"
                                  f"{self.const:+d} at size {n} above {_BOUND_CEILING}")
        value = self.coeff * n**self.power + self.const
        if value < 1:
            raise ValueError("multiplicity bound must be >= 1")
        return value


@record
class Description:
    """Carrier T with projection onto the structure S being sampled.

    ``sampler(n, src)`` must be uniform on the size-n carrier slice when it
    does not FAIL and must FAIL with probability below 1/4.  ``ambiguity``
    returns, for an element of S, the raw number of carrier elements
    projecting onto it; the engine enforces 1 <= count <= ``bound(n)``,
    raising ValueError on 0 and AmbiguityExceeded above the bound.
    ``project`` and ``ambiguity`` must be pure functions, and carrier and
    projected elements must be hashable: an estimate projects each
    distinct carrier element it draws once, and calls ``ambiguity`` once
    per distinct projected element.  ``census(n)`` is the size of the
    carrier slice at n.
    """

    sampler: Callable
    project: Callable
    ambiguity: Callable
    bound: Bound
    census: Callable


@record
class SampleReport:
    value: object
    trials: int
    bits: int


def _bound_at(desc: Description, n: int) -> int:
    """``desc.bound(n)``, refused above ``_BOUND_CEILING``."""
    d_max = desc.bound(n)
    if d_max > _BOUND_CEILING:
        raise CeilingExceeded(f"multiplicity bound {d_max} at size {n} above {_BOUND_CEILING}")
    return d_max


def _multiplicity(desc: Description, s, d_max: int) -> int:
    """``desc.ambiguity(s)``, refused unless 1 <= count <= d_max."""
    d = desc.ambiguity(s)
    if d < 1:
        raise ValueError(f"{s!r} has multiplicity {d}, bound {d_max}")
    if d > d_max:
        raise AmbiguityExceeded(f"{s!r} has multiplicity {d}, bound {d_max}")
    return d


def sample_report(desc: Description, n: int, src, trials=None) -> SampleReport:
    """Uniform element of the described structure at size n, or FAIL, with
    the trials and bits it used.

    A carrier draw t is kept with probability proportional to
    1/ambiguity(project(t)), which exactly flattens the multiplicity: the
    acceptance coin is one ``draw_uniform`` over lcm{1..bound(n)}, kept
    at or below that lcm divided by the multiplicity; a bound(n) above
    ``_BOUND_CEILING`` (2**13) is refused before any draw.  ``trials``
    overrides the computed retry budget; the conditional output law does
    not depend on it.  A FAIL reports the whole budget as its trials.
    """
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    if desc.census(n) == 0:
        raise EmptySlice(f"carrier census is 0 at size {n}")
    before = src.bits_consumed
    d_max = _bound_at(desc, n)
    m = lcm_upto(d_max)
    budget = trials if trials is not None else trial_budget(
        1, Fraction(3, 8), Fraction(1, d_max), Fraction(1, 4)
    )
    for trial in range(1, budget + 1):
        t = desc.sampler(n, src)
        if t is FAIL:
            continue
        s = desc.project(t)
        d = _multiplicity(desc, s, d_max)
        r = draw_uniform(src, m, 1)
        if r is not FAIL and r <= m // d:
            return SampleReport(s, trial, src.bits_consumed - before)
    return SampleReport(FAIL, budget, src.bits_consumed - before)


def estimate_census(desc: Description, n: int, epsilon, src):
    """Estimate of the structure census at size n within (1 +- epsilon).

    Averages 1/ambiguity over carrier draws and scales by the carrier
    census; the relative error is within epsilon with probability above
    3/4 conditioned on not failing, and the failure probability is below
    1/4.  Each distinct carrier element drawn costs one ``project`` call
    and each distinct projected element one ``ambiguity`` call, checked
    against the bound like a sampler's.  A bound above ``_BOUND_CEILING``
    or a trial budget above ``_TRIAL_CEILING`` draws is refused before
    the first draw.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")
    total = desc.census(n)
    if total == 0:
        raise EmptySlice(f"carrier census is 0 at size {n}")
    d_max = _bound_at(desc, n)
    budget = trial_budget(
        Fraction(8, 3), Fraction(3, 4), (epsilon / d_max) ** 2, Fraction(1, 4)
    )
    if budget > _TRIAL_CEILING:
        raise CeilingExceeded(f"estimate at epsilon {epsilon} and bound {d_max} plans "
                              f"{budget} carrier draws, above {_TRIAL_CEILING}")
    # for this call only: projected element -> ambiguity, and carrier
    # element -> the ambiguity of its projection
    multiplicity = {}
    by_carrier = {}
    hits = Counter()  # multiplicity d -> successful trials that drew it
    for _ in range(budget):
        t = desc.sampler(n, src)
        if t is FAIL:
            continue
        d = by_carrier.get(t)
        if d is None:
            s = desc.project(t)
            if s not in multiplicity:
                multiplicity[s] = _multiplicity(desc, s, d_max)
            d = by_carrier[t] = multiplicity[s]
        hits[d] += 1
    if not hits:
        return FAIL
    # sum of 1/d over successes, over the common denominator lcm(d)
    common = math.lcm(*hits)
    weight = sum(count * (common // d) for d, count in hits.items())
    return Fraction(weight * total, common * hits.total())


def exact_count(desc: Description, n: int, src, ceiling: int = 512):
    """Exact structure census at size n, correct with probability > 3/4.

    Runs the estimator at tolerance 1/(3 * carrier census) and rounds.
    Refused when the carrier census exceeds ``ceiling``, or when the
    estimator's trial budget, which grows with the square of the census
    and of the bound, is past its own ceiling.  At bound 1 census 192
    plans 1,047,139 draws and census 193 plans 1,058,075, above 2**20,
    so ``ceiling`` decides only when it is below 193.  A ceiling below 1
    is refused.
    """
    if ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    total = desc.census(n)
    if total == 0:
        raise EmptySlice(f"carrier census is 0 at size {n}")
    if total > ceiling:
        raise CeilingExceeded(f"carrier census {total} above ceiling {ceiling}")
    estimate = estimate_census(desc, n, Fraction(1, 3 * total), src)
    if estimate is FAIL:
        return FAIL
    return int(estimate + Fraction(1, 2))


def amplify_urg(sampler: Callable, delta, delta_target) -> Callable:
    """Wrap a sampler failing with probability < delta so it fails < delta_target.

    Retries independent attempts and returns the first success, which
    leaves the conditional output law unchanged.
    """
    delta = Fraction(delta)
    delta_target = Fraction(delta_target)
    if not (0 < delta < 1 and 0 < delta_target < 1):
        raise ValueError("failure probabilities must lie in (0,1)")
    attempts = 1
    power = delta
    while power > delta_target:
        power *= delta
        attempts += 1

    def amplified(*args):
        for _ in range(attempts):
            value = sampler(*args)
            if value is not FAIL:
                return value
        return FAIL

    amplified.attempts = attempts
    return amplified


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def amplify_ras(estimator: Callable, advantage, delta_target) -> Callable:
    """Boost an estimator correct with probability 1/2 + advantage.

    Repeats the estimator and returns the median of the non-FAIL results;
    the median is correct with probability at least 1 - delta_target.
    """
    advantage = Fraction(advantage)
    delta_target = Fraction(delta_target)
    if not 0 < advantage < Fraction(1, 2):
        raise ValueError("advantage must lie in (0, 1/2)")
    repeats = trial_budget(
        Fraction(4, 3), Fraction(3, 4), advantage**2, delta_target
    )

    def amplified(*args):
        results = []
        for _ in range(repeats):
            value = estimator(*args)
            if value is not FAIL:
                results.append(value)
        if not results:
            return FAIL
        return _median(results)

    amplified.repeats = repeats
    return amplified


# ---------------------------------------------------------------------------
# Word languages and their union / product combinators.


@record
class WordLanguage:
    """A word language: slice sampler, membership, census and unranking.

    ``unrank(n, i)`` is the i-th word of the size-n slice (1-based,
    lexicographic); the combinators draw one uniform rank and unrank it.
    """

    sample: Callable  # (n, src) -> word | FAIL
    member: Callable  # word -> bool
    census: Callable  # n -> int, n >= 0
    unrank: Callable  # (n, i) -> word


def union(a: WordLanguage, b: WordLanguage) -> Description:
    """Description of the union of two word languages.

    The carrier is the tagged disjoint union; a word is covered once per
    operand containing it, so multiplicities are 1 or 2.  The sampler
    draws one rank up to the total census (FAIL below 1/8) and unranks
    it on the left up to the left census, on the right past it.
    """
    def census(n):
        return a.census(n) + b.census(n)

    def sampler(n, src):
        total = census(n)
        if total == 0:
            raise EmptySlice(f"both operands empty at size {n}")
        left = a.census(n)
        r = gen_uniform(src, total, Fraction(1, 8))
        if r is FAIL:
            return FAIL
        return ("L", a.unrank(n, r)) if r <= left else ("R", b.unrank(n, r - left))

    def ambiguity(w):
        return int(a.member(w)) + int(b.member(w))

    return Description(
        sampler=sampler,
        project=lambda t: t[1],
        ambiguity=ambiguity,
        bound=Bound(const=2),
        census=census,
    )


def product(a: WordLanguage, b: WordLanguage) -> Description:
    """Description of the concatenation language, graded over split points.

    The carrier holds every pair (s, t) with |s| + |t| = n; a word is
    covered once per factorization, so multiplicities are at most n + 1.
    The sampler draws one rank up to the carrier census (FAIL below
    1/64), finds the split k holding it, and unranks both halves from
    its quotient and remainder by b.census(n - k) within that split.
    """
    def buckets(n):
        return [a.census(k) * b.census(n - k) for k in range(n + 1)]

    def sampler(n, src):
        split = buckets(n)
        total = sum(split)
        if total == 0:
            raise EmptySlice(f"product slice empty at size {n}")
        r = gen_uniform(src, total, Fraction(1, 64))
        if r is FAIL:
            return FAIL
        for k, bucket in enumerate(split):
            if r <= bucket:
                break
            r -= bucket
        i, j = divmod(r - 1, b.census(n - k))
        return (a.unrank(k, i + 1), b.unrank(n - k, j + 1))

    def ambiguity(w):
        return sum(1 for k in range(len(w) + 1) if a.member(w[:k]) and b.member(w[k:]))

    return Description(
        sampler=sampler,
        project=lambda pair: pair[0] + pair[1],
        ambiguity=ambiguity,
        bound=Bound(coeff=1, power=1, const=1),
        census=lambda n: sum(buckets(n)),
    )


def verify_description(desc: Description, n: int, carrier_slice) -> None:
    """Cross-check a description against an explicit carrier slice.

    Exhaustively verifies size preservation, the multiplicity counts, the
    declared bound and the census at size n.  Intended for small n.
    """
    counts: dict = {}
    for t in carrier_slice:
        s = desc.project(t)
        counts[s] = counts.get(s, 0) + 1
    d_max = desc.bound(n)
    for s, count in counts.items():
        declared = desc.ambiguity(s)
        if declared != count:
            raise AssertionError(
                f"ambiguity({s!r}) = {declared}, carrier covers it {count} times"
            )
        if count > d_max:
            raise AssertionError(f"multiplicity {count} exceeds bound {d_max}")
    if desc.census(n) != sum(counts.values()):
        raise AssertionError("carrier census mismatch")


# ---------------------------------------------------------------------------
# Disjunctive normal form: the standard example of an ambiguous carrier.


@record
class DnfFormula:
    """DNF over n boolean variables; clauses are tuples of signed 1-based indices."""

    n: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must be non-empty")
            seen = set()
            for lit in clause:
                v = abs(lit)
                if lit == 0 or v > self.n:
                    raise ValueError(f"literal {lit} out of range")
                if -lit in seen:
                    raise ValueError(f"variable {v} appears with both signs")
                seen.add(lit)

    def satisfies(self, assignment: str, j: int) -> bool:
        clause = self.clauses[j]
        return all(
            (assignment[abs(lit) - 1] == "1") == (lit > 0) for lit in clause
        )

    def clause_weight(self, j: int) -> int:
        return 1 << (self.n - len(self.clauses[j]))


def dnf_description(formula: DnfFormula) -> Description:
    """Description of the satisfying assignments of a DNF.

    The carrier pairs each clause with an assignment satisfying it; an
    assignment is covered once per clause it satisfies.  The carrier
    census is the sum of 2**(n - |clause|) over clauses, and the carrier
    sampler picks a clause weighted by that count and fills the free
    variables with fresh bits.
    """
    if not formula.clauses:
        raise EmptyLanguage("DNF has no clauses")
    n = formula.n
    m = len(formula.clauses)
    weights = [formula.clause_weight(j) for j in range(m)]
    total = sum(weights)

    def census(size):
        return total if size == n else 0

    def sampler(size, src):
        if size != n:
            raise EmptySlice(f"assignments have size {n}, not {size}")
        r = gen_uniform(src, total)
        if r is FAIL:
            return FAIL
        acc = 0
        for j, w in enumerate(weights):
            acc += w
            if acc >= r:
                break
        fixed = {abs(lit) - 1: "1" if lit > 0 else "0" for lit in formula.clauses[j]}
        free = [i for i in range(n) if i not in fixed]
        bits = src.draw(len(free))
        for pos, i in enumerate(free):
            fixed[i] = "1" if (bits >> pos) & 1 else "0"
        assignment = "".join(fixed[i] for i in range(n))
        return (j, assignment)

    def ambiguity(assignment):
        return sum(formula.satisfies(assignment, j) for j in range(m))

    return Description(
        sampler=sampler,
        project=lambda t: t[1],
        ambiguity=ambiguity,
        bound=Bound(const=m),
        census=census,
    )
