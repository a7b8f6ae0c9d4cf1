"""Path counting, the interpolation polynomial, and Kronecker slice ranks."""

import random
from fractions import Fraction
from itertools import islice
from itertools import product as iproduct

import pytest

from countgen.coins import FAIL, CoinSource, gen_uniform, outcome_law
from countgen.dfa import Dfa, dfa_from_regex
from countgen import nfa
from countgen.exceptions import AmbiguityExceeded, EmptySlice, FormatError, RankOutOfRange, SizeGuard
from countgen.nfa import (
    Nfa,
    SliceTable,
    build_q,
    load_nfa,
    nfa_from_dfa,
    nfa_rank,
    nfa_rank_slice,
    nfa_sample_slice,
    nfa_slice_census,
    nfa_unrank,
    path_count,
)


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


def members_up_to(a, n):
    """Accepted words of length at most n, in length-first order."""
    return [w for m in range(n + 1) for w in words_of(a.alphabet, m) if path_count(a, w) >= 1]


def shorter_members(a, n):
    """Accepted words shorter than n: the rank offset of the length-n slice."""
    return sum(nfa_slice_census(a, m) for m in range(n))


def validate_ambiguity(a: Nfa, n: int) -> None:
    """Exhaustively check path counts up to length n against the bound."""
    for length in range(n + 1):
        for w in words_of(a.alphabet, length):
            c = path_count(a, w)
            if c > a.ambiguity:
                raise AmbiguityExceeded(f"{w!r} has {c} accepting paths > {a.ambiguity}")


def unrank_slice(rank_fn, alphabet, n: int, k: int) -> str:
    """Reference unranker: the smallest word w of length n with
    rank_fn(w) >= k, by bisection over the whole slice.

    ``rank_fn`` must be nondecreasing in the lexicographic order on the
    slice; the result is the k-th accepted word when ranks count accepted
    words only.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if k < 1:
        raise RankOutOfRange("ranks are 1-based")
    base = len(alphabet)

    def decode(code):
        return "".join(alphabet[code // base**i % base] for i in reversed(range(n)))

    lo, hi = 0, base**n - 1
    if rank_fn(decode(hi)) < k:
        raise EmptySlice(f"slice holds fewer than {k} accepted words")
    while lo < hi:
        mid = (lo + hi) // 2
        if rank_fn(decode(mid)) >= k:
            hi = mid
        else:
            lo = mid + 1
    return decode(lo)


# two parallel deterministic branches: every word of (a|b)* is accepted
# along exactly 2 paths
DOUBLED = Nfa(
    alphabet=("a", "b"),
    matrices=(
        ((1, 0), (0, 1)),
        ((1, 0), (0, 1)),
    ),
    start=(1, 1),
    accept=(1, 1),
    ambiguity=2,
)

# paths p0 -> p1 on 'a' twice in parallel, accepting "a" 2 ways
TWO_PATHS_A = Nfa(
    alphabet=("a",),
    matrices=(((0, 2), (0, 0)),),
    start=(1, 0),
    accept=(0, 1),
    ambiguity=2,
)

# union automaton of (a|b)*a and a(a|b)*: words starting AND ending with a
# have 2 accepting paths, others at most 1
def union_overlap():
    end_a = nfa_from_dfa(dfa_from_regex("(a|b)*a"))
    start_a = nfa_from_dfa(dfa_from_regex("a(a|b)*"))
    dim = end_a.dim + start_a.dim
    mats = []
    for s in range(2):
        m = [[0] * dim for _ in range(dim)]
        for i in range(end_a.dim):
            for j in range(end_a.dim):
                m[i][j] = end_a.matrices[s][i][j]
        for i in range(start_a.dim):
            for j in range(start_a.dim):
                m[end_a.dim + i][end_a.dim + j] = start_a.matrices[s][i][j]
        mats.append(tuple(tuple(r) for r in m))
    start = end_a.start + start_a.start
    accept = end_a.accept + start_a.accept
    return Nfa(("a", "b"), tuple(mats), start, accept, 2)


UNION_OVERLAP = union_overlap()

# three parallel copies: ambiguity exactly 3
TRIPLED = Nfa(
    alphabet=("a", "b"),
    matrices=(((1,),), ((1,),)),
    start=(3,),
    accept=(1,),
    ambiguity=3,
)

DFA_AS_NFA = nfa_from_dfa(dfa_from_regex("(ab)*"))

RANK_AUTOMATA = [DFA_AS_NFA, DOUBLED, TWO_PATHS_A, UNION_OVERLAP, TRIPLED]

# four parallel 'a'-edges declared ambiguity 2: "a" has 4 paths and
# q(4) = 1 - C(3, 2) = -2, so the length-1 census reads -2
FOUR_PATHS_A = load_nfa(
    "states 2\nalphabet a b\nstart 0\nfinals 1\nambiguity 2\n" + "trans 0 a 1\n" * 4
)


def counted_tables(monkeypatch) -> list:
    """Patch ``nfa.SliceTable`` to record the automaton of every table built."""
    built = []

    class Counted(nfa.SliceTable):
        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(nfa, "SliceTable", Counted)
    return built


def brute_paths(a, word):
    """Path enumeration oracle: walk all state sequences."""
    paths = [(i, a.start[i]) for i in range(a.dim) if a.start[i]]
    for sym in word:
        m = a.matrices[a.symbol_index(sym)]
        nxt = {}
        for state, mult in paths:
            for j in range(a.dim):
                if m[state][j]:
                    nxt[j] = nxt.get(j, 0) + mult * m[state][j]
        paths = list(nxt.items())
    return sum(mult * a.accept[state] for state, mult in paths)


class TestPathCount:
    def test_deterministic_members(self):
        for w in ("", "ab", "abab"):
            assert path_count(DFA_AS_NFA, w) == 1
        for w in ("a", "ba", "aba"):
            assert path_count(DFA_AS_NFA, w) == 0

    def test_two_parallel_paths(self):
        assert path_count(TWO_PATHS_A, "a") == 2
        assert path_count(TWO_PATHS_A, "") == 0

    def test_empty_word(self):
        assert path_count(DOUBLED, "") == 2

    @pytest.mark.parametrize("a", RANK_AUTOMATA)
    def test_matches_enumeration(self, a):
        for n in range(4):
            for w in words_of(a.alphabet, n):
                assert path_count(a, w) == brute_paths(a, w)


class TestBuildQ:
    def test_degree_one(self):
        assert build_q(1).coefficients == (Fraction(1),)

    def test_degree_two(self):
        # (3x - x^2) / 2
        assert build_q(2).coefficients == (Fraction(3, 2), Fraction(-1, 2))

    def test_degree_three(self):
        # (11x - 6x^2 + x^3) / 6
        assert build_q(3).coefficients == (
            Fraction(11, 6),
            Fraction(-1),
            Fraction(1, 6),
        )

    @pytest.mark.parametrize("d", range(1, 7))
    def test_defining_values(self, d):
        q = build_q(d)
        assert q(0) == 0
        for c in range(1, d + 1):
            assert q(c) == 1


class TestKroneckerIdentity:
    @pytest.mark.parametrize("a", [DOUBLED, TWO_PATHS_A, UNION_OVERLAP])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_sums(self, a, k):
        # the lifted product over the whole slice equals the brute sum of
        # k-th powers of path counts
        from countgen.nfa import (
            _dot,
            _kron_power_matrix,
            _kron_power_vec,
            _matrix_add,
            _matrix_times_col,
        )

        for n in range(4):
            brute = sum(path_count(a, w) ** k for w in words_of(a.alphabet, n))
            lifted_sum = None
            for rows in a.letter_rows:
                m = _kron_power_matrix(rows, k)
                lifted_sum = m if lifted_sum is None else _matrix_add(lifted_sum, m)
            col = _kron_power_vec(a.accept, k)
            for _ in range(n):
                col = _matrix_times_col(lifted_sum, col)
            assert _dot(_kron_power_vec(a.start, k), col) == brute


class TestRankSlice:
    @pytest.mark.parametrize("a", RANK_AUTOMATA)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_brute_force_agreement(self, a, n):
        for beta in words_of(a.alphabet, n):
            expected = sum(
                1
                for gamma in words_of(a.alphabet, n)
                if gamma <= beta and path_count(a, gamma) >= 1
            )
            assert nfa_rank_slice(a, n, beta) == expected

    def test_unambiguous_matches_dfa_slice_rank(self):
        from test_dfa import slice_rank

        dfa = dfa_from_regex("(ab)*")
        lifted = nfa_from_dfa(dfa)
        for n in (1, 2, 3, 4):
            for beta in words_of("ab", n):
                assert nfa_rank_slice(lifted, n, beta) == slice_rank(dfa, beta)

    def test_lex_greatest_gives_census(self):
        for a in RANK_AUTOMATA:
            for n in (1, 2, 3):
                top = max(a.alphabet) * n
                brute_census = sum(
                    path_count(a, w) >= 1 for w in words_of(a.alphabet, n)
                )
                assert nfa_rank_slice(a, n, top) == brute_census
                assert nfa_slice_census(a, n) == brute_census

    def test_census_counts_words_not_paths(self):
        # every word of length 2 over {a,b} is doubly accepted: census 4, paths 8
        assert nfa_slice_census(DOUBLED, 2) == 4
        assert sum(path_count(DOUBLED, w) for w in words_of("ab", 2)) == 8

    def test_ambiguity_exceeded(self):
        bad = Nfa(("a",), (((0, 3), (0, 0)),), (1, 0), (0, 1), 2)
        with pytest.raises(AmbiguityExceeded):
            nfa_rank_slice(bad, 1, "a")
        with pytest.raises(AmbiguityExceeded):
            validate_ambiguity(bad, 1)

    def test_lift_guard(self):
        big = Nfa(
            ("a",),
            (tuple(tuple(0 for _ in range(9)) for _ in range(9)),),
            tuple([1] + [0] * 8),
            tuple([0] * 8 + [1]),
            5,
        )
        with pytest.raises(SizeGuard):
            nfa_rank_slice(big, 1, "a")

    def test_full_rank_accumulates_slices(self):
        for beta in ("a", "ab", "aba"):
            shorter = sum(
                sum(path_count(UNION_OVERLAP, w) >= 1 for w in words_of("ab", m))
                for m in range(len(beta))
            )
            inslice = sum(
                1
                for g in words_of("ab", len(beta))
                if g <= beta and path_count(UNION_OVERLAP, g) >= 1
            )
            assert nfa_rank(UNION_OVERLAP, beta) == shorter + inslice

    def test_rank_builds_one_slice_table(self, monkeypatch):
        expected = nfa_rank_slice(UNION_OVERLAP, 4, "abab") + sum(
            nfa_slice_census(UNION_OVERLAP, m) for m in range(4)
        )
        k = shorter_members(UNION_OVERLAP, 5) + 1
        built = counted_tables(monkeypatch)
        assert nfa_rank(UNION_OVERLAP, "abab") == expected
        # every entry point builds exactly one table, however many lengths it reads
        calls = [
            lambda: nfa_rank_slice(UNION_OVERLAP, 4, "abab"),
            lambda: nfa_slice_census(UNION_OVERLAP, 4),
            lambda: nfa_rank(UNION_OVERLAP, "abab"),
            lambda: nfa_unrank(UNION_OVERLAP, k),
            lambda: nfa_sample_slice(UNION_OVERLAP, 4, CoinSource(0)),
        ]
        for call in calls:
            built.clear()
            call()
            assert built == [UNION_OVERLAP]


class TestUnrankAndSampling:
    def test_bisection_roundtrip(self):
        a = UNION_OVERLAP
        n = 3
        members = [w for w in words_of("ab", n) if path_count(a, w) >= 1]
        rank_fn = lambda w: nfa_rank_slice(a, n, w)
        for k, w in enumerate(members, start=1):
            assert unrank_slice(rank_fn, a.alphabet, n, k) == w

    def test_unrank_out_of_range(self):
        a = DFA_AS_NFA
        with pytest.raises(EmptySlice):
            unrank_slice(lambda w: nfa_rank_slice(a, 2, w), a.alphabet, 2, 5)

    def test_singleton_slice(self):
        w = nfa_sample_slice(DFA_AS_NFA, 2, CoinSource(3))
        assert w == "ab"

    def test_sampler_exactly_uniform(self):
        # 2-ambiguous automaton, 3 accepted words of length 3 over {a}?
        # use UNION_OVERLAP at n=2: members aa, ab?, ba?: aa starts+ends a
        members = [
            w for w in words_of("ab", 2) if path_count(UNION_OVERLAP, w) >= 1
        ]
        law = outcome_law(lambda src: nfa_sample_slice(UNION_OVERLAP, 2, src))
        ok = 1 - law.get(FAIL, Fraction(0))
        for w in members:
            assert law[w] / ok == Fraction(1, len(members))

    def test_empty_slice(self):
        odd = nfa_from_dfa(dfa_from_regex("(ab)*"))
        with pytest.raises(EmptySlice):
            nfa_sample_slice(odd, 3, CoinSource(0))


class TestGreedyUnrank:
    @pytest.mark.parametrize("a", RANK_AUTOMATA)
    @pytest.mark.parametrize("n", range(5))
    def test_matches_bisection(self, a, n):
        shorter, census = shorter_members(a, n), nfa_slice_census(a, n)
        rank_fn = lambda w: nfa_rank_slice(a, n, w)
        for k in range(1, census + 1):
            assert nfa_unrank(a, shorter + k) == unrank_slice(rank_fn, a.alphabet, n, k)

    @pytest.mark.parametrize("a", RANK_AUTOMATA)
    def test_inverts_rank_on_members(self, a):
        for k, w in enumerate(members_up_to(a, 4), start=1):
            assert nfa_unrank(a, k) == w
            assert nfa_rank(a, w) == k

    @pytest.mark.parametrize("k", [0, -5])
    def test_rank_below_one_rejected(self, k):
        with pytest.raises(RankOutOfRange):
            nfa_unrank(UNION_OVERLAP, k)
        with pytest.raises(RankOutOfRange):
            unrank_slice(lambda w: nfa_rank_slice(UNION_OVERLAP, 3, w), ("a", "b"), 3, k)

    def test_rank_above_census_rejected(self):
        # the last member of a slice, then the first of the next nonempty one
        last = shorter_members(UNION_OVERLAP, 4)
        assert nfa_unrank(UNION_OVERLAP, last) == "bba"
        assert nfa_unrank(UNION_OVERLAP, last + 1) == "aaaa"
        # (ab)* skips every odd length; a finite language runs out
        assert nfa_unrank(DFA_AS_NFA, 3) == "abab"
        assert nfa_unrank(TWO_PATHS_A, 1) == "a"
        with pytest.raises(RankOutOfRange, match="^language has only 1 members$"):
            nfa_unrank(TWO_PATHS_A, 2)

    def test_unranked_word_above_bound_raises(self):
        # "a" has 2 accepting paths but the bound says 1: q(2) = 2 makes the
        # census 2, and the greedy walk lands on the offending word
        bad = Nfa(("a",), (((0, 2), (0, 0)),), (1, 0), (0, 1), 1)
        assert nfa_slice_census(bad, 1) == 2
        for k in (1, 2):
            with pytest.raises(AmbiguityExceeded):
                nfa_unrank(bad, k)
        with pytest.raises(AmbiguityExceeded):
            nfa_sample_slice(bad, 1, CoinSource(0))

    def test_empty_word_slice(self):
        assert nfa_unrank(DOUBLED, 1) == ""
        assert nfa_unrank(DOUBLED, 2) == "a"
        # TWO_PATHS_A does not accept the empty word: its first member is "a"
        assert nfa_unrank(TWO_PATHS_A, 1) == "a"

    def test_unrank_builds_one_slice_table(self, monkeypatch):
        k = shorter_members(UNION_OVERLAP, 5) + 1
        built = counted_tables(monkeypatch)
        assert nfa_unrank(UNION_OVERLAP, k) == "aaaaa"
        assert built == [UNION_OVERLAP]


class TestSliceTable:
    def test_keeps_its_automaton_and_grows_in_place(self):
        table = SliceTable(UNION_OVERLAP)
        assert table.nfa is UNION_OVERLAP
        assert len(table.suffix) == 1
        assert table.grow(6) is table and len(table.suffix) == 7
        assert table.grow(3) is table and len(table.suffix) == 7
        assert [table.census(m) for m in range(7)] == [
            nfa_slice_census(UNION_OVERLAP, m) for m in range(7)
        ]

    def test_grow_refuses_negative_length(self):
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            SliceTable(UNION_OVERLAP).grow(-1)

    def test_lift_guard_in_constructor(self):
        big = Nfa(("a",), (((0,) * 9,) * 9,), (1,) + (0,) * 8, (0,) * 8 + (1,), 5)
        with pytest.raises(SizeGuard, match=r"^lift dimension 9\*\*5 above 4096$"):
            SliceTable(big)


class TestNegativeCount:
    """A negative word count can only come from a word with more paths
    than declared: q is 0 or 1 up to the bound."""

    MESSAGE = "^negative word count -2: a word has more than 2 accepting paths$"

    def test_census_raises(self):
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_slice_census(FOUR_PATHS_A, 1)
        assert nfa_slice_census(FOUR_PATHS_A, 0) == 0

    def test_rank_raises(self):
        # "b" itself has no path, but the cone of "a" below it counts -2
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_rank_slice(FOUR_PATHS_A, 1, "b")
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_rank(FOUR_PATHS_A, "b")
        with pytest.raises(AmbiguityExceeded):
            nfa_rank(FOUR_PATHS_A, "a")

    def test_unrank_raises(self):
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_unrank(FOUR_PATHS_A, 1)
        # with a loop on the final state every nonempty word has 4 paths, so
        # no length has a positive count: the walk once ran to length 4096
        looping = load_nfa(
            "states 2\nalphabet a\nstart 0\nfinals 1\nambiguity 2\ntrans 1 a 1\n"
            + "trans 0 a 1\n" * 4
        )
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_unrank(looping, 1)

    def test_sample_raises(self):
        with pytest.raises(AmbiguityExceeded, match=self.MESSAGE):
            nfa_sample_slice(FOUR_PATHS_A, 1, CoinSource(0))


class TestNegativeWeights:
    """A negative start or accept weight is refused at construction, not
    blamed on the declared ambiguity by a census that reads below 0."""

    @pytest.mark.parametrize(
        "start, accept",
        [((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((1, -2), (0, 1)), ((0, 1), (-3, 0))],
    )
    def test_refused(self, start, accept):
        matrices = (((0, 1), (0, 0)),)
        with pytest.raises(ValueError, match="^start/accept weights must be nonnegative$"):
            Nfa(("a",), matrices, start, accept, 2)

    def test_single_state_example(self):
        with pytest.raises(ValueError, match="^start/accept weights must be nonnegative$"):
            Nfa(("a",), (((1,),),), (1,), (-1,), 2)

    def test_weights_above_one_stay_legal(self):
        assert TRIPLED.start == (3,)
        weighted = Nfa(("a",), (((0, 1), (0, 0)),), (1, 0), (0, 2), 2)
        assert nfa_slice_census(weighted, 1) == 1


class TestNegativeLength:
    @pytest.mark.parametrize("n", [-1, -2])
    def test_every_entry_point_rejects(self, n):
        # DOUBLED accepts the empty word, so a silent length-0 answer would show
        calls = [
            lambda: nfa_slice_census(DOUBLED, n),
            lambda: nfa_rank_slice(DOUBLED, n, ""),
            lambda: nfa_sample_slice(DOUBLED, n, CoinSource(0)),
            lambda: unrank_slice(lambda w: 1, DOUBLED.alphabet, n, 1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="length must be nonnegative"):
                call()

    @pytest.mark.parametrize("n, beta", [(-1, ""), (10**9, "ab"), (10**5, "ab")])
    def test_rank_slice_checks_before_building_a_table(self, monkeypatch, n, beta):
        # growing suffix columns to 10**9 would never return
        built = counted_tables(monkeypatch)
        with pytest.raises(ValueError, match="^(length must be nonnegative|beta must have length n)$"):
            nfa_rank_slice(UNION_OVERLAP, n, beta)
        assert built == []


class TestLoader:
    NFA_TEXT = """
states 2
alphabet a
start 0
finals 1
ambiguity 2
trans 0 a 1
trans 0 a 1
"""

    def test_load_multiplicity(self):
        a = load_nfa(self.NFA_TEXT)
        assert a.matrices[0][0][1] == 2
        assert path_count(a, "a") == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("trans 0 a 1\n", "trans -1 a 1\n"),
            ("trans 0 a 1\n", "trans 0 a 2\n"),
            ("start 0", "start 0 7"),
            ("finals 1", "finals -1"),
        ],
    )
    def test_load_rejects_state_out_of_range(self, old, new):
        with pytest.raises(FormatError, match="outside 0..1"):
            load_nfa(self.NFA_TEXT.replace(old, new, 1))


def reference_cones(table, row, j):
    """(scaled count, row) of each one-letter extension of a prefix, in order."""
    for lift in table.lifts:
        child = nfa._row_times_matrix(row, lift)
        yield nfa._dot(child, table.suffix[j]), child


def reference_rank_slice(table, beta):
    """The slice rank of beta by scaled path sums over the cones below it,
    divided by the scale once at the end."""
    a, n = table.nfa, len(beta)
    table.grow(n)
    below, row, member = 0, table.start, path_count(a, beta) > 0
    for i, sym in enumerate(beta):
        cones = list(islice(reference_cones(table, row, n - 1 - i), a.alphabet.index(sym) + 1))
        below += sum(count for count, _ in cones[:-1])
        row = cones[-1][1]
    return table.words(below) + member


def reference_unrank_slice(table, n, r):
    """The r-th member of length n, walking scaled ranks (r * scale)."""
    a = table.grow(n).nfa
    row, r, word = table.start, r * table.scale, ""
    for i in range(n):
        for s, (count, child) in enumerate(reference_cones(table, row, n - 1 - i)):
            if r <= count:
                break
            r -= count
        else:
            raise AssertionError("rank exceeded slice census")
        word += a.alphabet[s]
        row = child
    return word


def reference_sample_slice(a, n, src, delta=Fraction(1, 4)):
    table = SliceTable(a)
    k = gen_uniform(src, table.census(n), delta)
    return FAIL if k is FAIL else reference_unrank_slice(table, n, k)


def random_bounded_nfa(seed):
    """Disjoint sum of 1 to 3 seeded random DFAs, one of them weighted 2
    at its start when the bound allows: no word has more accepting paths
    than the declared ambiguity, which is 1 to 3, so the scale is above 1
    from ambiguity 2 on."""
    rng = random.Random(seed)
    alphabet = "abc"[: rng.randint(1, 3)]
    parts, weights = [], []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        trans = tuple(tuple(rng.randrange(size) for _ in alphabet) for _ in range(size))
        finals = frozenset(q for q in range(size) if rng.random() < 0.5)
        parts.append(nfa_from_dfa(Dfa(tuple(alphabet), trans, rng.randrange(size), finals)))
        weights.append(1)
    if len(parts) < 3 and rng.random() < 0.5:
        weights[0] = 2
    dim = sum(p.dim for p in parts)
    matrices, start, accept, offset = [[[0] * dim for _ in range(dim)] for _ in alphabet], [], [], 0
    for part, weight in zip(parts, weights):
        for m, pm in zip(matrices, part.matrices):
            for i, row in enumerate(pm):
                m[offset + i][offset : offset + part.dim] = row
        start += [weight * x for x in part.start]
        accept += part.accept
        offset += part.dim
    matrices = tuple(tuple(map(tuple, m)) for m in matrices)
    return Nfa(tuple(alphabet), matrices, tuple(start), tuple(accept), sum(weights))


class TestWalkEqualsScaledReference:
    """Rank, unrank and sampling over cones counted in words equal the walk
    over scaled path sums, on automata whose declared bound holds."""

    SEEDS = range(40)

    def test_bounds_cover_every_scale(self):
        bounds = {random_bounded_nfa(seed).ambiguity for seed in self.SEEDS}
        assert bounds == {1, 2, 3}
        assert {SliceTable(random_bounded_nfa(seed)).scale for seed in self.SEEDS} >= {1, 2, 6}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rank_and_unrank(self, seed):
        a = random_bounded_nfa(seed)
        validate_ambiguity(a, 4)
        table = SliceTable(a)
        for n in range(5):
            shorter = shorter_members(a, n)
            for beta in islice(words_of(a.alphabet, n), 0, None, n + 1):
                expected = reference_rank_slice(table, beta)
                assert nfa_rank_slice(a, n, beta) == expected
                assert nfa_rank(a, beta) == shorter + expected
            for r in range(1, nfa_slice_census(a, n) + 1):
                assert nfa_unrank(a, shorter + r) == reference_unrank_slice(table, n, r)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_words_and_bits(self, seed):
        a = random_bounded_nfa(seed)
        for n in range(1, 7):
            if nfa_slice_census(a, n) == 0:
                continue
            for draw in range(5):
                src, ref = CoinSource(100 * seed + draw), CoinSource(100 * seed + draw)
                assert nfa_sample_slice(a, n, src) == reference_sample_slice(a, n, ref)
                assert src.bits_consumed == ref.bits_consumed
