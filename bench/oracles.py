"""Independent reference checks for the benchmark's correctness gate.

Nothing here imports countgen: every predicate and count is computed
directly from the definition of the language or quantity, so a wrong
answer from the library cannot also hide in its check.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations

# The regular workload's languages, as plain predicates.
ABB_PATTERN = "(a|b)*abb(a|b)*"
AAB_PATTERN = "(a|b)*aab"
# The trace workload's language and independence relation.
FLAGSHIP_PATTERN = "(a*c)*(ab)*c(a*c)*"
FLAGSHIP_INDEP = frozenset({frozenset("ab"), frozenset("bc")})


def over(word: str, letters: str) -> bool:
    return all(ch in letters for ch in word)


def contains_abb(word: str) -> bool:
    return over(word, "ab") and "abb" in word


def in_abb_or_aab(word: str) -> bool:
    return contains_abb(word) or (over(word, "ab") and word.endswith("aab"))


def in_flagship(word: str) -> bool:
    return re.fullmatch(FLAGSHIP_PATTERN, word) is not None


def _count(step, start, accepting, alphabet: str, n: int) -> list:
    """counts[l] = accepted words of length l for l <= n, by forward DP."""
    layer = {start: 1}
    counts = [sum(w for q, w in layer.items() if accepting(q))]
    for _ in range(n):
        nxt: dict = {}
        for q, ways in layer.items():
            for ch in alphabet:
                p = step(q, ch)
                nxt[p] = nxt.get(p, 0) + ways
        layer = nxt
        counts.append(sum(w for q, w in layer.items() if accepting(q)))
    return counts


def _abb_step(matched: int, ch: str) -> int:
    # longest suffix that is a prefix of "abb"; 3 means "abb" was seen
    if matched == 3:
        return 3
    if ch == "abb"[matched]:
        return matched + 1
    return 1 if ch == "a" else 0


class AbbRanks:
    """Census and slice-order rank of ``(a|b)*abb(a|b)*`` up to length n_max.

    ``completions[q][l]`` counts the words of length l that lead from
    match state q to a member; ranks follow countgen's order (length
    first, then lexicographic with a < b, 1-based).
    """

    def __init__(self, n_max: int):
        self.completions = [[1 if q == 3 else 0] for q in range(4)]
        for length in range(1, n_max + 1):
            for q in range(4):
                self.completions[q].append(
                    sum(self.completions[_abb_step(q, ch)][length - 1] for ch in "ab")
                )

    def census(self, n: int) -> int:
        return self.completions[0][n]

    def shorter(self, n: int) -> int:
        return sum(self.completions[0][length] for length in range(n))

    def rank(self, word: str) -> int:
        n = len(word)
        rank = self.shorter(n)
        q = 0
        for i, ch in enumerate(word):
            if ch == "b":
                rank += self.completions[_abb_step(q, "a")][n - i - 1]
            q = _abb_step(q, ch)
        return rank + (q == 3)


def abb_or_aab_counts(n: int) -> list:
    """Words containing ``abb`` or ending with ``aab``, per length 0..n."""
    return _count(
        lambda q, ch: (_abb_step(q[0], ch), (q[1] + ch)[-3:]),
        (0, ""),
        lambda q: q[0] == 3 or q[1] == "aab",
        "ab",
        n,
    )


def is_palindrome_pair(word: str) -> bool:
    """Concatenation of two even-length palindromes, not both empty."""

    def even_pal(w):
        return len(w) % 2 == 0 and w == w[::-1]

    return (
        bool(word)
        and over(word, "ab")
        and any(even_pal(word[:k]) and even_pal(word[k:]) for k in range(len(word) + 1))
    )


def palindrome_pair_count(n: int) -> int:
    return sum(
        is_palindrome_pair(format(i, f"0{n}b").replace("0", "a").replace("1", "b"))
        for i in range(1 << n)
    )


def is_dyck(word: str) -> bool:
    """Balanced a/b bracket word (a opens, b closes), non-empty."""
    height = 0
    for ch in word:
        if ch not in "ab":
            return False
        height += 1 if ch == "a" else -1
        if height < 0:
            return False
    return height == 0 and bool(word)


def commutation_class(word: str, indep=FLAGSHIP_INDEP, limit: int = 200_000) -> set:
    """Every word reachable by swapping adjacent independent letters."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            if w[i] != w[i + 1] and frozenset((w[i], w[i + 1])) in indep:
                v = w[:i] + w[i + 1] + w[i] + w[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
                    if len(seen) > limit:
                        raise ValueError("commutation class above the limit")
    return seen


def is_flagship_trace(word: str) -> bool:
    """``word`` is the least member of a class meeting the flagship language."""
    cls = commutation_class(word)
    return min(cls) == word and any(in_flagship(w) for w in cls)


def sat_count(clauses, assignment: str) -> int:
    return sum(
        any((assignment[abs(lit) - 1] == "1") == (lit > 0) for lit in clause)
        for clause in clauses
    )


def expected_sat(clauses) -> Fraction:
    """Expected satisfied clauses under a uniform assignment."""
    return sum(
        (1 - Fraction(1, 2 ** len({abs(lit) for lit in clause})) for clause in clauses),
        Fraction(0),
    )


def brute_permanent(matrix) -> int:
    n = len(matrix)
    return sum(math.prod(matrix[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))
