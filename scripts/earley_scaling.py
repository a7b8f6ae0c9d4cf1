#!/usr/bin/env python3
"""Measured runtime scaling of the Earley derivation-tree counter.

Times the derivation-tree counter on growing inputs of a finitely
ambiguous and an unboundedly ambiguous grammar and prints the observed
growth ratios (no asymptotic claim, just the measurements).

Usage: python scripts/earley_scaling.py [--max-n 64]
"""

import argparse
import time

from countgen.cfg import CnfGrammar, earley_count


def measure(grammar, word_of, sizes):
    rows = []
    for n in sizes:
        word = word_of(n)
        start = time.perf_counter()
        count = earley_count(grammar, word)
        rows.append((n, time.perf_counter() - start, count))
    return rows


def report(name, rows):
    print(f"== {name}")
    previous = None
    for n, elapsed, count in rows:
        ratio = "" if previous is None else f"  x{elapsed / previous:.2f}"
        print(f"   n={n:4d}  {elapsed * 1000:9.2f} ms  trees={count}{ratio}")
        previous = elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=64)
    args = parser.parse_args()
    sizes = [n for n in (8, 16, 32, 64, 128) if n <= args.max_n]

    anbn = CnfGrammar(
        ("S", "T", "A", "B"),
        ("a", "b"),
        "S",
        {"S": [("A", "T"), ("A", "B")], "T": [("S", "B")]},
        {"A": ["a"], "B": ["b"]},
    )
    report(
        "unambiguous a^k b^k",
        measure(anbn, lambda n: "a" * (n // 2) + "b" * (n // 2), sizes),
    )

    catalan = CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})
    report(
        "maximally ambiguous one-letter grammar",
        measure(catalan, lambda n: "a" * n, sizes),
    )


if __name__ == "__main__":
    main()
