#!/usr/bin/env python3
"""Empirical uniformity report for the slice samplers.

Draws seeded samples from a DFA slice, a derivation-tree slice and the
DNF example, then prints per-outcome frequencies, chi-square statistics
and failure rates next to their guaranteed bounds.

Usage: python scripts/uniformity_report.py [--samples 10000] [--seed0 0]
"""

import argparse
from collections import Counter

from scipy.stats import chisquare

from countgen.cfg import CnfGrammar, random_tree, tree_yield
from countgen.coins import FAIL, CoinSource, bit_size
from countgen.describe import DnfFormula, dnf_description, sample_report
from countgen.dfa import dfa_from_regex, dfa_sample


def frequency_block(name, draws, bound):
    counts = Counter(v for v in draws if v is not FAIL)
    fails = sum(v is FAIL for v in draws)
    _, p = chisquare(list(counts.values()))
    print(f"== {name}")
    print(f"   outcomes {len(counts)}, chi-square p = {p:.4f}")
    print(f"   failure rate {fails / len(draws):.4f} (bound {bound:.4f})")
    worst = max(counts.values()) / min(counts.values())
    print(f"   max/min frequency ratio {worst:.3f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    n = 8
    contains_aa = dfa_from_regex("(a|b)*aa(a|b)*")
    draws = [
        dfa_sample(contains_aa, n, CoinSource(args.seed0 + s))
        for s in range(args.samples)
    ]
    frequency_block("DFA slice: words with aa, n=8", draws, n / 2 ** (3 + bit_size(n)))

    catalan = CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})
    trees = [
        random_tree(catalan, 6, CoinSource(args.seed0 + s))
        for s in range(args.samples)
    ]
    kappa = 3 + bit_size(6)
    frequency_block(
        "derivation trees: S->SS|a, n=6",
        [t if t is FAIL else tree_yield(t) + repr(hash(t)) for t in trees],
        (2 * 6 - 1) / 2**kappa,
    )

    formula = DnfFormula(3, ((1,), (1, 2), (2, 3)))
    desc = dnf_description(formula)
    draws = [
        sample_report(desc, 3, CoinSource(args.seed0 + s)).value
        for s in range(args.samples)
    ]
    frequency_block("DNF satisfying assignments, 3 vars", draws, 0.25)


if __name__ == "__main__":
    main()
