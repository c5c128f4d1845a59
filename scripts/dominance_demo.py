#!/usr/bin/env python3
"""Print the dominance report for a random population.

Usage: python scripts/dominance_demo.py [--seed SEED] [--size N]
"""

import argparse

import numpy as np

from priorsearch import dominance_report, validate_population


def show_report(title, report):
    print(f"== {title} ==")
    print(f"   common q: {np.round(report.q, 4)}")
    for (a, b), verdict in report.verdicts.items():
        expected = report.expected[(a, b)]
        mark = "*" if expected != "unconstrained" else " "
        extra = f"  witnesses={verdict.witnesses}" if verdict.witnesses else ""
        print(f" {mark} {a:>4} vs {b:<4} {verdict.relation:<12} (expected {expected}){extra}")
    print(f"   mismatches: {list(report.mismatches) or 'none'}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pop = validate_population(
        rng.dirichlet(np.ones(args.size)), rng.uniform(0.3, 1.0, size=args.size)
    )
    show_report(f"random population (n={args.size}, seed={args.seed})", dominance_report(pop))


if __name__ == "__main__":
    main()
