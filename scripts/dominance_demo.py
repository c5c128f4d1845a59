#!/usr/bin/env python3
"""Print dominance reports for a random population and the EF/OP witness family.

Usage: python scripts/dominance_demo.py [--seed SEED] [--size N]
"""

import argparse

import numpy as np

from priorsearch import (
    dist_ef,
    dist_ikl_exact,
    ef_schedule,
    mn_optimal_q,
    stochastic_compare,
    thin_by_detection,
    validate_population,
)
from priorsearch.ordering import dominance_report, ef_op_incomparable_population


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

    fam = ef_op_incomparable_population(5)
    q = mn_optimal_q(fam)
    show_report("incomparability family (n=5, q proportional to priors)",
                dominance_report(fam, q=q))

    d_ef = dist_ef(ef_schedule(fam, eps=1e-13))
    d_op = thin_by_detection(dist_ikl_exact(fam, q), fam.detect_prob)
    verdict = stochastic_compare(d_ef, d_op)
    print("EF vs OP on the witness family:", verdict.relation)
    print("  P(EF = 1)      =", d_ef.pmf[0])
    print("  P(OP = 1)      =", d_op.pmf[0])
    print("  P(OP = inf)    =", d_op.atom_at_infinity)
    print("  witnesses      =", verdict.witnesses)


if __name__ == "__main__":
    main()
