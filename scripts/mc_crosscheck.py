#!/usr/bin/env python3
"""Cross-check the Monte Carlo engine against every exact law.

Simulates all seven models on a random population and prints the sup
distance between empirical and exact detection-conditioned cdfs next to the
DKW band. Exits 1 when any model's distance exceeds its band (MISMATCH).

Usage: python scripts/mc_crosscheck.py [--seed SEED] [--size N] [--reps R]
"""

import argparse
import sys

import numpy as np

from priorsearch import SimConfig, dkw_band, simulate, uniform_weights, validate_population
from priorsearch.models import MODELS
from priorsearch.strategies import DEFAULT_EF_EPS, DEFAULT_EF_MAX_STEPS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--size", type=int, default=5)
    parser.add_argument("--reps", type=int, default=100_000)
    parser.add_argument("--alpha", type=float, default=0.001)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pop = validate_population(
        rng.dirichlet(np.ones(args.size)), rng.uniform(0.3, 1.0, size=args.size)
    )
    print(f"population: p={np.round(pop.p, 4)} s={np.round(pop.s, 4)}")
    print(f"{'model':>6} {'sup|F^-F|':>12} {'band':>10} {'censored':>9} {'emp mean':>10} {'exact':>10}")
    mismatch = False
    for model in MODELS.values():
        # Closed-form optimal weights where the model has them, uniform otherwise.
        q = None
        if model.takes_q:
            q = model.optimal_q(pop) if model.optimal_q else uniform_weights(args.size)
        exact = model.law(pop, q, eps=DEFAULT_EF_EPS, max_steps=DEFAULT_EF_MAX_STEPS, horizon=None)
        emp = simulate(pop, SimConfig(model=model.label, reps=args.reps, seed=args.seed, q=q))
        upto = max(exact.horizon, max(emp.counts, default=1))
        finite = 1.0 - exact.atom_at_infinity
        sup = float(
            np.abs(emp.cdf_array(upto) - exact.cdf_array(upto) / finite).max()
        )
        band = dkw_band(emp.detected, args.alpha)
        exact_mean = exact.conditional_on_detection().mean_finite()
        bad = sup > band
        mismatch |= bad
        print(
            f"{model.label:>6} {sup:12.5f} {band:10.5f} {emp.censored:9d} "
            f"{emp.mean_detected:10.4f} {exact_mean:10.4f}  {'MISMATCH' if bad else 'ok'}"
        )
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
