#!/usr/bin/env python3
"""Cross-check the CLI's exact laws on one random population.

Draws a population (p ~ Dirichlet(1), s ~ U(0.3, 1)) and Dirichlet weights q,
writes both to temporary CSV files and runs the CLI on them. First
`priorsearch order` checks the partial order of the seven laws at uniform
weights. Then `priorsearch simulate --check-exact` checks each simulated
process against its exact law: J and MN at their optimal weights, IKL and OP
twice, at uniform weights and at q from a `--q-file`, so both the equal-weight
walk and the race meet their exact laws. Exits 1 when any run exits nonzero.

Usage: python scripts/crosscheck.py [--seed SEED] [--size N] [--reps R] [--alpha A]
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from priorsearch import save_population_csv, validate_population
from priorsearch.models import MODELS


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
    q = rng.dirichlet(np.ones(args.size))
    with tempfile.TemporaryDirectory() as tmp:
        path, q_path = Path(tmp) / "population.csv", Path(tmp) / "weights.csv"
        save_population_csv(path, pop)
        q_path.write_text("id,q\n" + "".join(f"{i},{w!r}\n" for i, w in zip(pop.ids, q.tolist())))
        runs = [["order", "--input", str(path)]]
        for model in MODELS.values():
            weights = [[]]
            if model.takes_q and model.optimal_q is None:
                weights = [["--uniform-q"], ["--q-file", str(q_path)]]
            runs += [["simulate", "--model", model.label, "--input", str(path), "--reps", str(args.reps),
                      "--seed", str(args.seed), "--alpha", str(args.alpha), "--check-exact", *flags]
                     for flags in weights]
        codes = [subprocess.run([sys.executable, "-m", "priorsearch.cli", *run]).returncode for run in runs]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
