#!/usr/bin/env python3
"""Print the dominance report for a random population.

Runs `priorsearch order` on the population and exits with its exit code.

Usage: python scripts/dominance_demo.py [--seed SEED] [--size N]
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from priorsearch import save_population_csv, validate_population


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pop = validate_population(
        rng.dirichlet(np.ones(args.size)), rng.uniform(0.3, 1.0, size=args.size)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "population.csv"
        save_population_csv(path, pop)
        return subprocess.run([sys.executable, "-m", "priorsearch.cli", "order", "--input", str(path)]).returncode


if __name__ == "__main__":
    sys.exit(main())
