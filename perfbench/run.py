"""priorsearch benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's ``src`` directory, never from an installed copy, and the run fails
(exit 2, no result) when those sources are missing. Scratch files go to
``.perfbench_run/`` in the checkout, where the full report (machine record,
work counts, output digests, every metric) and, for traced runs, the spans
are also written.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-module metrics from traced batches that
alternate with untraced ones in the same process. See NOTES.md for the workloads,
the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One client on one core: numpy's OpenBLAS pool would otherwise keep a second
# thread spinning on the other vCPU after every large matrix product, using
# 1.5 CPUs for no gain in speed on a 2-vCPU host and tying the timings to how
# busy that vCPU's neighbours are. Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_run"
# Fresh interpreters timed for setup_s, spread evenly over the run (after the
# batch that ends each 1/SETUP_SPAWNS of it): the host's speed shifts over
# seconds, so spread spawns give a steadier median than spawns back to back.
SETUP_SPAWNS = 9

# Per-module times that go on the last line next to every count and ratio: the
# ones no listed workload leaves at exactly 0 s (the others are printed and
# stored in the report).
LISTED_LAYER_TIMES = (
    "population.load_s",
    "strategies.position_probabilities_s",
    "strategies.ef_schedule_s",
    "distributions.geometric_law_s",
    "distributions.permutation_law_self_s",
    "distributions.closed_law_s",
    "cli.self_s",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import priorsearch from the checkout's sources, or exit 2."""
    if not (SRC / "priorsearch" / "__init__.py").is_file():
        print(f"error: priorsearch sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import priorsearch

    if Path(priorsearch.__file__).resolve().parent != (SRC / "priorsearch").resolve():
        print(f"error: imported priorsearch from {priorsearch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def end_to_end(batches, ops, setup) -> tuple[dict, dict]:
    """BENCHMARK.json's end-to-end metrics, plus the ones that apply to this workload only.

    On a shared host the CPU's speed swings by up to 1.5x within seconds and the
    share of slow periods changes from minute to minute, so a median over a run
    follows the host's load. Each op is timed instead by its fastest run over the
    run's batches, which is steady across runs: the batch wall time is the sum of
    those times, and the latency percentiles are taken over them. An op that
    failed in any batch counts as infinitely slow in the percentiles.
    """
    from harness import percentile

    per_op = [min(b.latencies[i] for b in batches) for i in range(len(ops))]
    failed = {i for b in batches for i in b.failures}
    latencies = [math.inf if i in failed else t for i, t in enumerate(per_op)]
    wall = math.fsum(per_op)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {}
    try:
        extra["op_p95_ms"] = (percentile(latencies, 95) * 1e3, "ms")
    except ValueError:
        pass  # too few ops per batch for a p95 with 10 samples beyond it
    sim_time = math.fsum(t for op, t in zip(ops, per_op) if op.reps)
    if sim_time:
        extra["reps_per_s"] = (sum(op.reps for op in ops) / sim_time, "1/s")
    return metrics, extra


def layer_summary(untraced, traced) -> tuple[dict, list[str]]:
    """Per-module metrics: times are medians over traced batches; counts must repeat."""
    from tracing import COUNT_METRICS, LAYER_METRICS, layer_metrics

    layers = [layer_metrics(b.spans) for b in traced]
    problems = []
    out = {}
    for name, _ in LAYER_METRICS:
        values = [layer[name] for layer in layers]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced batches: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    # Each traced batch ran right after an untraced one: compare within pairs.
    out["trace.overhead_ratio"] = statistics.median(t.wall / u.wall for u, t in zip(untraced, traced))
    return out, problems


def listed_layers(printed: dict) -> dict:
    """The per-module metrics that go on the last line (BENCHMARK.json's per_layer)."""
    return {name: vu for name, vu in printed.items() if vu[1] != "s" or name in LISTED_LAYER_TIMES}


def write_spans(path: Path, traced) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch", "span", "name", "parent", "op", "start", "end", "counts"])
        for b, batch in enumerate(traced):
            for i, sp in enumerate(batch.spans):
                writer.writerow([b, i, sp.name, sp.parent, sp.op, repr(sp.start), repr(sp.end),
                                 json.dumps(sp.counts, sort_keys=True)])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from harness import (machine_record, measure, measure_traced, nondeterministic, run_op,
                         spawn_seconds)
    from tracing import LAYER_METRICS
    from workloads import build

    machine = machine_record()
    setup: list[float] = []
    if not args.trace:
        spawn_seconds(ROOT)  # warm-up: the first spawn also fills the file cache
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    home = os.getcwd()
    try:
        os.chdir(workdir)
        ops = build(args.workload, args.seed, Path("."))
        run_op(ops[0])  # warm-up: first-call costs are not what a researcher's loop pays
        if args.trace:
            untraced, traced = measure_traced(ops, args.seconds)
        else:
            start = time.perf_counter()

            def spawn_when_due() -> None:
                if time.perf_counter() - start >= len(setup) * args.seconds / SETUP_SPAWNS:
                    setup.append(spawn_seconds(ROOT))

            untraced = measure(ops, args.seconds, min_batches=2, between=spawn_when_due)
            traced = []
            while len(setup) < SETUP_SPAWNS:
                setup.append(spawn_seconds(ROOT))
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    batches = untraced + traced
    failures = {f"batch {b} op {i} ({ops[i].kind})": msgs
                for b, batch in enumerate(batches) for i, msgs in batch.failures.items()}
    unstable = nondeterministic(batches)
    for i in unstable:
        failures[f"op {i} ({ops[i].kind})"] = ["output digest differs between batches"]
    failed = sum(len(b.failures) for b in batches) + len(unstable)
    attempted = len(ops) * len(batches)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "batches": len(untraced),
        "traced_batches": len(traced),
        "batch_wall_s": [b.wall for b in batches],
        "work": batches[0].work,
        "digests": {"batch": _combined(batches[0].digests),
                    "ops": {f"{i:04d}-{op.kind}": d
                            for i, (op, d) in enumerate(zip(ops, batches[0].digests))}},
        "attempted": attempted,
        "failures": failures,
    }
    if args.trace:
        layers, problems = layer_summary(untraced, traced)
        for msg in problems:
            failures[msg] = ["work counts must repeat exactly"]
        failed += len(problems)
        units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
        printed = {name: (value, units[name]) for name, value in layers.items()}
        report["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in printed.items()}
        metrics = listed_layers(printed)
        write_spans(SCRATCH / f"{args.workload}-seed{args.seed}-spans.csv", traced)
    else:
        e2e, extra = end_to_end(untraced, ops, setup)
        metrics = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
        printed = dict(metrics, **extra, fail_ratio=(failed / attempted, "1"))
        report["setup_s_samples"] = setup
        report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in printed.items()}
    report["failed"], report["fail_ratio"] = failed, failed / attempted
    (SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    for msg, detail in list(failures.items())[:20]:
        print(f"FAILED {msg}: {'; '.join(detail)}")
    print(f"{args.workload} seed={args.seed} batches={len(untraced)}+{len(traced)} "
          f"ops/batch={len(ops)} nproc={machine['nproc']} blas_threads={machine['blas_threads']}")
    for name, (value, unit) in printed.items():
        print(f"  {name:42s} {value!r:>24} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    # Checks that fail are reported through "correct"; a run that cannot reproduce
    # its own outputs fails the invocation.
    return 1 if unstable else 0


def _combined(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
