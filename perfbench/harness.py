"""Closed-loop runner: one client, one process, each op waits for the previous one.

A run repeats the workload's fixed batch of ops until the requested seconds
are used (at least twice), times every op and every batch, checks every
outcome, and compares each op's output digest across batches: a seeded batch
must reproduce its outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

from tracing import OP_SPAN, Span, Tracer, install
from workloads import Op, Outcome


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, refused unless at least 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; need 10"
        )
    return ordered[rank - 1]


# One capture buffer for every op: click caches each stream it writes to, and
# that cache keeps every stream alive, so a new buffer per op would grow the
# process by the text of every op ever run.
_SINK = io.StringIO()


def run_op(op: Op, tracer: Tracer | None = None, op_id: int | None = None) -> tuple[Outcome, float]:
    """Run one op in-process; return its outcome and latency in seconds."""
    from priorsearch.cli import main

    sink = _SINK
    sink.seek(0)
    sink.truncate()
    value, code = None, 0
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open(OP_SPAN)
        tracer.spans[span].counts = {"cli": 1} if op.argv is not None else {}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.argv is not None:
                rv = main.main(args=op.argv, standalone_mode=False, prog_name="priorsearch")
                code = rv if isinstance(rv, int) else 0
            else:
                value = op.call()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crash is a failed op, reported with its message
        code = -1
        sink.write(f"\nraised {type(exc).__name__}: {exc}\n")
    finally:
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    files = {}
    if op.out is not None and os.path.isdir(op.out):
        for path in sorted(Path(op.out).rglob("*")):
            if path.is_file():
                files[path.relative_to(op.out).as_posix()] = path.read_bytes()
    return Outcome(code=code, stdout=sink.getvalue(), files=files, value=value), elapsed


@dataclass
class Batch:
    wall: float
    latencies: list[float]
    digests: list[str]
    failures: dict[int, list[str]]
    work: dict[str, int]
    spans: list[Span] = field(default_factory=list)


def empty_outputs(root: str = "out") -> None:
    """Truncate the files earlier batches wrote, keeping them for the next batch to rewrite.

    Rewriting in place keeps file creation and deletion out of the ops' timings
    (on a 2-vCPU VM they doubled the spread of exact-sweep), and an op that
    fails to rewrite its outputs leaves empty files behind, which fail its checks.
    """
    for path in Path(root).rglob("*"):
        if path.is_file():
            os.truncate(path, 0)


def run_batch(ops: list[Op], tracer: Tracer | None = None) -> Batch:
    """Run the ops back to back (timed), then check and digest every outcome (untimed)."""
    empty_outputs()
    if tracer is not None:
        tracer.spans = []
    outcomes, latencies = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        outcome, elapsed = run_op(op, tracer, i)
        outcomes.append(outcome)
        latencies.append(elapsed)
    wall = time.perf_counter() - start
    failures = {}
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        try:
            problems = op.check(outcome)
        except Exception as exc:  # malformed output: the op failed its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[i] = problems
    return Batch(wall, latencies, [o.digest() for o in outcomes], failures,
                 work_counts(ops, outcomes), tracer.spans if tracer is not None else [])


def work_counts(ops: list[Op], outcomes: list[Outcome]) -> dict[str, int]:
    """Deterministic work visible from outputs alone."""
    work = {"ops": len(ops), "output_files": 0, "output_bytes": 0, "law_rows": 0,
            "schedule_steps": 0, "reps": sum(op.reps for op in ops)}
    for outcome in outcomes:
        for name, data in outcome.files.items():
            work["output_files"] += 1
            work["output_bytes"] += len(data)
            if name.startswith("dist_"):
                work["law_rows"] += data.count(b"\n") - 3
        match = re.search(r"^schedule steps: (\d+)$", outcome.stdout, re.MULTILINE)
        if match:
            work["schedule_steps"] += int(match.group(1))
    return work


def nondeterministic(batches: list[Batch]) -> list[int]:
    """Op indices whose output digest differs between any two of the batches."""
    first = batches[0].digests
    return sorted({i for b in batches[1:] for i, d in enumerate(b.digests) if d != first[i]})


def measure(ops: list[Op], seconds: float, min_batches: int,
            between: Callable[[], None] = lambda: None) -> list[Batch]:
    """Repeat the batch while another one fits in ``seconds`` (at least ``min_batches``).

    ``between`` runs after every batch, inside the time budget.
    """
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(run_batch(ops))
        between()
        elapsed = time.perf_counter() - start
        if (len(batches) >= min_batches
                and elapsed + statistics.median(b.wall for b in batches) > seconds):
            return batches


def measure_traced(ops: list[Op], seconds: float) -> tuple[list[Batch], list[Batch]]:
    """Alternate untraced and traced batches while another pair fits in ``seconds``.

    Alternating exposes both kinds to the same drift in machine speed, so their
    ratio is the tracing overhead.
    """
    tracer = Tracer()
    untraced: list[Batch] = []
    traced: list[Batch] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_batch(ops))
        with install(tracer):
            traced.append(run_batch(ops, tracer))
        pair = statistics.median(b.wall for b in untraced) + statistics.median(b.wall for b in traced)
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced


def spawn_seconds(root: Path) -> float:
    """Wall time of one fresh `python -m priorsearch.cli --version` process."""
    from priorsearch import __version__

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "priorsearch.cli", "--version"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or __version__ not in proc.stdout:
        raise RuntimeError(f"priorsearch --version failed: {proc.stderr.strip()}")
    return elapsed


def blas_threads() -> int | None:
    """Threads in numpy's OpenBLAS pool, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "blas_threads": blas_threads(),
    }
