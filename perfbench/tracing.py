"""Span tracing of priorsearch's public functions, from the benchmark's side.

``install(tracer)`` replaces each traced function with a wrapper in its
defining module and in every priorsearch module (the package included) that
bound the same function object under some name, so calls made through those
bindings are traced too (``cli`` binds ``dist_j``, ``ordering`` binds the
``dist_*`` laws, ``distributions`` binds ``position_probabilities``,
``montecarlo`` binds ``ef_schedule``). Each call records a span: name, start,
end, parent span and op id, plus the work counts the function's arguments and
result reveal. Spans stay in memory; ``layer_metrics`` turns them into the
per-module metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int | None = None
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread; spans nest through a stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for idx, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(sp.duration - covered)
    return out


# ---------------------------------------------------------------------------
# What gets traced, and the counts each call contributes.
# ---------------------------------------------------------------------------


def _subset_states(args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    return {"subset_states": 2 ** q.n}


def _ef_steps(args, kwargs, result):
    return {"ef_steps": len(result.steps)}


def _law(args, kwargs, result):
    return {"law_horizon": result.horizon, "pmf_entries": len(result.pmf)}


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path_or_file"]
    return {"csv_bytes": os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0}


def _compare(args, kwargs, result):
    dx, dy = args[0], args[1]
    return {"cdf_points": max(dx.horizon, dy.horizon)}


def _simulate(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    chunk = importlib.import_module("priorsearch.montecarlo").CHUNK
    return {
        "reps": cfg.reps,
        "chunks": -(-cfg.reps // chunk),
        "distinct_steps": len(result.counts),
        "detected": result.detected,
    }


TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("population", "load_population", None),
    ("strategies", "position_probabilities", _subset_states),
    ("strategies", "ikl_mean_exact", None),
    ("strategies", "ikl_search_q", None),
    ("strategies", "ef_schedule", _ef_steps),
    ("distributions", "dist_abcd", None),
    ("distributions", "dist_ef", None),
    ("distributions", "dist_gh", None),
    ("distributions", "dist_j", _law),
    ("distributions", "dist_mn", _law),
    ("distributions", "dist_ikl_exact", None),
    ("distributions", "dist_op_exact", None),
    ("distributions", "write_distribution_csv", _csv_bytes),
    ("ordering", "dominance_report", None),
    ("ordering", "stochastic_compare", _compare),
    ("montecarlo", "simulate", _simulate),
    ("montecarlo", "dkw_check", None),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result
        finally:
            tracer.close(idx)

    return traced


@contextmanager
def install(tracer: Tracer):
    """Trace every function in TRACED for the duration of the block."""
    patched: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "priorsearch" or n.startswith("priorsearch."))]
    try:
        for module_name, fn_name, counter in TRACED:
            home = importlib.import_module(f"priorsearch.{module_name}")
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, f"{module_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Per-module metrics from one batch's spans.
# ---------------------------------------------------------------------------

OP_SPAN = "op"

# (metric, unit): "s" metrics are seconds per batch; the rest are counts or ratios.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("population.load_s", "s"),
    ("population.load_calls", "count"),
    ("strategies.position_probabilities_s", "s"),
    ("strategies.position_probabilities_calls", "count"),
    ("strategies.subset_states", "count"),
    ("strategies.ikl_search_q_self_s", "s"),
    ("strategies.ikl_mean_exact_calls", "count"),
    ("strategies.ef_schedule_s", "s"),
    ("strategies.ef_steps", "count"),
    ("distributions.geometric_law_s", "s"),
    ("distributions.law_horizon_sum", "count"),
    ("distributions.pmf_entries", "count"),
    ("distributions.permutation_law_self_s", "s"),
    ("distributions.closed_law_s", "s"),
    ("distributions.csv_write_s", "s"),
    ("distributions.csv_bytes", "count"),
    ("ordering.dominance_report_self_s", "s"),
    ("ordering.compare_s", "s"),
    ("ordering.compare_calls", "count"),
    ("ordering.cdf_points", "count"),
    ("montecarlo.simulate_self_s", "s"),
    ("montecarlo.reps", "count"),
    ("montecarlo.chunks", "count"),
    ("montecarlo.distinct_steps", "count"),
    ("montecarlo.detected_ratio", "ratio"),
    ("montecarlo.dkw_check_s", "s"),
    ("cli.self_s", "s"),
)

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Sum one batch's spans into the LAYER_METRICS (times in s, counts exact)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    cli_self = 0.0
    for sp, self_s in zip(spans, selfs):
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        own[sp.name] = own.get(sp.name, 0.0) + self_s
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for key, value in sp.counts.items():
            counts[key] = counts.get(key, 0) + value
        if sp.name == OP_SPAN and sp.counts.get("cli"):
            cli_self += self_s

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    reps = counts.get("reps", 0)
    return {
        "population.load_s": t("population.load_population"),
        "population.load_calls": calls.get("population.load_population", 0),
        "strategies.position_probabilities_s": t("strategies.position_probabilities"),
        "strategies.position_probabilities_calls": calls.get("strategies.position_probabilities", 0),
        "strategies.subset_states": counts.get("subset_states", 0),
        "strategies.ikl_search_q_self_s": s("strategies.ikl_search_q"),
        "strategies.ikl_mean_exact_calls": calls.get("strategies.ikl_mean_exact", 0),
        "strategies.ef_schedule_s": t("strategies.ef_schedule"),
        "strategies.ef_steps": counts.get("ef_steps", 0),
        "distributions.geometric_law_s": t("distributions.dist_j", "distributions.dist_mn"),
        "distributions.law_horizon_sum": counts.get("law_horizon", 0),
        "distributions.pmf_entries": counts.get("pmf_entries", 0),
        "distributions.permutation_law_self_s": s("distributions.dist_ikl_exact",
                                                  "distributions.dist_op_exact"),
        "distributions.closed_law_s": t("distributions.dist_abcd", "distributions.dist_ef",
                                        "distributions.dist_gh"),
        "distributions.csv_write_s": t("distributions.write_distribution_csv"),
        "distributions.csv_bytes": counts.get("csv_bytes", 0),
        "ordering.dominance_report_self_s": s("ordering.dominance_report"),
        "ordering.compare_s": t("ordering.stochastic_compare"),
        "ordering.compare_calls": calls.get("ordering.stochastic_compare", 0),
        "ordering.cdf_points": counts.get("cdf_points", 0),
        "montecarlo.simulate_self_s": s("montecarlo.simulate"),
        "montecarlo.reps": reps,
        "montecarlo.chunks": counts.get("chunks", 0),
        "montecarlo.distinct_steps": counts.get("distinct_steps", 0),
        "montecarlo.detected_ratio": counts.get("detected", 0) / reps if reps else 0.0,
        "montecarlo.dkw_check_s": t("montecarlo.dkw_check"),
        "cli.self_s": cli_self,
    }
