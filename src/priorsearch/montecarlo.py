"""Seeded Monte Carlo simulation of the seven inspection processes.

Each replication hides the target at an index drawn from the priors, then
runs the model's actual inspection process until detection, exhaustion, or
the step cap; undetected and capped replications are censored. The engine
simulates the exact processes, so empirical laws converge to the exact
per-item distributions. Each walk is whole-array code over a chunk: EF looks
each detecting step up in the schedule's steps grouped by item.

Determinism contract: a run is fully determined by (population, config).
Replications are processed in fixed-size chunks of 4096, and chunk c draws
from its own generator seeded by SeedSequence(seed, spawn_key=(c,)), so the
result is bit-identical no matter how chunks would be scheduled across
workers; count merging is commutative.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS, MODELS, Model
from .population import InspectionWeights, Population
from .strategies import Schedule, descending_order, ef_schedule

CHUNK = 4096
# Step of a replication whose walk never reaches the target; above any max_steps.
NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimConfig:
    model: str
    reps: int
    seed: int
    max_steps: int = 10**7
    q: InspectionWeights | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {LABELS}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        # Attempt counts are drawn as floats and capped at max_steps + 1, which
        # float64 holds exactly below 2**53.
        if not 1 <= self.max_steps < 2**53:
            raise ValueError("max_steps must be in [1, 2**53)")
        takes_q = MODELS[self.model].takes_q
        if takes_q and self.q is None:
            raise ValueError(f"model {self.model} requires inspection weights q")
        if not takes_q and self.q is not None:
            raise ValueError(f"model {self.model} does not take inspection weights")


@dataclass(frozen=True)
class EmpiricalResult:
    """Simulation outcome: detection-step counts plus censoring.

    A censored replication is ``undetected`` when a defective model reached the
    target and missed it, ``capped`` when the walk did not reach it within
    ``max_steps`` steps (or, for EF, the schedule). ``mean_detected`` and
    ``stderr`` cover detected replications only; with none they are NaN.
    """

    counts: Mapping[int, int]
    undetected: int
    capped: int
    max_steps: int
    mean_detected: float
    stderr: float

    @property
    def censored(self) -> int:
        return self.undetected + self.capped

    @property
    def reps(self) -> int:
        return sum(self.counts.values()) + self.censored

    @property
    def detected(self) -> int:
        return sum(self.counts.values())

    def cdf_array(self, upto: int) -> np.ndarray:
        """Empirical cdf at 1..upto, conditioned on detection."""
        dense = np.zeros(upto + 1)
        for m, c in self.counts.items():
            if m <= upto:
                dense[m] = c
        if self.detected == 0:
            return np.zeros(upto)
        return np.cumsum(dense)[1:] / self.detected


def _draw_targets(pop: Population, rng: np.random.Generator, m: int) -> np.ndarray:
    """0-based indices of m hidden targets, index i drawn with probability p[i].

    Consumes m uniform variates and inverts the cumulative priors, so the
    cut points respect index order (u < p[0] selects index 0, and so on). When
    rounding leaves the last cumulative prior below u, the draw goes to the
    last item.
    """
    return np.minimum(np.searchsorted(pop.cumulative_p, rng.random(m), side="right"), pop.n - 1)


def _geometric_from_uniform(u: np.ndarray, rate: np.ndarray, max_steps: int) -> np.ndarray:
    """Attempt count T >= 1 with P(T = j) = (1-rate)^(j-1) rate, via inversion.

    Counts beyond ``max_steps`` come back as ``max_steps + 1``: a tiny rate
    would otherwise overflow the int64 cast into a negative count.
    """
    out = np.ones_like(u, dtype=np.int64)
    partial = rate < 1.0
    if np.any(partial):
        with np.errstate(divide="ignore"):
            raw = np.ceil(np.log1p(-u[partial]) / np.log1p(-rate[partial]))
        out[partial] = np.clip(raw, 1.0, max_steps + 1).astype(np.int64)
    return out


def _ef_attempt_table(sched: Schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, start, size): item i's attempt j <= size[i] is step flat[start[i] + j - 1]."""
    size = np.bincount(sched.steps, minlength=n)
    return np.argsort(sched.steps, kind="stable") + 1, np.cumsum(size) - size, size


def _simulate_chunk(
    pop: Population,
    model: Model,
    cfg: SimConfig,
    rng: np.random.Generator,
    m: int,
    ef_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, int, int]:
    """Detected steps for one chunk, then its undetected and capped counts.

    The chunk draws the target uniforms, then the walk's own draws, then a
    defective model's recognition coins.
    """
    s = pop.s
    n = pop.n
    target = _draw_targets(pop, rng, m)
    if model.walk == "order":
        rank = np.empty(n, dtype=np.int64)
        rank[descending_order(model.key(pop, cfg.q))] = np.arange(1, n + 1)
        steps = rank[target]
    elif model.walk == "schedule":
        attempts = _geometric_from_uniform(rng.random(m), s[target], cfg.max_steps)
        flat, start, size = ef_table
        steps = np.full(m, NEVER)
        hit = attempts <= size[target]
        steps[hit] = flat[start[target[hit]] + attempts[hit] - 1]
    elif model.walk == "geometric":
        steps = _geometric_from_uniform(rng.random(m), model.key(pop, cfg.q)[target], cfg.max_steps)
    else:
        # Successive sampling as an exponential race: item i is drawn in
        # ascending order of E_i / q_i with E_i iid standard exponential,
        # which reproduces the without-replacement law exactly.
        keys = rng.standard_exponential((m, n))
        keys /= cfg.q.q
        steps = np.count_nonzero(keys <= keys[np.arange(m), target][:, None], axis=1)
    reached = steps <= cfg.max_steps
    detected = reached & (rng.random(m) < s[target]) if model.defective else reached
    return steps[detected], int(np.count_nonzero(reached & ~detected)), int(m - np.count_nonzero(reached))


def walk_schedule(pop: Population, cfg: SimConfig) -> Schedule | None:
    """The EF schedule, at its defaults whatever the cap, that ``cfg.model`` walks; else None."""
    return ef_schedule(pop) if MODELS[cfg.model].walk == "schedule" else None


def simulate(pop: Population, cfg: SimConfig, sched: Schedule | None = None) -> EmpiricalResult:
    """Run ``cfg.reps`` replications of the model's process; EF walks ``walk_schedule(pop, cfg)``.

    A caller that has built that schedule passes it as ``sched``.
    """
    if cfg.q is not None and cfg.q.n != pop.n:
        raise ValueError(f"weights size {cfg.q.n} != population size {pop.n}")
    model = MODELS[cfg.model]
    sched = walk_schedule(pop, cfg) if sched is None else sched
    ef_table = None if sched is None else _ef_attempt_table(sched, pop.n)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    n_chunks = (cfg.reps + CHUNK - 1) // CHUNK
    for c in range(n_chunks):
        size = min(CHUNK, cfg.reps - c * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        steps, missed, cut = _simulate_chunk(pop, model, cfg, rng, size, ef_table)
        undetected += missed
        capped += cut
        if steps.size:
            values, reps_at = np.unique(steps, return_counts=True)
            for step_val, cnt in zip(values.tolist(), reps_at.tolist()):  # 4x faster than numpy scalars
                counts[step_val] = counts.get(step_val, 0) + cnt
    detected = sum(counts.values())
    if detected == 0:
        mean = math.nan
        stderr = math.nan
    else:
        mean = math.fsum(step * cnt for step, cnt in sorted(counts.items())) / detected
        if detected > 1:
            var = math.fsum(cnt * (step - mean) ** 2 for step, cnt in sorted(counts.items()))
            stderr = math.sqrt(var / (detected - 1) / detected)
        else:
            stderr = math.nan
    return EmpiricalResult(counts=counts, undetected=undetected, capped=capped, max_steps=cfg.max_steps,
                           mean_detected=mean, stderr=stderr)


def dkw_band(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz sup-norm band: sqrt(ln(2/alpha) / (2 n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def dkw_check(emp: EmpiricalResult, exact: InspectionDistribution, alpha: float = 0.001) -> bool:
    """Whether the empirical law is DKW-consistent with the exact law.

    The exact law's mass beyond ``emp.max_steps`` first moves to its atom, as
    capped replications are censored. The censored fraction must match that
    atom within the band for the full replication count; detected steps are
    then compared through detection-conditioned cdfs with the band for the
    detected count. With tiny replication counts the bands exceed 1 and the
    check is vacuously true.
    """
    atom = exact.atom_at_infinity + math.fsum(exact.pmf[emp.max_steps :].tolist())
    reps = emp.reps
    band_all = dkw_band(reps, alpha)
    emp_atom = emp.censored / reps
    if abs(emp_atom - atom) > band_all:
        return False
    detected = emp.detected
    if detected == 0:
        return True
    finite = 1.0 - atom
    if finite <= 0.0:
        return False
    band = dkw_band(detected, alpha)
    upto = max(min(exact.horizon, emp.max_steps), max(emp.counts, default=1))
    return float(np.abs(emp.cdf_array(upto) - exact.cdf_array(upto) / finite).max()) <= band


def write_empirical_csv(path: str | Path, emp: EmpiricalResult, config_echo: Mapping) -> None:
    """Rows `m,count` plus a trailing `censored,<n>` row.

    The run configuration is echoed as a JSON comment on the first line so
    the file is self-describing.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# config " + json.dumps(config_echo, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["m", "count"])
        for m in sorted(emp.counts):
            writer.writerow([m, emp.counts[m]])
        writer.writerow(["censored", emp.censored])
