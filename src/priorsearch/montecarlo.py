"""Seeded Monte Carlo simulation of the seven inspection processes.

Each replication hides the target at an index drawn from the priors, then
runs the model's actual inspection process until detection, exhaustion, or
the step cap; exhausted and capped replications are censored. The engine
simulates the exact processes, so empirical laws converge to the exact
per-item distributions (not the detection-thinned representations used by
the ordering analysis).

Determinism contract: a run is fully determined by (population, config).
Replications are processed in fixed-size chunks of 4096, and chunk c draws
from its own generator seeded by SeedSequence(seed, spawn_key=(c,)), so the
result is bit-identical no matter how chunks would be scheduled across
workers; count merging is commutative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS, MODELS, Model
from .population import InspectionWeights, Population
from .strategies import (
    DEFAULT_EF_EPS,
    DEFAULT_EF_MAX_STEPS,
    Schedule,
    descending_prior_order,
    ef_schedule,
)

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

    ``mean_detected`` and ``stderr`` cover detected replications only;
    with zero detections they are NaN.
    """

    counts: Mapping[int, int]
    censored: int
    mean_detected: float
    stderr: float

    @property
    def reps(self) -> int:
        return sum(self.counts.values()) + self.censored

    @property
    def detected(self) -> int:
        return sum(self.counts.values())

    def cdf_array(self, upto: int, conditional: bool = True) -> np.ndarray:
        """Empirical cdf at 1..upto, by default conditioned on detection."""
        denom = self.detected if conditional else self.reps
        dense = np.zeros(upto + 1)
        for m, c in self.counts.items():
            if m <= upto:
                dense[m] = c
        if denom == 0:
            return np.zeros(upto)
        return np.cumsum(dense)[1:] / denom


def sample_target_index(pop: Population, rng: np.random.Generator) -> int:
    """Draw the hidden target's 1-based index: i with probability p_i.

    Consumes one uniform variate and inverts the cumulative priors, so the
    cut points respect index order (u < p_1 selects item 1, and so on). When
    rounding leaves the last cumulative prior below u, the draw goes to the
    last item, as in the simulation kernel.
    """
    u = rng.random()
    return min(int(np.searchsorted(pop.cumulative_p, u, side="right")), pop.n - 1) + 1


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


def _ef_attempt_table(sched: Schedule, n: int) -> list[np.ndarray]:
    """Per item, the schedule step of each attempt (attempt j at entry j-1)."""
    table: list[list[int]] = [[] for _ in range(n)]
    for st in sched.steps:
        table[st.item - 1].append(st.t)
    return [np.asarray(ts, dtype=np.int64) for ts in table]


def _simulate_chunk(
    pop: Population,
    model: Model,
    cfg: SimConfig,
    rng: np.random.Generator,
    m: int,
    ef_table: list[np.ndarray] | None,
) -> tuple[np.ndarray, int]:
    """Detected steps for one chunk (censored replications dropped).

    The chunk draws the target uniforms, then the walk's own draws, then a
    defective model's recognition coins.
    """
    s = pop.s
    n = pop.n
    target = np.minimum(
        np.searchsorted(pop.cumulative_p, rng.random(m), side="right"), n - 1
    )
    if model.walk == "order":
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(descending_prior_order(pop)) - 1] = np.arange(1, n + 1)
        steps = rank[target]
    elif model.walk == "schedule":
        attempts = _geometric_from_uniform(rng.random(m), s[target], cfg.max_steps)
        steps = np.full(m, NEVER)
        for i, table in enumerate(ef_table):
            idx = np.flatnonzero((target == i) & (attempts <= table.size))
            steps[idx] = table[attempts[idx] - 1]
    elif model.walk == "geometric":
        steps = _geometric_from_uniform(rng.random(m), model.rate(pop, cfg.q)[target], cfg.max_steps)
    else:
        # Successive sampling as an exponential race: item i is drawn in
        # ascending order of E_i / q_i with E_i iid standard exponential,
        # which reproduces the without-replacement law exactly.
        keys = rng.standard_exponential((m, n)) / cfg.q.q
        steps = (keys <= keys[np.arange(m), target][:, None]).sum(axis=1)
    detected = steps <= cfg.max_steps
    if model.thins is not None:
        detected &= rng.random(m) < s[target]
    return steps[detected], int(m - detected.sum())


def simulate(pop: Population, cfg: SimConfig) -> EmpiricalResult:
    """Run ``cfg.reps`` independent replications of the model's process."""
    if cfg.q is not None and cfg.q.n != pop.n:
        raise ValueError(f"weights size {cfg.q.n} != population size {pop.n}")
    model = MODELS[cfg.model]
    ef_table = None
    if model.walk == "schedule":
        sched = ef_schedule(
            pop, eps=DEFAULT_EF_EPS, max_steps=min(cfg.max_steps, DEFAULT_EF_MAX_STEPS)
        )
        ef_table = _ef_attempt_table(sched, pop.n)
    counts: dict[int, int] = {}
    censored = 0
    seed = int(cfg.seed) % (1 << 64)
    n_chunks = (cfg.reps + CHUNK - 1) // CHUNK
    for c in range(n_chunks):
        size = min(CHUNK, cfg.reps - c * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        steps, cens = _simulate_chunk(pop, model, cfg, rng, size, ef_table)
        censored += cens
        if steps.size:
            values, reps_at = np.unique(steps, return_counts=True)
            for step_val, cnt in zip(values, reps_at):
                counts[int(step_val)] = counts.get(int(step_val), 0) + int(cnt)
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
    return EmpiricalResult(counts=counts, censored=censored, mean_detected=mean, stderr=stderr)


def dkw_band(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz sup-norm band: sqrt(ln(2/alpha) / (2 n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def dkw_check(emp: EmpiricalResult, exact: InspectionDistribution, alpha: float = 0.001) -> bool:
    """Whether the empirical law is DKW-consistent with the exact law.

    The censored fraction must match the exact atom within the band for the
    full replication count; detected steps are then compared through
    detection-conditioned cdfs with the band for the detected count. With
    tiny replication counts the bands exceed 1 and the check is vacuously
    true.
    """
    reps = emp.reps
    band_all = dkw_band(reps, alpha)
    emp_atom = emp.censored / reps
    if abs(emp_atom - exact.atom_at_infinity) > band_all:
        return False
    detected = emp.detected
    if detected == 0:
        return True
    finite = 1.0 - exact.atom_at_infinity
    if finite <= 0.0:
        return False
    band = dkw_band(detected, alpha)
    upto = max(exact.horizon, max(emp.counts, default=1))
    emp_cdf = emp.cdf_array(upto, conditional=True)
    exact_cdf = exact.cdf_array(upto) / finite
    return float(np.abs(emp_cdf - exact_cdf).max()) <= band


def write_empirical_csv(
    path_or_file, emp: EmpiricalResult, config_echo: Mapping | None = None
) -> None:
    """Rows `m,count` plus a trailing `censored,<n>` row.

    When given, the run configuration is echoed as a JSON comment on the
    first line so the file is self-describing.
    """

    def _write(fh) -> None:
        if config_echo is not None:
            fh.write("# config " + json.dumps(config_echo, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["m", "count"])
        for m in sorted(emp.counts):
            writer.writerow([m, emp.counts[m]])
        writer.writerow(["censored", emp.censored])

    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def empirical_csv_text(emp: EmpiricalResult, config_echo: Mapping | None = None) -> str:
    buf = io.StringIO()
    write_empirical_csv(buf, emp, config_echo)
    return buf.getvalue()
