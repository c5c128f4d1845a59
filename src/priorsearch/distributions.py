"""Exact distributions of the inspection count under each model's policy.

Every law is represented as a dense pmf over the steps 1..horizon plus an
explicit atom at infinity. The atom carries genuinely defective mass for the
no-replacement imperfect-recognition models (GH, OP) and pure truncation mass
for laws with unbounded support computed up to a horizon (EF schedules,
geometric-type J/MN laws); ``truncated`` distinguishes the two cases.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .population import InspectionWeights, Population
from .strategies import Schedule, descending_prior_order, position_probabilities

MASS_BALANCE_TOL = 1e-9
DEFAULT_TAIL_EPS = 1e-12
HORIZON_CAP = 10**6


@dataclass(frozen=True, eq=False)
class InspectionDistribution:
    """Discrete law of the number of inspections, with an atom at infinity.

    ``pmf`` is a read-only float64 array with ``pmf[k]`` = P(T = k+1), so
    ``horizon`` = ``len(pmf)`` is the last step the law covers;
    ``atom_at_infinity`` absorbs everything beyond, and ``truncated`` marks
    that atom as a computation artifact rather than a property of the model.
    """

    pmf: np.ndarray
    atom_at_infinity: float
    truncated: bool = False

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=float)
        if pmf.ndim != 1:
            raise ValueError(f"pmf must be one-dimensional, got shape {pmf.shape}")
        if not pmf.size and self.atom_at_infinity <= 0.0:
            raise ValueError("distribution has no mass at all")
        if (pmf < 0.0).any():
            k = int(np.argmax(pmf < 0.0))
            raise ValueError(f"pmf({k + 1}) = {float(pmf[k])!r} is negative")
        if not (-1e-15 <= self.atom_at_infinity <= 1.0 + 1e-12):
            raise ValueError(f"atom_at_infinity {self.atom_at_infinity!r} outside [0, 1]")
        total = math.fsum(pmf.tolist()) + self.atom_at_infinity
        if abs(total - 1.0) > MASS_BALANCE_TOL:
            raise ValueError(f"pmf plus atom sums to {total!r}, not 1")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "atom_at_infinity", max(float(self.atom_at_infinity), 0.0))

    @property
    def horizon(self) -> int:
        return len(self.pmf)

    def cdf_array(self, upto: int | None = None) -> np.ndarray:
        """cdf evaluated at 1..upto (default: the horizon); flat past the horizon."""
        upto = self.horizon if upto is None else int(upto)
        dense = np.zeros(upto)
        dense[: self.horizon] = self.pmf[:upto]
        return np.cumsum(dense)

    def cdf(self, m: int) -> float:
        return math.fsum(self.pmf[: max(int(m), 0)].tolist())

    @property
    def total_finite_mass(self) -> float:
        return math.fsum(self.pmf.tolist())

    def mean_finite(self) -> float:
        """Mean over the finite support only (ignores any atom at infinity)."""
        return math.fsum((np.arange(1, self.horizon + 1) * self.pmf).tolist())

    def conditional_on_detection(self) -> "InspectionDistribution":
        """The law given the target is found (finite support renormalized)."""
        finite = self.total_finite_mass
        if finite <= 0.0:
            raise ValueError("no finite mass to condition on")
        return InspectionDistribution(self.pmf / finite, atom_at_infinity=0.0, truncated=self.truncated)

    def sup_cdf_distance(self, other: "InspectionDistribution") -> float:
        upto = max(self.horizon, other.horizon)
        return float(np.abs(self.cdf_array(upto) - other.cdf_array(upto)).max())


def dist_abcd(pop: Population) -> InspectionDistribution:
    """Descending-prior order, perfect recognition: pmf(k) = k-th largest prior."""
    order = np.asarray(descending_prior_order(pop)) - 1
    return InspectionDistribution(pop.p[order], atom_at_infinity=0.0)


def dist_ef(sched: Schedule) -> InspectionDistribution:
    """Law of the greedy schedule: pmf(t) is step t's detection mass.

    The residual schedule mass lands in the atom flagged as truncation; it
    vanishes as the schedule extends since detection is eventually certain.
    """
    return InspectionDistribution(
        [st.detect_prob for st in sched.steps],
        atom_at_infinity=sched.residual_mass,
        truncated=sched.residual_mass > 0.0,
    )


def dist_gh(pop: Population) -> InspectionDistribution:
    """Exact law of the one-pass descending-prior walk with imperfect recognition.

    The item at position k is the target and gets recognized there with
    probability s_(k) p_(k); undetected mass sum_i (1-s_i) p_i is a genuine
    atom at infinity.
    """
    order = np.asarray(descending_prior_order(pop)) - 1
    atom = math.fsum(((1.0 - pop.s) * pop.p).tolist())
    return InspectionDistribution(pop.p[order] * pop.s[order], atom_at_infinity=atom)


def _geometric_mixture_dist(
    pop: Population, rates: np.ndarray, horizon: int | None
) -> InspectionDistribution:
    """Law of a mixture of geometrics: P(T <= m) = 1 - sum_k p_k (1-rate_k)^m.

    The law stops at the last step whose mass is nonzero in floating point.
    """
    fail = 1.0 - rates
    if horizon is None:
        # Smallest horizon with tail mass below DEFAULT_TAIL_EPS, capped. A rate
        # so small that 1 - rate rounds to 1 has log(1 - rate) = 0; log1p keeps
        # it finite, and such a rate takes the capped horizon.
        slowest = float(rates.min())
        if slowest >= 1.0:
            horizon = 1
        else:
            horizon = int(min(HORIZON_CAP, max(1, math.ceil(math.log(DEFAULT_TAIL_EPS) / math.log1p(-slowest)))))
            while horizon < HORIZON_CAP and float(pop.p @ fail**horizon) >= DEFAULT_TAIL_EPS:
                horizon = min(HORIZON_CAP, horizon * 2)
    elif horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    horizon = int(horizon)
    pmf = np.empty(horizon)
    # pmf[m] = sum_k p_k rate_k (1-rate_k)^m; processed in blocks to keep
    # memory bounded for large horizons.
    block = 1 << 15
    for start in range(0, horizon, block):
        m = np.arange(start, min(horizon, start + block))
        pmf[start : start + len(m)] = fail[None, :] ** m[:, None] @ (pop.p * rates)
    tail = float(pop.p @ fail**horizon)
    return InspectionDistribution(np.trim_zeros(pmf, "b"), atom_at_infinity=tail, truncated=tail > 0.0)


def dist_j(pop: Population, q: InspectionWeights, horizon: int | None = None) -> InspectionDistribution:
    """Replacement sampling, perfect recognition: P(T <= m) = 1 - sum_k p_k (1-q_k)^m."""
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    return _geometric_mixture_dist(pop, q.q, horizon)


def dist_mn(pop: Population, q: InspectionWeights, horizon: int | None = None) -> InspectionDistribution:
    """Replacement sampling, imperfect recognition: success rate s_k q_k per step."""
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    return _geometric_mixture_dist(pop, pop.s * q.q, horizon)


def dist_ikl_exact(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Exact law of the without-replacement democratic model at weights q."""
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    return InspectionDistribution(pop.p @ position_probabilities(q), atom_at_infinity=0.0)


def dist_op_exact(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Exact process law of model OP at weights q.

    The target sits at a random permutation position; when inspected there it
    is recognized with its own probability s_i, so pmf(k) weights each item's
    position probability by s_i p_i. The atom sum_i (1-s_i) p_i does not
    depend on q.

    Note the ordering module compares model OP through a coarser
    detection-thinned representation (see ordering.py); the two coincide
    exactly when all s_i are equal.
    """
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    atom = math.fsum(((1.0 - pop.s) * pop.p).tolist())
    return InspectionDistribution((pop.s * pop.p) @ position_probabilities(q), atom_at_infinity=atom)


def thin_by_detection(dist: InspectionDistribution, detect_prob: float) -> InspectionDistribution:
    """Law of the count when an independent coin decides whether detection ever works.

    With probability ``detect_prob`` the count follows ``dist``; otherwise it
    is infinite. This is the representation the ordering analysis uses for
    the defective models; it matches their exact process laws exactly when
    recognition probabilities are constant across items.
    """
    if not (0.0 < detect_prob <= 1.0):
        raise ValueError(f"detect_prob {detect_prob!r} outside (0, 1]")
    atom = 1.0 - detect_prob * (1.0 - dist.atom_at_infinity)
    return InspectionDistribution(dist.pmf * detect_prob, atom_at_infinity=atom, truncated=dist.truncated)


def write_distribution_csv(path_or_file, dist: InspectionDistribution) -> None:
    """Rows `m,pmf,cdf`, then metadata rows `atom_at_infinity,<v>` and `truncated,<bool>`."""

    def _write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["m", "pmf", "cdf"])
        writer.writerows(zip(range(1, dist.horizon + 1), dist.pmf.tolist(), dist.cdf_array().tolist()))
        writer.writerow(["atom_at_infinity", repr(dist.atom_at_infinity)])
        writer.writerow(["truncated", str(dist.truncated).lower()])

    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def distribution_csv_text(dist: InspectionDistribution) -> str:
    buf = io.StringIO()
    write_distribution_csv(buf, dist)
    return buf.getvalue()
