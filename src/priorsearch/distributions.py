"""Exact distributions of the inspection count under each model's policy.

Every law is represented as a dense pmf over the steps 1..horizon plus an
explicit atom at infinity. The atom carries genuinely defective mass for the
no-replacement imperfect-recognition models (GH, OP) and pure truncation mass
for laws with unbounded support computed up to a horizon (EF schedules,
geometric-type J/MN laws); ``truncated`` distinguishes the two cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import strategies
from .population import InspectionWeights, Population, check_weights, write_table
from .strategies import Schedule, descending_order, first_below, reachable

MASS_BALANCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InspectionDistribution:
    """Discrete law of the number of inspections, with an atom at infinity.

    ``pmf`` is a read-only float64 array with ``pmf[k]`` = P(T = k+1), so
    ``horizon`` = ``len(pmf)`` is the last step the law covers;
    ``atom_at_infinity`` absorbs everything beyond, and ``truncated`` marks
    that atom as a computation artifact rather than a property of the model.
    ``cdf`` is the read-only cumsum of ``pmf``, built once with the law.
    """

    pmf: np.ndarray
    atom_at_infinity: float
    truncated: bool = False
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=float)
        if pmf.ndim != 1:
            raise ValueError(f"pmf must be one-dimensional, got shape {pmf.shape}")
        bad = (pmf < 0.0) | ~np.isfinite(pmf)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"pmf({k + 1}) = {float(pmf[k])!r} is negative or not finite")
        if not (-1e-15 <= self.atom_at_infinity <= 1.0 + 1e-12):
            raise ValueError(f"atom_at_infinity {self.atom_at_infinity!r} outside [0, 1]")
        total = math.fsum(pmf.tolist()) + self.atom_at_infinity
        if abs(total - 1.0) > MASS_BALANCE_TOL:
            raise ValueError(f"pmf plus atom sums to {total!r}, not 1")
        cdf = np.cumsum(pmf)
        pmf.flags.writeable = cdf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "atom_at_infinity", max(float(self.atom_at_infinity), 0.0))

    @property
    def horizon(self) -> int:
        return len(self.pmf)

    def cdf_array(self, upto: int | None = None) -> np.ndarray:
        """cdf evaluated at 1..upto (default: the horizon), a view of ``cdf`` through the horizon.

        Past the horizon ``cdf`` is extended with its final value, the same
        floats as cumulating a zero-padded pmf, since c + 0.0 = c.
        """
        upto = self.horizon if upto is None else int(upto)
        if 0 <= upto <= self.horizon:
            return self.cdf[:upto]
        return np.concatenate((self.cdf, np.full(upto - self.horizon, self.cdf[-1] if self.horizon else 0.0)))

    def mean_finite(self) -> float:
        """Mean over the finite support only (ignores any atom at infinity)."""
        return math.fsum((np.arange(1, self.horizon + 1) * self.pmf).tolist())


def dist_abcd(pop: Population) -> InspectionDistribution:
    """Descending-prior order, perfect recognition: pmf(k) = k-th largest prior."""
    return InspectionDistribution(pop.p[descending_order(pop.p)], atom_at_infinity=0.0)


def dist_ef(sched: Schedule) -> InspectionDistribution:
    """Law of the greedy schedule: pmf(t) is step t's detection mass.

    The residual schedule mass lands in the atom flagged as truncation; it
    vanishes as the schedule extends since detection is eventually certain.
    """
    return InspectionDistribution(sched.masses, sched.residual_mass, truncated=sched.residual_mass > 0.0)


def dist_gh(pop: Population) -> InspectionDistribution:
    """Exact law of the one-pass walk in descending s_i p_i order.

    The target is found at step k when the k-th item walked is the target and
    gets recognized there, so pmf(k) is the k-th largest detection mass
    s_i p_i; undetected mass sum_i (1-s_i) p_i is a genuine atom at infinity.
    """
    mass = pop.s * pop.p
    atom = math.fsum(((1.0 - pop.s) * pop.p).tolist())
    return InspectionDistribution(mass[descending_order(mass)], atom_at_infinity=atom)


def _geometric_mixture_dist(pop: Population, rates: np.ndarray) -> InspectionDistribution:
    """Law of a mixture of geometrics: P(T <= m) = 1 - sum_k p_k (1-rate_k)^m.

    An item that ``reachable`` rules out is never found: its prior goes to the
    truncation atom. The slowest reachable item's own tail (1-rate)^H reaches
    TAIL_EPS at step H, or H is HORIZON_CAP. The law ends at the ``first_below``
    in [0, H) of its exact tail sum_k p_k (1-rate_k)^m, which is its atom. Each
    block of B = isqrt(H) steps starts from p_k rate_k (1-rate_k)^(bB) and steps
    on by (1-rate_k)^r, r < B: O(sqrt(H) N) powers, not one per step and item.
    Each is np.float_power, the C pow, since numpy's SIMD power varies by CPU.
    """
    live = reachable(rates)
    p, rates, fail = pop.p[live], rates[live], 1.0 - rates[live]
    slowest = float(rates.min(initial=1.0))
    own_end = math.ceil(math.log(strategies.TAIL_EPS) / math.log1p(-slowest)) if slowest < 1.0 else 1
    horizon = min(strategies.HORIZON_CAP, max(1, own_end))

    def tail(m: int) -> float:
        return float(p @ np.float_power(fail, m))

    stop = first_below(tail, horizon)
    # pmf[bB + r] = sum_k (p_k rate_k fail_k^(bB)) fail_k^r: block starts (stop/B x N) @ powers (N x B).
    width = math.isqrt(horizon)
    starts = (p * rates) * np.float_power(fail, np.arange(0, stop, width)[:, None])
    pmf = (starts @ np.float_power(fail[:, None], np.arange(width))).ravel()[:stop]
    atom = tail(stop) + math.fsum(pop.p[~live].tolist())
    return InspectionDistribution(pmf, atom_at_infinity=atom, truncated=atom > 0.0)


def dist_j(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Replacement sampling, perfect recognition: P(T <= m) = 1 - sum_k p_k (1-q_k)^m."""
    check_weights(pop, q)
    return _geometric_mixture_dist(pop, q.q)


def dist_mn(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Replacement sampling, imperfect recognition: success rate s_k q_k per step."""
    check_weights(pop, q)
    return _geometric_mixture_dist(pop, pop.s * q.q)


def _race_pmf(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """pmf[k] = sum_i w_i P(item i is drawn at step k+1) under successive sampling with weights q.

    When every q_i is equal, every draw order is equally likely, so each item
    is drawn at each step with probability 1/N and pmf[k] = fsum(w) / N: one
    correctly rounded division, with nothing cancelling. Any other q goes
    through the quadrature below.

    Successive sampling with weights q is an exponential race: item j is drawn
    by time t with probability b_j = 1 - a_j, a_j = exp(-q_j t). So pmf[k] is
    the integral over t of [z^k] B_w, B_w = sum_i w_i q_i a_i prod_{j != i} (a_j + b_j z).
    Item by item, B_w <- B_w (a_m + b_m z) + w_m q_m a_m A, then A <- A (a_m + b_m z),
    so A = prod_j (a_j + b_j z): no term is negative, none is divided, O(N^2) a node.
    The nodes are a trapezoid rule in u, t = exp(u - exp(-u)) (Takahasi and Mori
    1974), from t max q < 1e-18 to t min q = 50e, in blocks of 2^15 coefficients,
    at step h = min(1/8, 0.6/sqrt(N)), since step k's integrand narrows like 1/sqrt(k).
    """
    n = q.size
    if (q == q[0]).all():
        return np.full(n, math.fsum(w.tolist()) / n)
    rate = w * q
    # h is a multiple of 2^-12, so every node u = h j is exact; rounding u would move nodes unevenly.
    h = max(math.floor(4096 * min(0.125, 0.6 / math.sqrt(n))), 1) / 4096
    lo = -math.log(-math.log(1e-18 / float(q.max())))
    hi = max(math.log(50.0 / float(q.min())), 0.0) + 1.0
    u = h * np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
    pmf = np.zeros(n)
    rows = max(1, 2**15 // (n + 1))
    for ub in (u[first : first + rows] for first in range(0, u.size, rows)):
        t = np.exp(ub - np.exp(-ub))
        qt = np.multiply.outer(-q, t)
        a, b = np.exp(qt), -np.expm1(qt)
        # A and B_w, coefficient k of z in row k, one column per node.
        poly, carry, lead = np.zeros((2, n + 1, ub.size)), np.empty((2, n, ub.size)), np.empty((n, ub.size))
        poly[0, 0] = 1.0
        for m in range(1, n + 1):  # degrees above m are still zero
            np.multiply(poly[:, :m], b[m - 1], out=carry[:, :m])
            poly[:, :m] *= a[m - 1]
            np.multiply(rate[m - 1], poly[0, :m], out=lead[:m])  # w_m q_m a_m A
            poly[1, :m] += lead[:m]
            poly[:, 1 : m + 1] += carry[:, :m]
        # Summed along the contiguous node axis, so numpy adds pairwise.
        pmf += (poly[1, :n] * (h * t * (1.0 + np.exp(-ub)))).sum(axis=-1)
    return pmf


def dist_ikl_exact(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Exact law of the without-replacement democratic model at weights q, from the race integral."""
    check_weights(pop, q)
    return InspectionDistribution(_race_pmf(q.q, pop.p), atom_at_infinity=0.0)


def dist_op_exact(pop: Population, q: InspectionWeights) -> InspectionDistribution:
    """Exact process law of model OP at weights q: the race integral at w = s p, with atom sum_i (1-s_i) p_i."""
    check_weights(pop, q)
    atom = math.fsum(((1.0 - pop.s) * pop.p).tolist())
    return InspectionDistribution(_race_pmf(q.q, pop.s * pop.p), atom)


def write_distribution_csv(path: str | Path, dist: InspectionDistribution) -> None:
    """Rows `m,pmf,cdf`, then metadata rows `atom_at_infinity,<v>` and `truncated,<bool>`."""
    rows = zip(range(1, dist.horizon + 1), dist.pmf.tolist(), dist.cdf.tolist())
    metadata = [("atom_at_infinity", repr(dist.atom_at_infinity)), ("truncated", str(dist.truncated).lower())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_table(fh, ["m", "pmf", "cdf"], chain(rows, metadata))
