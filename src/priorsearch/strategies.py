"""Optimal inspection policies and exact mean inspection counts per model.

Seven model families, labeled by the assumption combinations they serve:

    ABCD  enumerable items, perfect recognition. Inspect in descending
          prior order; replacement and memory make no difference.
    EF    enumerable items, imperfect recognition. A deterministic greedy
          schedule that always inspects the item with the largest current
          detection mass p_i (1-s_i)^{m_i} s_i (m_i attempts so far): one
          merge of the items' falling attempt masses, held in arrays.
    GH    enumerable items, imperfect recognition, no replacement. Walk the
          items once in descending order of detection mass s_i p_i; the
          target may escape detection, so the inspection count is defective
          (positive mass at infinity).
    IKL   democratic sampling without replacement (or with memory), perfect
          recognition. The inspection order is a random permutation drawn
          by successive sampling with weights q.
    J     democratic sampling with replacement, no memory, perfect
          recognition. The count is geometric given the target's weight.
    MN    as J but imperfect recognition: per-inspection success s_i q_i.
    OP    as IKL but imperfect recognition and no replacement; defective.

Means are exact closed forms; IKL's and OP's sum the pairwise draw orders in
O(N^2), or O(N) at equal weights. For the defective models GH and OP it is the
mean given detection; their detection probability is Population.detect_prob.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .population import Q_FLOOR, InspectionWeights, Population, check_weights

# The one truncation rule, which ``first_below`` reads here when it runs: the EF schedule and the J and MN
# laws end at the first step whose exact tail, the one each reports, is below TAIL_EPS, or after HORIZON_CAP steps.
TAIL_EPS = 1e-13
HORIZON_CAP = 10**6
# Floats of the pair quotients q_j / (q_i + q_j) that _pair_sums holds at once: 4 MiB at any N.
_PAIR_BUDGET = 2**19


@dataclass(frozen=True, eq=False)
class Schedule:
    """Greedy deterministic schedule for imperfect-recognition enumerable search.

    Step t+1 inspects the 0-based item ``steps[t]`` and finds the target there
    with probability ``masses[t]`` = p_i (1-s_i)^(a-1) s_i, at its a-th attempt.
    ``residual_mass``, the probability the target is still undetected after
    the last step, is a truncation artifact, not a model property; callers
    combine it with the partial mean as they see fit.
    """

    steps: np.ndarray
    masses: np.ndarray
    residual_mass: float


def descending_order(mass: np.ndarray) -> np.ndarray:
    """0-based item indices sorted by ``mass`` descending, ties by lowest index.

    Walked once in this order, the items' masses accumulate fastest at every step.
    """
    return np.argsort(-np.asarray(mass), kind="stable")


def one_pass_mean(found: np.ndarray) -> float:
    """sum_k k f_(k) over the masses ``found`` sorted descending: the mean step of a walk in that order."""
    return math.fsum((np.arange(1, found.size + 1) * found[descending_order(found)]).tolist())


def detected_share(pop: Population) -> np.ndarray:
    """f_i = s_i p_i / sum_j s_j p_j: the chance the target is item i, given a one-pass walk finds it."""
    if (detect := pop.detect_prob) <= 0.0:
        raise ValueError("no finite mass to condition on")
    return pop.s * pop.p / detect


def reachable(rates: np.ndarray) -> np.ndarray:
    """Which items inspections at these success rates can find: not one whose 1 - rate rounds to 1."""
    return 1.0 - rates < 1.0


def first_below(tail: Callable[[int], float], hi: int) -> int:
    """The first k < hi with tail(k) < TAIL_EPS, or hi when there is none, by bisection: no law's tail grows with k."""
    return bisect_left(range(hi), True, key=lambda k: tail(k) < TAIL_EPS)


def ef_schedule(pop: Population) -> Schedule:
    """Greedy schedule: each step inspects the item maximizing its detection mass.

    Each item's attempt masses p_i (1-s_i)^j s_i fall as j grows, so the greedy
    walk is a merge: one sort of the attempt masses, descending, ties to the
    lower item. An item that ``reachable`` rules out is never inspected, and its
    prior joins the residual. The merge is extended until its exact residual is
    below TAIL_EPS, or it holds HORIZON_CAP steps, or no attempt is left, as the
    J and MN laws stop at their cap. ``first_below`` then ends it at the first
    step whose exact residual is below TAIL_EPS, and the schedule carries its
    exact residual there, whatever it is.
    """
    reach = reachable(pop.s)
    p, lost = np.where(reach, pop.p, 0.0), math.fsum(pop.p[~reach].tolist())
    with np.errstate(divide="ignore"):
        lead, decay = np.log(p * pop.s), np.log1p(-pop.s)

    def attempts_above(floor: float) -> np.ndarray:
        """Per item, about how many attempts have mass >= floor, at most HORIZON_CAP."""
        return np.clip(np.floor((math.log(floor) - lead) / decay) + 1, 0, HORIZON_CAP).astype(np.int64)

    # With residual R left, the next mass is >= R / sum_i (1/s_i) over reachable i, as R = sum_i (rem_i s_i) / s_i.
    # That sum is at least 1 when any item is reachable; max(., 1) only stands in for an empty one.
    floor = max(0.5 * TAIL_EPS / max(math.fsum((1.0 / pop.s[reach]).tolist()), 1.0), math.ulp(0.0))
    while (count := attempts_above(floor)).sum() > 2 * HORIZON_CAP + pop.n:  # more than the budget can use
        floor *= 2.0
    while True:
        steps, masses, residual_after, exhausted = _merge(p, pop.s, count)
        if residual_after(steps.size) < TAIL_EPS or steps.size == HORIZON_CAP or exhausted:
            break
        count = np.minimum(2 * count + 1, HORIZON_CAP)  # the stop lies past the sorted prefix
    stop = first_below(residual_after, steps.size)
    return Schedule(steps=steps[:stop], masses=masses[:stop], residual_mass=residual_after(stop) + lost)


def _merge(p: np.ndarray, s: np.ndarray, count: np.ndarray):
    """The greedy's first steps, at most HORIZON_CAP, that the first count[i] attempts of item i fix.

    Item i has prior p[i] and recognition s[i]. One sort of all tabled attempts
    by mass, descending, gives the steps: the prefix before the first attempt past
    an item's count or the first zero mass (an attempt past HORIZON_CAP counts as
    zero). Returns the steps' items and masses, the exact residual after k steps
    as a function of k, and whether no later attempt can come within the budget.
    """
    n, width = p.size, count + 1
    # Repeated multiplication along the rows of one table per band of widths within
    # a factor 2 (or below 256), so memory stays within twice the remainders (plus 256 N).
    band = np.maximum(np.frexp(width)[1], 8)
    order = np.argsort(band, kind="stable")
    parts = []
    for b in np.flatnonzero(np.bincount(band)):
        rows = np.flatnonzero(band == b)
        table = np.empty((rows.size, int(width[rows].max())))
        table[:, 0], table[:, 1:] = p[rows], (1.0 - s[rows])[:, None]
        np.multiply.accumulate(table, axis=1, out=table)
        parts.append(table[np.arange(table.shape[1]) < width[rows, None]])
    rem, item = np.concatenate(parts), np.repeat(order, width[order])
    first = np.empty(n, dtype=np.int64)
    first[order] = np.cumsum(width[order]) - width[order]
    mass, nxt = rem * s[item], first + count
    mass[nxt[count == HORIZON_CAP]] = 0.0  # the budget never reaches an attempt past the cap
    # lexsort is stable, so ties go to the lower item and one item's equal masses keep their attempt order.
    by_mass = np.lexsort((item, -mass))
    cut = mass == 0.0
    cut[nxt] = True
    idx = by_mass[: min(int(np.argmax(cut[by_mass])), HORIZON_CAP)]
    steps = item[idx]
    # The last probe and its attempts per item, which the next probe moves by the steps in between.
    last, made = 0, np.zeros(n, dtype=np.int64)

    def residual_after(k: int) -> float:
        nonlocal last, made
        if k > last:
            made += np.bincount(steps[last:k], minlength=n)
        else:
            made -= np.bincount(steps[k:last], minlength=n)
        last = k
        return math.fsum(rem[first + made].tolist())

    return steps, mass[idx], residual_after, not (mass[nxt] > 0.0).any()


# ---------------------------------------------------------------------------
# Successive-sampling permutation law (models IKL / OP).
# ---------------------------------------------------------------------------


def position_probabilities(q: InspectionWeights) -> np.ndarray:
    """Matrix M with M[i, k] = P(item i is drawn at position k+1), by a 2^N subset DP.

    From prefix set S a free item i comes next with probability q_i / q(rest),
    one popcount level at a time. The tests hold dist_ikl_exact and dist_op_exact to it
    at N <= 10; the oracle's scalar loop repeats it bit for bit.
    """
    n = q.n
    qv = q.q
    size = 1 << n
    masks = np.arange(size)
    # q_sum[S] = total weight of S, added from the highest bit down: the order
    # of the scalar recurrence q_sum[S] = q_sum[S minus lowest bit] + q[lowest].
    q_sum = np.zeros(size)
    popcount = np.zeros(size, dtype=np.int64)
    for i in reversed(range(n)):
        has = (masks >> i) & 1
        q_sum += has * qv[i]
        popcount += has
    bits = 1 << np.arange(n)
    M = np.zeros((n, n))
    # prefix[S] = P(the first popcount(S) draws are exactly the set S).
    prefix = np.zeros(size)
    prefix[0] = 1.0
    for k in range(n):
        level = np.flatnonzero(popcount == k)  # ascending masks
        # W[r, i] = P(prefix set level[r], then item i); zero where i is taken.
        # Both reductions add in ascending mask order, as the oracle's scalar loop does.
        W = (prefix[level, None] * qv) / q_sum[(size - 1) ^ level, None]
        W[level[:, None] & bits != 0] = 0.0
        M[:, k] = W.sum(axis=0)
        prefix = np.bincount((level[:, None] | bits).ravel(), weights=W.ravel(), minlength=size)
    return M


def _pair_sums(q: np.ndarray) -> np.ndarray:
    """r_i = sum_{j != i} q_j / (q_i + q_j): item j is drawn before item i with probability q_j / (q_i + q_j).

    Blocks of max(1, _PAIR_BUDGET // N) rows; each row is summed exactly as in one N x N array.
    At equal weights each quotient is exactly 1/2, so r_i = (N - 1) / 2, the same bits, in O(N).
    """
    if (q == q[0]).all():
        return np.full(q.size, (q.size - 1) / 2)
    n, rows = q.size, max(1, _PAIR_BUDGET // q.size)
    sums, block = np.empty(n), np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        pair = np.add.outer(q[lo : lo + rows], q, out=block[: n - lo])
        before = np.divide(q, pair, out=pair)  # before[i, j] = q_j / (q_i + q_j)
        np.fill_diagonal(before[:, lo:], 0.0)
        before.sum(axis=1, out=sums[lo : lo + before.shape[0]])
    return sums


def ikl_mean_exact(pop: Population, q: InspectionWeights) -> float:
    """Exact mean of the without-replacement democratic model at weights q, in O(N^2).

    The target's step is 1 plus the number of items drawn before it, r_i on
    average for item i (_pair_sums), so E[T] = 1 + sum_i p_i r_i.
    """
    check_weights(pop, q)
    return math.fsum([1.0, *(pop.p * _pair_sums(q.q)).tolist()])


def op_mean(pop: Population, q: InspectionWeights) -> float:
    """Exact mean of model OP at weights q given detection: 1 + sum_i f_i r_i, f = detected_share(pop).

    OP walks IKL's order and recognizes the target at item i with probability s_i.
    """
    check_weights(pop, q)
    return math.fsum([1.0, *(detected_share(pop) * _pair_sums(q.q)).tolist()])


def ikl_search_q(pop: Population) -> tuple[InspectionWeights, float]:
    """Without-replacement sampling weights q ∝ p^k at the weight floor, and their exact mean.

    The model has no optimal weights: its mean at any q is at least the
    ABCD mean, with equality only when all priors are equal, and tends to it
    along q ∝ p^k as k → ∞. Each pair's term (p_i q_j + p_j q_i) / (q_i + q_j)
    increases with (p_j / p_i)^k, so the mean falls as k grows; k = 0 is
    uniform weights. This takes the largest k whose smallest weight relative
    to the largest is N * Q_FLOOR. Those ratios sum to at most N - 1 plus that,
    so every normalized weight stays at least Q_FLOOR.
    """
    log_ratio = np.log(pop.p / pop.p.max())
    spread = -float(log_ratio.min())
    k = -math.log(pop.n * Q_FLOOR) / spread if spread > 0.0 else 0.0
    r = np.exp(k * log_ratio)
    q = InspectionWeights(q=r / math.fsum(r.tolist()))
    return q, ikl_mean_exact(pop, q)


# ---------------------------------------------------------------------------
# With-replacement democratic models (closed forms).
# ---------------------------------------------------------------------------


def j_optimal_q(pop: Population) -> InspectionWeights:
    """Mean-minimizing weights under replacement sampling: q_i proportional to sqrt(p_i)."""
    r = np.sqrt(pop.p)
    return InspectionWeights(q=r / math.fsum(r.tolist()))


def j_mean(pop: Population, q: InspectionWeights) -> float:
    """Mean inspections under replacement sampling: sum_i p_i / q_i.

    At j_optimal_q this equals (sum_i sqrt(p_i))^2, the Cauchy-Schwarz lower
    bound over all weight choices.
    """
    check_weights(pop, q)
    return math.fsum((pop.p / q.q).tolist())


def mn_optimal_q(pop: Population) -> InspectionWeights:
    """Replacement sampling with imperfect recognition: q_i proportional to sqrt(p_i / s_i)."""
    with np.errstate(over="ignore"):
        r = np.sqrt(pop.p / pop.s)
    if np.isinf(r).any():  # p_i / s_i overflows for a subnormal s_i; sqrt(p_i) / sqrt(s_i) does not
        r = np.sqrt(pop.p) / np.sqrt(pop.s)
    return InspectionWeights(q=r / math.fsum(r.tolist()))


def mn_mean(pop: Population, q: InspectionWeights) -> float:
    """Mean inspections with per-inspection success s_i q_i: sum_i p_i / (q_i s_i).

    At mn_optimal_q this equals (sum_i sqrt(p_i / s_i))^2.
    """
    check_weights(pop, q)
    with np.errstate(over="ignore", divide="ignore"):  # a subnormal s_i: a mean past the largest float is inf
        return math.fsum((pop.p / (q.q * pop.s)).tolist())

