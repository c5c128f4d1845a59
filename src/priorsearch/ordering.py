"""First-order stochastic dominance checks across the seven model laws.

X is stochastically smaller than Y when P(X <= m) >= P(Y <= m) for every m.
The seven optimal-strategy inspection counts admit a documented partial
order: the descending-prior perfect-recognition law (ABCD) is smallest;
adding imperfect recognition (EF), dropping enumeration (IKL), allowing
resampling (J), or both (MN) can only slow the search; and the defective
no-replacement laws (GH, OP) sit above their perfect-recognition
counterparts. Twelve ordered pairs follow; the remaining nine pairs are
genuinely incomparable in general, and this module can also construct a
witness family certifying the EF/OP incomparability.

Two modeling conventions matter for the comparisons:

* All four democratic laws (IKL, J, MN, OP) are evaluated at one common
  weight vector q (default uniform). The coupling arguments behind the
  IKL <= J <= MN chain hold at any shared q, but not across different
  weight choices per model: at its mean-optimal weights the J law starts
  strictly faster than the uniform-weight IKL law for every nonuniform
  prior, so mixing per-model optima would break the chain at m = 1.

* The defective models GH and OP enter the comparisons through their
  detection-thinned representations: the perfect-recognition law scaled by
  the overall detection probability sum_i s_i p_i, the remainder at
  infinity (distributions.thin_by_detection). This coarser law matches the
  exact per-item process laws (distributions.dist_gh / dist_op_exact)
  exactly when all s_i are equal; when they differ, the exact process laws
  can order the other way, while the thinned representations always obey
  the partial order above. The exact laws remain the ground truth for
  simulation cross-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import InspectionDistribution, thin_by_detection
from .models import LABELS as MODEL_LABELS
from .models import MODELS
from .population import InspectionWeights, Population, uniform_weights, validate_population
from .strategies import DEFAULT_EF_MAX_STEPS

DEFAULT_COMPARE_TOL = 1e-9
# Equality conditions are structural (exact zeros), so they are detected at
# float-noise resolution, far below the comparison tolerance.
CONDITION_TOL = 1e-12

# The twelve ordered pairs (x, y) with x stochastically smaller than y.
EXPECTED_SMALLER: tuple[tuple[str, str], ...] = (
    ("ABCD", "EF"),
    ("ABCD", "GH"),
    ("ABCD", "IKL"),
    ("ABCD", "J"),
    ("ABCD", "MN"),
    ("ABCD", "OP"),
    ("EF", "MN"),
    ("GH", "OP"),
    ("IKL", "J"),
    ("IKL", "MN"),
    ("IKL", "OP"),
    ("J", "MN"),
)

# Pairs that collapse to distributional equality under each condition.
EQUAL_WHEN_PERFECT_DETECTION = (("ABCD", "EF"), ("ABCD", "GH"), ("J", "MN"), ("IKL", "OP"))
EQUAL_WHEN_UNIFORM_PRIOR = (("ABCD", "IKL"), ("GH", "OP"))
EQUAL_WHEN_SINGLE_ITEM = (("EF", "MN"), ("IKL", "J"))


class ComparisonTruncationError(RuntimeError):
    """A truncated law carries too much unresolved tail mass to compare honestly."""


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one stochastic comparison.

    ``witnesses`` is set only for incomparable pairs: (m1, m2) with
    cdf_X(m1) > cdf_Y(m1) and cdf_X(m2) < cdf_Y(m2), both beyond tolerance.
    """

    relation: str  # smaller | larger | equal | incomparable
    witnesses: tuple[int, int] | None
    tolerance: float

    def __post_init__(self):
        if self.relation not in ("smaller", "larger", "equal", "incomparable"):
            raise ValueError(f"unknown relation {self.relation!r}")
        if (self.relation == "incomparable") != (self.witnesses is not None):
            raise ValueError("witnesses must be present exactly for incomparable verdicts")


def stochastic_compare(
    dx: InspectionDistribution,
    dy: InspectionDistribution,
    tol: float = DEFAULT_COMPARE_TOL,
) -> DominanceVerdict:
    """First-order dominance verdict between two inspection-count laws.

    cdfs are compared at every integer up to the larger horizon; atoms at
    infinity never enter any finite cdf value. Laws whose truncation tail
    reaches tol/10 are refused, since the unresolved mass could flip a
    verdict at the tolerance in use.
    """
    for d, name in ((dx, "X"), (dy, "Y")):
        if d.truncated and d.atom_at_infinity >= tol / 10.0:
            raise ComparisonTruncationError(
                f"{name} carries truncation mass {d.atom_at_infinity:.3g} >= tol/10 "
                f"= {tol / 10.0:.3g}; extend its horizon before comparing"
            )
    upto = max(dx.horizon, dy.horizon)
    fx = dx.cdf_array(upto)
    fy = dy.cdf_array(upto)
    diff = fx - fy
    x_above = diff > tol  # X reaches detection faster at these m
    y_above = diff < -tol
    any_x = bool(x_above.any())
    any_y = bool(y_above.any())
    if not any_x and not any_y:
        return DominanceVerdict(relation="equal", witnesses=None, tolerance=tol)
    if any_x and not any_y:
        return DominanceVerdict(relation="smaller", witnesses=None, tolerance=tol)
    if any_y and not any_x:
        return DominanceVerdict(relation="larger", witnesses=None, tolerance=tol)
    m1 = int(np.argmax(x_above)) + 1
    m2 = int(np.argmax(y_above)) + 1
    return DominanceVerdict(relation="incomparable", witnesses=(m1, m2), tolerance=tol)


@dataclass(frozen=True, eq=False)
class OrderingReport:
    """All 21 pairwise verdicts plus the expected relations and any mismatches."""

    labels: tuple[str, ...]
    verdicts: Mapping[tuple[str, str], DominanceVerdict]
    expected: Mapping[tuple[str, str], str]  # smaller | equal | unconstrained
    mismatches: tuple[str, ...]
    q: np.ndarray
    tolerance: float
    ef_residual: float
    distributions: Mapping[str, InspectionDistribution]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self, indent: int = 2) -> str:
        verdicts = {}
        for (a, b), v in self.verdicts.items():
            verdicts[f"{a},{b}"] = {
                "relation": v.relation,
                "witnesses": list(v.witnesses) if v.witnesses else None,
            }
        payload = {
            "labels": list(self.labels),
            "q": [float(x) for x in self.q],
            "tolerance": self.tolerance,
            "ef_residual": self.ef_residual,
            "defective_representation": "detection-thinned",
            "verdicts": verdicts,
            "expected": {f"{a},{b}": e for (a, b), e in self.expected.items()},
            "mismatches": list(self.mismatches),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def expected_relations(pop: Population) -> dict[tuple[str, str], str]:
    """Expected verdict per model pair for this population.

    The twelve ordered pairs expect "smaller" (weak dominance, so an exact
    tie also satisfies them) and tighten to "equal" when the matching
    structural condition holds: full detection probability, uniform priors,
    or a single item. All other pairs are unconstrained.
    """
    expected: dict[tuple[str, str], str] = {}
    for i, a in enumerate(MODEL_LABELS):
        for b in MODEL_LABELS[i + 1 :]:
            expected[(a, b)] = "unconstrained"
    for pair in EXPECTED_SMALLER:
        expected[pair] = "smaller"
    if abs(pop.detect_prob - 1.0) <= CONDITION_TOL:
        for pair in EQUAL_WHEN_PERFECT_DETECTION:
            expected[pair] = "equal"
    if float(np.max(np.abs(pop.p - 1.0 / pop.n))) <= CONDITION_TOL:
        for pair in EQUAL_WHEN_UNIFORM_PRIOR:
            expected[pair] = "equal"
    if pop.n == 1:
        for pair in EQUAL_WHEN_SINGLE_ITEM:
            expected[pair] = "equal"
    return expected


def dominance_report(
    pop: Population,
    q: InspectionWeights | None = None,
    tol: float = DEFAULT_COMPARE_TOL,
    ef_eps: float = 1e-13,
    horizon: int | None = None,
) -> OrderingReport:
    """Build all seven laws, run the 21 comparisons, and check the partial order.

    The democratic models share the single weight vector ``q`` (uniform when
    omitted); GH and OP enter through their detection-thinned
    representations. See the module docstring for why both conventions are
    required for the documented partial order.
    """
    if q is None:
        q = uniform_weights(pop.n)
    if q.n != pop.n:
        raise ValueError(f"weights size {q.n} != population size {pop.n}")
    detect = min(pop.detect_prob, 1.0)
    laws: dict[str, InspectionDistribution] = {}
    # GH and OP come after ABCD and IKL, the laws they thin, in table order.
    for m in MODELS.values():
        if m.thins is None:
            laws[m.label] = m.law(pop, q, eps=ef_eps, max_steps=DEFAULT_EF_MAX_STEPS, horizon=horizon)
        else:
            laws[m.label] = thin_by_detection(laws[m.thins], detect)
    verdicts: dict[tuple[str, str], DominanceVerdict] = {}
    for i, a in enumerate(MODEL_LABELS):
        for b in MODEL_LABELS[i + 1 :]:
            verdicts[(a, b)] = stochastic_compare(laws[a], laws[b], tol)
    expected = expected_relations(pop)
    mismatches: list[str] = []
    for pair, exp in expected.items():
        got = verdicts[pair].relation
        if exp == "smaller" and got not in ("smaller", "equal"):
            mismatches.append(f"{pair[0]} vs {pair[1]}: expected smaller-or-equal, got {got}")
        elif exp == "equal" and got != "equal":
            mismatches.append(f"{pair[0]} vs {pair[1]}: expected equal, got {got}")
    return OrderingReport(
        labels=MODEL_LABELS,
        verdicts=verdicts,
        expected=expected,
        mismatches=tuple(mismatches),
        q=q.q,
        tolerance=tol,
        ef_residual=laws["EF"].atom_at_infinity,
        distributions=laws,
    )


def ef_op_incomparable_population(n: int) -> Population:
    """Population family on which the EF and OP laws cannot be ordered.

    With priors p_i = 2i / (N (N+1)) and recognition s_i = 1 / i every
    per-item detection mass s_i p_i equals 2 / (N (N+1)), the overall
    detection probability is 2 / (N+1), and at prior-proportional sampling
    weights the thinned OP law starts strictly faster than the greedy
    schedule while the schedule eventually overtakes it, certifying
    incomparability for every N >= 2.
    """
    if n < 2:
        raise ValueError("need at least 2 items for the incomparability family")
    p = np.array([2.0 * i / (n * (n + 1)) for i in range(1, n + 1)])
    s = np.array([1.0 / i for i in range(1, n + 1)])
    return validate_population(p, s)
