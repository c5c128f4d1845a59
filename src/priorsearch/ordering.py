"""First-order stochastic dominance checks across the seven model laws.

X is stochastically smaller than Y when P(X <= m) >= P(Y <= m) for every m.
The seven optimal-strategy inspection counts admit a documented partial
order: the descending-prior perfect-recognition law (ABCD) is smallest;
adding imperfect recognition (EF), dropping enumeration (IKL), allowing
resampling (J), or both (MN) can only slow the search; and the defective
one-pass laws (GH, OP) sit above their perfect-recognition counterparts and
above EF. A one-pass walk finds the target within m steps with probability
equal to the sum of the detection masses s_i p_i it has walked, so GH, which
walks the largest masses first, sits below OP. Fourteen ordered pairs follow; the
remaining seven pairs are not ordered in general. One table,
``EXPECTED_SMALLER``, holds the fourteen pairs, each with the condition under
which its two laws are equal, and ``dominance_report`` checks all 21 pairs
against it in one pass.

All four democratic laws (IKL, J, MN, OP) are evaluated at one common
weight vector q (default uniform). The coupling arguments behind the
IKL <= J <= MN chain hold at any shared q, but not across different weight
choices per model: at its mean-optimal weights the J law starts strictly
faster than the uniform-weight IKL law for every nonuniform prior, so mixing
per-model optima would break the chain at m = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS as MODEL_LABELS
from .models import MODELS
from .population import InspectionWeights, Population, check_weights, uniform_weights

DEFAULT_COMPARE_TOL = 1e-9
# Equality conditions are structural (exact zeros), so they are detected at
# float-noise resolution, far below the comparison tolerance.
CONDITION_TOL = 1e-12

# The fourteen ordered pairs (x, y) with x stochastically smaller than y, each
# with the condition under which the two laws are equal, or None.
EXPECTED_SMALLER: dict[tuple[str, str], str | None] = {
    ("ABCD", "EF"): "perfect detection",
    ("ABCD", "GH"): "perfect detection",
    ("ABCD", "IKL"): "uniform priors",
    ("ABCD", "J"): None,
    ("ABCD", "MN"): None,
    ("ABCD", "OP"): None,
    ("EF", "GH"): "perfect detection",
    ("EF", "MN"): "single item",
    ("EF", "OP"): None,
    # Every one-pass walk, in whatever order, then has the cdf m s_1 p_1.
    ("GH", "OP"): "equal detection masses",
    ("IKL", "J"): "single item",
    ("IKL", "MN"): None,
    ("IKL", "OP"): "perfect detection",
    ("J", "MN"): "perfect detection",
}


class ComparisonTruncationError(ValueError):
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


def _check_comparable(tol: float, laws: Iterable[tuple[str, InspectionDistribution]] = ()) -> None:
    """Raise unless tol lies in (0, 1), which NaN does not, and no named law has truncation mass >= tol/10."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    for name, d in laws:
        if d.truncated and d.atom_at_infinity >= tol / 10.0:
            raise ComparisonTruncationError(
                f"{name} carries truncation mass {d.atom_at_infinity:.3g} >= tol/10 = {tol / 10.0:.3g}; "
                f"its law is cut at step {d.horizon}"
            )


def stochastic_compare(
    dx: InspectionDistribution,
    dy: InspectionDistribution,
    tol: float = DEFAULT_COMPARE_TOL,
) -> DominanceVerdict:
    """First-order dominance verdict between two inspection-count laws.

    cdfs are compared at every integer up to the larger horizon; atoms at
    infinity never enter any finite cdf value. Laws whose truncation tail
    reaches tol/10 are refused, since the unresolved mass could flip a
    verdict at the tolerance in use. ``tol`` must lie in (0, 1).
    """
    _check_comparable(tol, (("X", dx), ("Y", dy)))
    upto = max(dx.horizon, dy.horizon)
    diff = dx.cdf_array(upto) - dy.cdf_array(upto)
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

    def to_json(self) -> str:
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
            "verdicts": verdicts,
            "expected": {f"{a},{b}": e for (a, b), e in self.expected.items()},
            "mismatches": list(self.mismatches),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def expected_relations(pop: Population) -> dict[tuple[str, str], str]:
    """Expected verdict per model pair for this population, in ``MODEL_LABELS`` order.

    The fourteen pairs of ``EXPECTED_SMALLER`` expect "smaller" (weak
    dominance, so an exact tie also satisfies them) and tighten to "equal"
    when their condition holds: perfect detection, uniform priors, equal
    detection masses s_i p_i, or a single item. All other pairs are
    unconstrained.
    """
    holds = {
        "perfect detection": abs(pop.detect_prob - 1.0) <= CONDITION_TOL,
        "uniform priors": float(np.max(np.abs(pop.p - 1.0 / pop.n))) <= CONDITION_TOL,
        "equal detection masses": float(np.ptp(pop.s * pop.p)) <= CONDITION_TOL,
        "single item": pop.n == 1,
    }
    expected = dict.fromkeys(combinations(MODEL_LABELS, 2), "unconstrained")
    for pair, condition in EXPECTED_SMALLER.items():
        expected[pair] = "equal" if condition and holds[condition] else "smaller"
    return expected


def dominance_report(
    pop: Population,
    q: InspectionWeights | None = None,
    tol: float = DEFAULT_COMPARE_TOL,
) -> OrderingReport:
    """Build all seven laws, run the 21 comparisons, and check the partial order.

    The democratic models share the single weight vector ``q`` (uniform when
    omitted); see the module docstring for why. ``tol`` is checked first.
    """
    _check_comparable(tol)
    if q is None:
        q = uniform_weights(pop.n)
    check_weights(pop, q)
    # The race laws are never truncated and are the slowest to build, so a
    # truncated law is refused before either of them is built.
    laws = {m.label: m.law(pop, q) for m in MODELS.values() if m.walk != "race"}
    _check_comparable(tol, laws.items())
    laws |= {m.label: m.law(pop, q) for m in MODELS.values() if m.walk == "race"}
    laws = {label: laws[label] for label in MODEL_LABELS}
    expected = expected_relations(pop)
    verdicts: dict[tuple[str, str], DominanceVerdict] = {}
    mismatches: list[str] = []
    for (a, b), exp in expected.items():
        verdicts[(a, b)] = stochastic_compare(laws[a], laws[b], tol)
        got = verdicts[(a, b)].relation
        if exp == "smaller" and got not in ("smaller", "equal"):
            mismatches.append(f"{a} vs {b}: expected smaller-or-equal, got {got}")
        elif exp == "equal" and got != "equal":
            mismatches.append(f"{a} vs {b}: expected equal, got {got}")
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

