import itertools
import json

import numpy as np
import pytest

from priorsearch import (
    ComparisonTruncationError,
    dist_abcd,
    dist_ef,
    dist_ikl_exact,
    ef_schedule,
    mn_optimal_q,
    stochastic_compare,
    thin_by_detection,
    uniform_weights,
    validate_population,
)
from priorsearch.distributions import InspectionDistribution
from priorsearch.ordering import (
    EXPECTED_SMALLER,
    MODEL_LABELS,
    dominance_report,
    ef_op_incomparable_population,
    expected_relations,
)

from conftest import random_population


class TestStochasticCompare:
    def test_identical_laws_are_equal(self):
        d = dist_abcd(validate_population([0.5, 0.3, 0.2]))
        assert stochastic_compare(d, d).relation == "equal"

    def test_descending_order_beats_uniform_sampling(self):
        pop = validate_population([0.7, 0.3])
        dx = dist_abcd(pop)
        dy = dist_ikl_exact(pop, uniform_weights(2))
        assert stochastic_compare(dx, dy).relation == "smaller"

    def test_antisymmetry(self, rng):
        for _ in range(20):
            pop = random_population(rng, 4, s_lo=0.4)
            da = dist_abcd(pop)
            db = dist_ikl_exact(pop, uniform_weights(4))
            forward = stochastic_compare(da, db)
            backward = stochastic_compare(db, da)
            flip = {"smaller": "larger", "larger": "smaller", "equal": "equal",
                    "incomparable": "incomparable"}
            assert backward.relation == flip[forward.relation]

    def test_incomparable_with_witnesses(self):
        pop = ef_op_incomparable_population(5)
        d_ef = dist_ef(ef_schedule(pop, eps=1e-13))
        d_op = thin_by_detection(dist_ikl_exact(pop, mn_optimal_q(pop)), pop.detect_prob)
        verdict = stochastic_compare(d_ef, d_op)
        assert verdict.relation == "incomparable"
        m1, m2 = verdict.witnesses
        upto = max(d_ef.horizon, d_op.horizon)
        fe = d_ef.cdf_array(upto)
        fo = d_op.cdf_array(upto)
        assert fe[m1 - 1] > fo[m1 - 1] + verdict.tolerance
        assert fe[m2 - 1] < fo[m2 - 1] - verdict.tolerance

    def test_truncation_guard(self):
        good = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        sloppy = InspectionDistribution(pmf=[0.99], atom_at_infinity=0.01, truncated=True)
        with pytest.raises(ComparisonTruncationError):
            stochastic_compare(good, sloppy, tol=1e-9)

    def test_genuine_defect_mass_is_not_truncation(self):
        defective = InspectionDistribution(pmf=[0.5], atom_at_infinity=0.5)
        full = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        assert stochastic_compare(full, defective).relation == "smaller"


class TestExpectedRelations:
    def test_generic_population_constrains_twelve_pairs(self, rng):
        pop = random_population(rng, 4, s_lo=0.3, s_hi=0.9)
        expected = expected_relations(pop)
        smaller = {pair for pair, rel in expected.items() if rel == "smaller"}
        assert smaller == set(EXPECTED_SMALLER)
        assert sum(1 for rel in expected.values() if rel == "unconstrained") == 9

    def test_perfect_detection_equalities(self, rng):
        pop = random_population(rng, 4, perfect=True)
        expected = expected_relations(pop)
        for pair in (("ABCD", "EF"), ("ABCD", "GH"), ("J", "MN"), ("IKL", "OP")):
            assert expected[pair] == "equal"

    def test_uniform_prior_equalities(self):
        pop = validate_population(np.full(4, 0.25), [0.4, 0.6, 0.8, 1.0])
        expected = expected_relations(pop)
        assert expected[("ABCD", "IKL")] == "equal"
        assert expected[("GH", "OP")] == "equal"

    def test_single_item_equalities(self):
        pop = validate_population([1.0], [0.5])
        expected = expected_relations(pop)
        assert expected[("EF", "MN")] == "equal"
        assert expected[("IKL", "J")] == "equal"


class TestDominanceReport:
    def test_generic_population_all_relations_strict(self, rng):
        pop = random_population(rng, 4, s_lo=0.3, s_hi=0.95)
        report = dominance_report(pop)
        assert report.ok
        for pair in EXPECTED_SMALLER:
            assert report.verdicts[pair].relation == "smaller"

    def test_perfect_detection_equal_cells(self, rng):
        pop = random_population(rng, 4, perfect=True)
        report = dominance_report(pop)
        assert report.ok
        for pair in (("ABCD", "EF"), ("ABCD", "GH"), ("J", "MN"), ("IKL", "OP")):
            assert report.verdicts[pair].relation == "equal"
            assert (
                report.distributions[pair[0]].sup_cdf_distance(report.distributions[pair[1]])
                <= 1e-12
            )

    def test_uniform_prior_equal_cells(self):
        pop = validate_population(np.full(4, 0.25), [0.4, 0.6, 0.8, 1.0])
        report = dominance_report(pop)
        assert report.ok
        for pair in (("ABCD", "IKL"), ("GH", "OP")):
            assert report.verdicts[pair].relation == "equal"
            assert (
                report.distributions[pair[0]].sup_cdf_distance(report.distributions[pair[1]])
                <= 1e-12
            )

    def test_single_item_report(self):
        pop = validate_population([1.0], [0.6])
        report = dominance_report(pop)
        assert report.ok
        assert report.verdicts[("EF", "MN")].relation == "equal"
        assert report.verdicts[("IKL", "J")].relation == "equal"

    def test_common_weights_can_be_nonuniform(self, rng):
        pop = random_population(rng, 5, s_lo=0.35)
        report = dominance_report(pop, q=mn_optimal_q(pop))
        assert report.ok

    def test_incomparable_family_cell(self):
        pop = ef_op_incomparable_population(5)
        report = dominance_report(pop, q=mn_optimal_q(pop))
        assert report.ok  # EF/OP is unconstrained, so no mismatch
        assert report.verdicts[("EF", "OP")].relation == "incomparable"

    def test_transitivity_across_laws(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        report = dominance_report(pop)
        relation = {}
        for (a, b), verdict in report.verdicts.items():
            relation[(a, b)] = verdict.relation
            flip = {"smaller": "larger", "larger": "smaller"}
            relation[(b, a)] = flip.get(verdict.relation, verdict.relation)
        for x, y, z in itertools.permutations(MODEL_LABELS, 3):
            if relation.get((x, y)) == "smaller" and relation.get((y, z)) == "smaller":
                assert relation.get((x, z)) in ("smaller", "equal")

    def test_dominance_implies_mean_order(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        report = dominance_report(pop)
        laws = report.distributions
        for (a, b), verdict in report.verdicts.items():
            if verdict.relation != "smaller":
                continue
            da, db = laws[a], laws[b]
            if abs(da.atom_at_infinity - db.atom_at_infinity) <= 1e-12:
                ma = da.conditional_on_detection().mean_finite()
                mb = db.conditional_on_detection().mean_finite()
                assert ma <= mb + 1e-9

    def test_json_export(self, rng):
        pop = random_population(rng, 3, s_lo=0.5)
        report = dominance_report(pop)
        payload = json.loads(report.to_json())
        assert payload["labels"] == list(MODEL_LABELS)
        assert payload["mismatches"] == []
        assert payload["defective_representation"] == "detection-thinned"
        assert len(payload["verdicts"]) == 21
        assert payload["verdicts"]["ABCD,EF"]["relation"] in (
            "smaller", "equal", "larger", "incomparable"
        )

    def test_weight_size_mismatch(self):
        pop = validate_population([0.5, 0.5])
        with pytest.raises(ValueError, match="size"):
            dominance_report(pop, q=uniform_weights(3))


class TestIncomparableFamily:
    def test_construction(self):
        pop = ef_op_incomparable_population(5)
        assert np.allclose(pop.p, [1 / 15, 2 / 15, 3 / 15, 4 / 15, 5 / 15])
        assert np.allclose(pop.s, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ef_op_incomparable_population(1)

    def test_constant_detection_mass(self):
        pop = ef_op_incomparable_population(6)
        mass = pop.s * pop.p
        assert np.max(np.abs(mass - 2 / (6 * 7))) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certified_incomparable(self, n):
        pop = ef_op_incomparable_population(n)
        d_ef = dist_ef(ef_schedule(pop, eps=1e-13))
        d_op = thin_by_detection(dist_ikl_exact(pop, mn_optimal_q(pop)), pop.detect_prob)
        # The greedy schedule always finds the target; the thinned democratic
        # law misses it with probability 1 - 2/(n+1).
        assert abs(d_op.atom_at_infinity - (1 - 2 / (n + 1))) <= 1e-12
        assert d_ef.atom_at_infinity < 1e-12
        # First step: all detection masses tie at 2/(n(n+1)).
        assert abs(d_ef.pmf[0] - 2 / (n * (n + 1))) <= 1e-12
        assert d_op.pmf[0] > d_ef.pmf[0] + 1e-9
        verdict = stochastic_compare(d_ef, d_op)
        assert verdict.relation == "incomparable"
        # Beyond the population size the schedule keeps accumulating mass
        # while the democratic law is exhausted.
        upto = d_ef.horizon
        fe = d_ef.cdf_array(upto)
        fo = d_op.cdf_array(upto)
        assert np.all(fe[n:] > fo[n:])
