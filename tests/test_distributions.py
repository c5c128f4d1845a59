import math

import numpy as np
import pytest

from priorsearch import (
    InspectionWeights,
    abcd_policy,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    ef_schedule,
    ikl_mean_exact,
    j_mean,
    mn_mean,
    mn_optimal_q,
    thin_by_detection,
    uniform_weights,
    validate_population,
)
from priorsearch.distributions import HORIZON_CAP, InspectionDistribution, distribution_csv_text
from priorsearch.ordering import ef_op_incomparable_population

from conftest import random_population, random_simplex


def make_weights(arr):
    return InspectionWeights(q=np.asarray(arr, dtype=float))


class TestInspectionDistribution:
    def test_mass_balance_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            InspectionDistribution(pmf=[0.5, 0.3], atom_at_infinity=0.0)

    def test_support_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            InspectionDistribution(pmf=[[0.5, 0.5]], atom_at_infinity=0.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"pmf\(2\) = -0.1 is negative"):
            InspectionDistribution(pmf=[0.6, -0.1, 0.5], atom_at_infinity=0.0)

    def test_pmf_is_read_only_copy(self):
        source = np.array([0.5, 0.5])
        d = InspectionDistribution(pmf=source, atom_at_infinity=0.0)
        source[0] = 0.0
        assert d.pmf[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            d.pmf[0] = 0.25

    def test_cdf_array_pads_past_horizon_and_truncates_below(self):
        d = InspectionDistribution(pmf=[0.25, 0.25], atom_at_infinity=0.5, truncated=True)
        assert d.horizon == 2
        assert d.cdf_array().tolist() == [0.25, 0.5]
        assert d.cdf_array(5).tolist() == [0.25, 0.5, 0.5, 0.5, 0.5]
        assert d.cdf_array(1).tolist() == [0.25]
        assert d.cdf_array(0).tolist() == []

    def test_cdf_monotone_and_capped(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        d = dist_gh(pop)
        cdf = d.cdf_array(8)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] <= 1.0 - d.atom_at_infinity + 1e-12

    def test_conditional_on_detection(self):
        pop = validate_population([0.5, 0.5], [0.5, 1.0])
        cond = dist_gh(pop).conditional_on_detection()
        assert cond.atom_at_infinity == 0.0
        assert abs(cond.total_finite_mass - 1.0) <= 1e-12


class TestDistAbcd:
    def test_order_statistics(self):
        d = dist_abcd(validate_population([0.5, 0.3, 0.2]))
        assert d.pmf.tolist() == [0.5, 0.3, 0.2]
        assert d.atom_at_infinity == 0.0

    def test_uniform(self):
        d = dist_abcd(validate_population(np.full(4, 0.25)))
        assert np.allclose(d.pmf, 0.25)

    def test_cdf_is_top_prefix_sum(self, rng):
        pop = random_population(rng, 6, perfect=True)
        d = dist_abcd(pop)
        top = np.sort(pop.p)[::-1]
        for m in range(1, 7):
            assert abs(d.cdf(m) - math.fsum(top[:m])) <= 1e-15

    def test_mean_matches_policy(self, rng):
        for _ in range(10):
            pop = random_population(rng, int(rng.integers(1, 9)), perfect=True)
            _, mean = abcd_policy(pop)
            assert abs(dist_abcd(pop).mean_finite() - mean) <= 1e-12


class TestDistEf:
    def test_perfect_recognition_equals_abcd(self):
        pop = validate_population([0.5, 0.3, 0.2])
        d_ef = dist_ef(ef_schedule(pop))
        d_ab = dist_abcd(pop)
        assert np.array_equal(d_ef.pmf, d_ab.pmf)
        assert d_ef.atom_at_infinity == 0.0

    def test_schedule_masses(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        d = dist_ef(ef_schedule(pop, eps=1e-10))
        assert d.pmf[0] == pytest.approx(0.4, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.3, abs=1e-15)
        assert d.pmf[2] == pytest.approx(0.15, abs=1e-15)
        assert d.pmf[3] == pytest.approx(0.075, abs=1e-15)

    def test_mass_balance(self, rng):
        for _ in range(5):
            pop = random_population(rng, 4, s_lo=0.3)
            d = dist_ef(ef_schedule(pop, eps=1e-13))
            assert abs(d.total_finite_mass + d.atom_at_infinity - 1.0) <= 1e-12
            assert d.truncated


class TestDistGh:
    def test_perfect_recognition_equals_abcd(self):
        pop = validate_population([0.5, 0.3, 0.2])
        assert np.array_equal(dist_gh(pop).pmf, dist_abcd(pop).pmf)

    def test_per_item_detection_example(self):
        d = dist_gh(validate_population([0.5, 0.5], [0.5, 1.0]))
        assert d.pmf[0] == pytest.approx(0.25, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.5, abs=1e-15)
        assert d.atom_at_infinity == pytest.approx(0.25, abs=1e-15)

    def test_incomparable_family_atom(self):
        d = dist_gh(ef_op_incomparable_population(5))
        assert abs(d.atom_at_infinity - 2 / 3) <= 1e-12

    def test_conditional_equals_abcd_for_constant_s(self, rng):
        p = rng.dirichlet(np.ones(5))
        pop = validate_population(p, np.full(5, 0.6))
        cond = dist_gh(pop).conditional_on_detection()
        base = dist_abcd(pop)
        assert cond.sup_cdf_distance(base) <= 1e-12

    def test_conditional_differs_for_varying_s(self):
        pop = validate_population([0.6, 0.4], [0.3, 1.0])
        cond = dist_gh(pop).conditional_on_detection()
        base = dist_abcd(pop)
        assert cond.sup_cdf_distance(base) > 1e-3


class TestDistJ:
    def test_single_item(self):
        d = dist_j(validate_population([1.0]), make_weights([1.0]))
        assert d.pmf.tolist() == [1.0]
        assert not d.truncated or d.atom_at_infinity == 0.0

    def test_first_step_mass(self, rng):
        pop = random_population(rng, 5, perfect=True)
        q = make_weights(random_simplex(rng, 5))
        d = dist_j(pop, q)
        assert abs(d.pmf[0] - float(q.q @ pop.p)) <= 1e-15

    def test_symmetric_halving(self):
        pop = validate_population([0.5, 0.5])
        d = dist_j(pop, make_weights([0.5, 0.5]), horizon=40)
        for m in range(1, 20):
            assert d.pmf[m - 1] == pytest.approx(0.5**m, abs=1e-15)
            assert d.cdf(m) == pytest.approx(1.0 - 0.5**m, abs=1e-12)

    def test_underflowed_tail_is_trimmed(self):
        # pmf(m) = 2^-m; from m = 1074 on the two halves round to 0.
        d = dist_j(validate_population([0.5, 0.5]), make_weights([0.5, 0.5]), horizon=5000)
        assert d.horizon == 1073
        assert d.pmf[-1] == 2.0**-1073
        assert d.atom_at_infinity == 0.0
        lines = distribution_csv_text(d).strip().splitlines()
        assert len(lines) == 1 + 1073 + 2
        assert lines[1073].startswith("1073,")

    def test_cdf_formula(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        d = dist_j(pop, q, horizon=50)
        cdf = d.cdf_array(50)
        for m in (1, 5, 17, 50):
            expected = 1.0 - float(pop.p @ (1.0 - q.q) ** m)
            assert abs(cdf[m - 1] - expected) <= 1e-12

    def test_tiny_rate_takes_capped_horizon(self):
        d = dist_j(validate_population([0.5, 0.5]), make_weights([1e-17, 1.0]))
        assert d.horizon == HORIZON_CAP
        assert d.truncated
        assert d.atom_at_infinity == 0.5

    def test_bad_horizon(self):
        pop = validate_population([1.0])
        with pytest.raises(ValueError, match="horizon"):
            dist_j(pop, make_weights([1.0]), horizon=0)

    def test_horizon_corrected_mean(self, rng):
        pop = random_population(rng, 5, perfect=True)
        q = make_weights(random_simplex(rng, 5))
        horizon = 200
        d = dist_j(pop, q, horizon=horizon)
        tail = float(
            np.sum(pop.p * (1.0 - q.q) ** horizon * (horizon * q.q + 1.0) / q.q)
        )
        assert abs(d.mean_finite() + tail - j_mean(pop, q)) <= 1e-9


class TestDistMn:
    def test_perfect_recognition_equals_j(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        dj = dist_j(pop, q, horizon=100)
        dm = dist_mn(pop, q, horizon=100)
        assert np.array_equal(dj.pmf, dm.pmf)

    def test_single_item_geometric(self):
        pop = validate_population([1.0], [0.5])
        d = dist_mn(pop, make_weights([1.0]), horizon=40)
        for m in range(1, 20):
            assert d.pmf[m - 1] == pytest.approx(0.5**m, abs=1e-15)

    def test_j_dominates_mn_pointwise(self, rng):
        for _ in range(10):
            pop = random_population(rng, 4, s_lo=0.3, s_hi=0.95)
            q = make_weights(random_simplex(rng, 4))
            dj = dist_j(pop, q, horizon=300)
            dm = dist_mn(pop, q, horizon=300)
            assert np.all(dj.cdf_array(300) >= dm.cdf_array(300) - 1e-12)

    def test_horizon_corrected_mean(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        q = make_weights(random_simplex(rng, 5))
        horizon = 300
        d = dist_mn(pop, q, horizon=horizon)
        rate = pop.s * q.q
        tail = float(np.sum(pop.p * (1.0 - rate) ** horizon * (horizon * rate + 1.0) / rate))
        assert abs(d.mean_finite() + tail - mn_mean(pop, q)) <= 1e-9


class TestDistIkl:
    def test_uniform_weights_mean(self, rng):
        for n in (2, 5, 7):
            pop = random_population(rng, n, perfect=True)
            d = dist_ikl_exact(pop, uniform_weights(n))
            assert abs(d.mean_finite() - (n + 1) / 2) <= 1e-12

    def test_two_item_enumeration(self):
        pop = validate_population([0.7, 0.3])
        d = dist_ikl_exact(pop, make_weights([0.6, 0.4]))
        assert d.pmf[0] == pytest.approx(0.54, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.46, abs=1e-15)

    def test_single_item(self):
        d = dist_ikl_exact(validate_population([1.0]), uniform_weights(1))
        assert d.pmf.tolist() == [1.0]

    def test_mean_matches_strategies(self, rng):
        pop = random_population(rng, 6, perfect=True)
        q = make_weights(random_simplex(rng, 6))
        assert abs(dist_ikl_exact(pop, q).mean_finite() - ikl_mean_exact(pop, q)) <= 1e-12


class TestDistOp:
    def test_perfect_recognition_equals_ikl(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        assert np.array_equal(dist_op_exact(pop, q).pmf, dist_ikl_exact(pop, q).pmf)

    def test_incomparable_family_atom(self):
        pop = ef_op_incomparable_population(5)
        d = dist_op_exact(pop, mn_optimal_q(pop))
        assert abs(d.atom_at_infinity - 2 / 3) <= 1e-12

    def test_single_item(self):
        d = dist_op_exact(validate_population([1.0], [0.4]), uniform_weights(1))
        assert d.pmf[0] == pytest.approx(0.4, abs=1e-15)
        assert d.atom_at_infinity == pytest.approx(0.6, abs=1e-15)

    def test_atom_independent_of_weights(self, rng):
        pop = random_population(rng, 5, s_lo=0.3, s_hi=0.9)
        atoms = {
            round(dist_op_exact(pop, make_weights(random_simplex(rng, 5))).atom_at_infinity, 14)
            for _ in range(5)
        }
        assert len(atoms) == 1

    def test_mass_balance(self, rng):
        pop = random_population(rng, 5, s_lo=0.3)
        q = make_weights(random_simplex(rng, 5))
        d = dist_op_exact(pop, q)
        assert abs(d.total_finite_mass + d.atom_at_infinity - 1.0) <= 1e-12


class TestThinByDetection:
    def test_matches_exact_law_when_s_constant(self, rng):
        p = rng.dirichlet(np.ones(4))
        pop = validate_population(p, np.full(4, 0.7))
        q = uniform_weights(4)
        thinned = thin_by_detection(dist_ikl_exact(pop, q), pop.detect_prob)
        exact = dist_op_exact(pop, q)
        assert thinned.sup_cdf_distance(exact) <= 1e-12
        assert abs(thinned.atom_at_infinity - exact.atom_at_infinity) <= 1e-12

    def test_differs_from_exact_law_when_s_varies(self):
        # At uniform weights every position is equally likely for every item,
        # which hides the difference; a skewed q exposes it.
        pop = validate_population([0.6, 0.4], [0.3, 1.0])
        q = make_weights([0.8, 0.2])
        thinned = thin_by_detection(dist_ikl_exact(pop, q), pop.detect_prob)
        exact = dist_op_exact(pop, q)
        assert thinned.sup_cdf_distance(exact) > 1e-3

    def test_atom_composition(self):
        base = InspectionDistribution(pmf=[0.5, 0.5], atom_at_infinity=0.0)
        thinned = thin_by_detection(base, 0.8)
        assert thinned.pmf[0] == pytest.approx(0.4)
        assert thinned.atom_at_infinity == pytest.approx(0.2)

    def test_detect_prob_validation(self):
        base = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        with pytest.raises(ValueError):
            thin_by_detection(base, 0.0)


class TestCsvExport:
    def test_round_trip_fields(self):
        pop = validate_population([0.5, 0.5], [0.5, 1.0])
        text = distribution_csv_text(dist_gh(pop))
        lines = text.strip().splitlines()
        assert lines[0] == "m,pmf,cdf"
        assert lines[1].startswith("1,0.25,")
        assert lines[-2].startswith("atom_at_infinity,0.25")
        assert lines[-1] == "truncated,false"

    def test_cdf_column_cumulative(self):
        pop = validate_population([0.5, 0.3, 0.2])
        text = distribution_csv_text(dist_abcd(pop))
        rows = [line.split(",") for line in text.strip().splitlines()[1:-2]]
        cdf_vals = [float(r[2]) for r in rows]
        assert cdf_vals == sorted(cdf_vals)
        assert cdf_vals[-1] == pytest.approx(1.0, abs=1e-12)
