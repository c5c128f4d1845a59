import math

import numpy as np
import pytest

from priorsearch import (
    InspectionWeights,
    SimConfig,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    dkw_band,
    dkw_check,
    ef_schedule,
    j_optimal_q,
    sample_target_index,
    simulate,
    uniform_weights,
    validate_population,
)
from priorsearch.montecarlo import empirical_csv_text

from conftest import random_population


class TestSimConfig:
    def test_q_required_for_democratic_models(self):
        with pytest.raises(ValueError, match="requires"):
            SimConfig(model="J", reps=10, seed=0)

    def test_q_rejected_for_enumerable_models(self):
        with pytest.raises(ValueError, match="does not take"):
            SimConfig(model="ABCD", reps=10, seed=0, q=uniform_weights(2))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            SimConfig(model="XY", reps=10, seed=0)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            SimConfig(model="ABCD", reps=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(model="ABCD", reps=1, seed=0, max_steps=0)

    def test_max_steps_below_exact_float_range(self):
        pop = validate_population([0.5, 0.5])
        q = InspectionWeights(q=np.array([1e-19, 1.0]))
        emp = simulate(pop, SimConfig(model="J", reps=1000, seed=1, q=q, max_steps=2**53 - 1))
        assert emp.censored > 0 and max(emp.counts) <= 2**53 - 1
        with pytest.raises(ValueError, match="max_steps"):
            SimConfig(model="ABCD", reps=1, seed=0, max_steps=2**53)


class TestSampleTargetIndex:
    def test_single_item(self, rng):
        pop = validate_population([1.0])
        assert sample_target_index(pop, rng) == 1

    def test_inverse_cdf_boundaries(self):
        pop = validate_population([0.5, 0.3, 0.2])

        class FixedU:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        assert sample_target_index(pop, FixedU(0.3)) == 1
        assert sample_target_index(pop, FixedU(0.6)) == 2
        assert sample_target_index(pop, FixedU(0.95)) == 3

    def test_largest_uniform_below_rounded_total_picks_last_item(self):
        pop = validate_population(np.full(10, 0.1))
        u = 1.0 - 2.0**-53
        assert pop.cumulative_p[-1] <= u

        class FixedU:
            def random(self):
                return u

        assert sample_target_index(pop, FixedU()) == 10

    def test_frequencies_within_binomial_bound(self):
        # 4 sigma two-sided bound for a fair coin.
        pop = validate_population([0.5, 0.5])
        rng = np.random.default_rng(42)
        draws = 10**6
        ones = sum(1 for _ in range(draws) if sample_target_index(pop, rng) == 1)
        sigma = math.sqrt(0.25 / draws)
        assert abs(ones / draws - 0.5) <= 4 * sigma


class TestSimulate:
    def test_deterministic(self):
        pop = validate_population([0.5, 0.3, 0.2], [0.9, 0.7, 0.8])
        cfg = SimConfig(model="GH", reps=30_000, seed=7)
        assert simulate(pop, cfg) == simulate(pop, cfg)

    def test_seed_changes_results(self):
        pop = validate_population([0.5, 0.5])
        a = simulate(pop, SimConfig(model="ABCD", reps=10_000, seed=1))
        b = simulate(pop, SimConfig(model="ABCD", reps=10_000, seed=2))
        assert a.counts != b.counts

    def test_abcd_never_censors_and_matches_mean(self):
        pop = validate_population([0.5, 0.3, 0.2])
        emp = simulate(pop, SimConfig(model="ABCD", reps=100_000, seed=7))
        assert emp.censored == 0
        assert abs(emp.mean_detected - 1.7) <= 3 * emp.stderr

    def test_single_replication(self):
        pop = validate_population([0.5, 0.5])
        emp = simulate(pop, SimConfig(model="ABCD", reps=1, seed=1))
        assert emp.reps == 1
        assert emp.detected == 1

    def test_j_optimal_weights_mean(self):
        pop = validate_population([0.5, 0.3, 0.2])
        emp = simulate(pop, SimConfig(model="J", reps=100_000, seed=11, q=j_optimal_q(pop)))
        assert abs(emp.mean_detected - 2.8969501) <= 3 * emp.stderr

    def test_gh_censored_fraction(self):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 1.0, 0.5])
        reps = 100_000
        emp = simulate(pop, SimConfig(model="GH", reps=reps, seed=5))
        sigma = math.sqrt(0.1 * 0.9 / reps)
        assert abs(emp.censored / reps - 0.1) <= 3 * sigma

    def test_ikl_uniform_mean(self, rng):
        pop = random_population(rng, 5, perfect=True)
        emp = simulate(pop, SimConfig(model="IKL", reps=50_000, seed=3, q=uniform_weights(5)))
        assert abs(emp.mean_detected - 3.0) <= 3 * emp.stderr

    def test_mn_with_perfect_recognition_is_bit_identical_to_j(self):
        pop = validate_population([0.5, 0.3, 0.2])
        q = uniform_weights(3)
        ej = simulate(pop, SimConfig(model="J", reps=50_000, seed=3, q=q))
        em = simulate(pop, SimConfig(model="MN", reps=50_000, seed=3, q=q))
        assert ej.counts == em.counts
        assert dkw_check(em, dist_j(pop, q), alpha=0.001)

    def test_counts_add_up(self, rng):
        pop = random_population(rng, 4, s_lo=0.3)
        cfg = SimConfig(model="OP", reps=12_345, seed=9, q=uniform_weights(4))
        emp = simulate(pop, cfg)
        assert emp.reps == 12_345
        assert sum(emp.counts.values()) + emp.censored == 12_345


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_geometric_counts_are_censored(self):
        # At rate 1e-19 the inverted attempt count exceeds the int64 range.
        pop = validate_population([0.5, 0.5])
        q = InspectionWeights(q=np.array([1e-19, 1.0]))
        emp = simulate(pop, SimConfig(model="J", reps=1000, seed=1, q=q))
        assert min(emp.counts) >= 1
        assert math.isfinite(emp.mean_detected) and emp.mean_detected >= 1.0
        assert emp.censored > 0


class TestDkw:
    def test_band_formula(self):
        assert dkw_band(100_000, 0.001) == pytest.approx(
            math.sqrt(math.log(2000) / 200_000), abs=1e-15
        )

    def test_each_model_against_its_exact_law(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        q = uniform_weights(5)
        sched = ef_schedule(pop)
        cases = {
            "ABCD": (None, dist_abcd(pop)),
            "EF": (None, dist_ef(sched)),
            "GH": (None, dist_gh(pop)),
            "IKL": (q, dist_ikl_exact(pop, q)),
            "J": (q, dist_j(pop, q)),
            "MN": (q, dist_mn(pop, q)),
            "OP": (q, dist_op_exact(pop, q)),
        }
        for model, (qq, exact) in cases.items():
            emp = simulate(pop, SimConfig(model=model, reps=40_000, seed=17, q=qq))
            assert dkw_check(emp, exact, alpha=0.001), model

    def test_detects_wrong_law(self):
        pop = validate_population([0.5, 0.3, 0.2], [0.5, 0.5, 0.5])
        q = uniform_weights(3)
        emp_j = simulate(
            pop, SimConfig(model="J", reps=100_000, seed=23, q=q)
        )
        assert not dkw_check(emp_j, dist_mn(pop, q), alpha=0.001)

    def test_single_replication_band_is_vacuous(self):
        pop = validate_population([0.5, 0.5])
        emp = simulate(pop, SimConfig(model="ABCD", reps=1, seed=1))
        assert dkw_band(1, 0.001) >= 1.0
        assert dkw_check(emp, dist_abcd(pop), alpha=0.001)

    def test_atom_mismatch_fails(self):
        pop = validate_population([0.5, 0.5], [0.5, 0.5])
        emp = simulate(pop, SimConfig(model="GH", reps=100_000, seed=2))
        perfect = validate_population([0.5, 0.5])
        assert not dkw_check(emp, dist_abcd(perfect), alpha=0.001)


class TestEmpiricalExport:
    def test_csv_format(self):
        pop = validate_population([0.5, 0.5], [0.8, 0.8])
        emp = simulate(pop, SimConfig(model="GH", reps=1000, seed=4))
        text = empirical_csv_text(emp, config_echo={"model": "GH", "seed": 4})
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "m,count"
        assert lines[-1] == f"censored,{emp.censored}"
        total = sum(int(line.split(",")[1]) for line in lines[2:-1])
        assert total == emp.detected
