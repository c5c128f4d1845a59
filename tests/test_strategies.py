import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorsearch import (
    EnumerationLimitError,
    InspectionWeights,
    ScheduleTruncationError,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_op_exact,
    ef_schedule,
    ikl_mean_exact,
    ikl_search_q,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
    uniform_weights,
    validate_population,
)
from priorsearch.strategies import Schedule

from conftest import equal_mass_population, random_population, random_simplex
from oracle import abcd_policy, ef_swap_check, ikl_mean_pairwise

probability_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False), min_size=1, max_size=12
).map(lambda xs: np.asarray(xs) / np.sum(xs))


@st.composite
def priors_and_weights(draw):
    """A population of 1..8 items with priors bounded below, and arbitrary weights q."""
    n = draw(st.integers(min_value=1, max_value=8))
    p = np.asarray(draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n)))
    q = np.asarray(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)))
    return validate_population(p / p.sum()), InspectionWeights(q=q / q.sum())


class TestAbcd:
    def test_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2])
        policy, mean = abcd_policy(pop)
        assert policy.order == (1, 2, 3)
        assert abs(mean - 1.7) <= 1e-12

    def test_uniform_101_exact(self):
        pop = validate_population(np.full(101, 1.0 / 101))
        _, mean = abcd_policy(pop)
        assert mean == 51.0

    def test_single_item(self):
        _, mean = abcd_policy(validate_population([1.0]))
        assert mean == 1.0

    def test_sorts_descending_with_index_ties(self):
        pop = validate_population([0.2, 0.5, 0.2, 0.1])
        policy, _ = abcd_policy(pop)
        assert policy.order == (2, 1, 3, 4)

    @given(probability_vectors)
    def test_chebyshev_upper_bound(self, p):
        pop = validate_population(p)
        _, mean = abcd_policy(pop)
        assert mean <= (pop.n + 1) / 2 + 1e-12

    def test_bound_tight_only_at_uniform(self, rng):
        for n in (2, 5, 9):
            pop = validate_population(np.full(n, 1.0 / n))
            _, mean = abcd_policy(pop)
            assert abs(mean - (n + 1) / 2) <= 1e-12
        for _ in range(200):
            n = int(rng.integers(2, 10))
            pop = random_population(rng, n, perfect=True)
            if float(np.max(np.abs(pop.p - 1.0 / n))) < 1e-3:
                continue
            _, mean = abcd_policy(pop)
            assert mean < (n + 1) / 2 - 1e-12

    def test_adjacent_swap_never_helps(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pop = random_population(rng, n, perfect=True)
            policy, mean = abcd_policy(pop)
            ordered = [pop.p[i - 1] for i in policy.order]
            for k in range(n - 1):
                swapped = list(ordered)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                swapped_mean = math.fsum((j + 1) * v for j, v in enumerate(swapped))
                assert swapped_mean >= mean - 1e-15
                if abs(ordered[k] - ordered[k + 1]) > 1e-12:
                    assert swapped_mean > mean


class TestEfSchedule:
    def test_priority_example(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        sched = ef_schedule(pop, eps=1e-10)
        assert sched.steps[0] == 1
        assert sched.steps[1:].tolist() == [0] * (sched.steps.size - 1)
        assert sched.masses.tolist() == [0.4] + [0.6 * 0.5**j for j in range(1, sched.steps.size)]

    def test_perfect_recognition_reduces_to_descending_order(self):
        pop = validate_population([0.5, 0.3, 0.2])
        sched = ef_schedule(pop)
        assert sched.steps.tolist() == [0, 1, 2]
        assert sched.residual_mass == 0.0

    def test_tie_breaks_to_lowest_index(self):
        pop = validate_population([0.5, 0.5], [1.0, 1.0])
        sched = ef_schedule(pop)
        assert sched.steps[0] == 0

    def test_greedy_argmax_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            pop = random_population(rng, n, s_lo=0.25)
            sched = ef_schedule(pop, eps=1e-8)
            counts = [0] * n
            for item, mass in zip(sched.steps.tolist(), sched.masses.tolist()):
                masses = [
                    pop.p[i] * (1.0 - pop.s[i]) ** counts[i] * pop.s[i] for i in range(n)
                ]
                best = max(range(n), key=lambda i: (masses[i], -i))
                assert item == best
                assert abs(mass - masses[best]) <= 1e-15
                counts[item] += 1

    def test_mass_accounting(self, rng):
        pop = random_population(rng, 4, s_lo=0.4)
        sched = ef_schedule(pop, eps=1e-12)
        covered = math.fsum(sched.masses.tolist())
        assert abs(covered + sched.residual_mass - 1.0) <= 1e-12

    def test_truncation_budget_error(self):
        pop = validate_population([0.5, 0.5], [1e-6, 1e-6])
        with pytest.raises(ScheduleTruncationError):
            ef_schedule(pop, eps=1e-9, max_steps=10)

    def test_eps_validation(self):
        pop = validate_population([1.0])
        with pytest.raises(ValueError):
            ef_schedule(pop, eps=0.0)
        with pytest.raises(ValueError):
            ef_schedule(pop, max_steps=0)


class TestEfMean:
    """The EF law's mean over its schedule, and the residual mass it leaves at infinity."""

    def test_geometric_tail_example(self):
        # Closed form: 0.4 * 1 + sum_j (j+1) 0.6 * 0.5^j = 2.2.
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        law = dist_ef(ef_schedule(pop, eps=1e-12))
        assert abs(law.mean_finite() - 2.2) <= 1e-9
        assert law.atom_at_infinity < 1e-12

    def test_perfect_recognition_matches_descending_mean(self):
        pop = validate_population([0.5, 0.3, 0.2])
        law = dist_ef(ef_schedule(pop))
        assert law.mean_finite() == pytest.approx(1.7, abs=1e-12)
        assert law.atom_at_infinity == 0.0

    def test_single_item_geometric_mean(self):
        pop = validate_population([1.0], [0.5])
        law = dist_ef(ef_schedule(pop, eps=1e-14))
        assert abs(law.mean_finite() - 2.0) <= 1e-9
        assert law.atom_at_infinity < 1e-13


class TestEfSwapCheck:
    def test_greedy_schedule_passes(self, rng):
        for _ in range(10):
            pop = random_population(rng, int(rng.integers(1, 6)), s_lo=0.3)
            assert ef_swap_check(ef_schedule(pop, eps=1e-10))

    def test_reversed_pair_fails(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        sched = ef_schedule(pop, eps=1e-6)
        swap = [1, 0, *range(2, sched.steps.size)]
        bad = Schedule(steps=sched.steps[swap], masses=sched.masses[swap], residual_mass=sched.residual_mass)
        assert not ef_swap_check(bad)

    def test_single_item_trivially_passes(self):
        pop = validate_population([1.0], [0.5])
        assert ef_swap_check(ef_schedule(pop, eps=1e-6))


def conditional_mean(law):
    return law.conditional_on_detection().mean_finite()


class TestGhSummary:
    def test_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 1.0, 0.5])
        law = dist_gh(pop)
        assert abs(pop.detect_prob - 0.9) <= 1e-12
        assert abs(law.total_finite_mass - 0.9) <= 1e-12
        # Given detection: (1 * 0.5 + 2 * 0.3 + 3 * 0.1) / 0.9.
        assert abs(conditional_mean(law) - 14 / 9) <= 1e-12
        assert law.atom_at_infinity > 0.0

    def test_perfect_recognition_finite(self):
        pop = validate_population([0.5, 0.3, 0.2])
        law = dist_gh(pop)
        assert pop.detect_prob == pytest.approx(1.0, abs=1e-12)
        assert law.atom_at_infinity == 0.0
        assert conditional_mean(law) == pytest.approx(1.7, abs=1e-12)

    def test_single_item(self):
        pop = validate_population([1.0], [0.3])
        law = dist_gh(pop)
        assert pop.detect_prob == pytest.approx(0.3)
        assert conditional_mean(law) == 1.0
        assert law.atom_at_infinity > 0.0


class TestIkl:
    def test_uniform_weights_mean(self, rng):
        for n in range(1, 9):
            pop = random_population(rng, n, perfect=True)
            mean = ikl_mean_exact(pop, uniform_weights(n))
            assert abs(mean - (n + 1) / 2) <= 1e-12

    def test_two_item_hand_enumeration(self):
        pop = validate_population([0.7, 0.3])
        q = InspectionWeights(q=np.array([0.6, 0.4]))
        assert ikl_mean_exact(pop, q) == pytest.approx(1.46, abs=1e-12)

    def test_single_item(self):
        assert ikl_mean_exact(validate_population([1.0]), uniform_weights(1)) == 1.0

    def test_enumeration_limit(self):
        pop = validate_population(np.full(11, 1.0 / 11))
        with pytest.raises(EnumerationLimitError, match="enumeration limit"):
            ikl_mean_exact(pop, uniform_weights(11))


class TestIklBound:
    """E[T_IKL] = 1 + sum_{i<j} (p_i q_j + p_j q_i)/(q_i+q_j) >= 1 + sum_{i<j} min(p_i, p_j), the ABCD mean."""

    @given(priors_and_weights())
    def test_pairwise_oracle_matches_exact_mean(self, case):
        pop, q = case
        assert ikl_mean_pairwise(pop, q) == pytest.approx(ikl_mean_exact(pop, q), rel=1e-12, abs=0.0)

    @given(priors_and_weights())
    def test_abcd_mean_is_a_lower_bound(self, case):
        pop, q = case
        assert ikl_mean_exact(pop, q) >= dist_abcd(pop).mean_finite() - 1e-12

    @given(priors_and_weights())
    def test_gap_shrinks_along_powers_of_the_priors(self, case):
        # Each pair term is increasing in (p_j/p_i)^k, which falls with k when p_i > p_j.
        pop, _ = case
        abcd = dist_abcd(pop).mean_finite()
        gaps = [ikl_mean_exact(pop, InspectionWeights(q=pop.p**k / np.sum(pop.p**k))) - abcd
                for k in (0, 1, 2, 5, 10, 20, 40)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))


class TestIklSearch:
    def test_uniform_prior_cannot_beat_symmetry(self):
        pop = validate_population(np.full(3, 1.0 / 3))
        _, mean = ikl_search_q(pop, restarts=3, seed=1)
        assert mean == pytest.approx(2.0, abs=1e-9)
        # Coarse grid confirms no weight choice does better at uniform priors.
        grid = np.linspace(0.01, 0.98, 25)
        for a in grid:
            for b in grid:
                c = 1.0 - a - b
                if c <= 0.01:
                    continue
                q = InspectionWeights(q=np.array([a, b, c]))
                assert ikl_mean_exact(pop, q) >= 2.0 - 1e-9

    def test_beats_reference_point(self):
        pop = validate_population([0.7, 0.3])
        _, mean = ikl_search_q(pop, restarts=4, seed=2)
        assert mean <= 1.46

    def test_single_item(self):
        q, mean = ikl_search_q(validate_population([1.0]), restarts=1, seed=0)
        assert q.q[0] == pytest.approx(1.0)
        assert mean == 1.0

    def test_never_worse_than_uniform(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            pop = random_population(rng, n, perfect=True)
            _, mean = ikl_search_q(pop, restarts=2, seed=9)
            assert mean <= ikl_mean_exact(pop, uniform_weights(n)) + 1e-12


class TestJ:
    def test_uniform_prior_gives_uniform_weights(self):
        pop = validate_population(np.full(4, 0.25))
        q = j_optimal_q(pop)
        assert np.max(np.abs(q.q - 0.25)) <= 1e-15

    def test_optimal_weights_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2])
        q = j_optimal_q(pop)
        root = np.sqrt(pop.p)
        assert np.max(np.abs(q.q - root / root.sum())) <= 1e-15
        assert np.max(np.abs(q.q - [0.41545, 0.32180, 0.26275])) <= 1e-4

    def test_single_item(self):
        assert j_optimal_q(validate_population([1.0])).q[0] == 1.0

    def test_mean_at_own_weights_is_count(self):
        pop = validate_population([0.5, 0.3, 0.2])
        assert j_mean(pop, InspectionWeights(q=pop.p)) == pytest.approx(3.0, abs=1e-12)

    def test_optimal_mean_closed_form(self):
        pop = validate_population([0.5, 0.3, 0.2])
        mean = j_mean(pop, j_optimal_q(pop))
        target = math.fsum(np.sqrt(pop.p).tolist()) ** 2
        assert abs(mean - target) <= 1e-12
        assert mean == pytest.approx(2.89695, abs=1e-5)

    def test_uniform_everything_gives_count(self):
        pop = validate_population(np.full(5, 0.2))
        assert j_mean(pop, uniform_weights(5)) == pytest.approx(5.0, abs=1e-12)

    def test_optimum_beats_random_weights(self, rng):
        pop = random_population(rng, 6, perfect=True)
        best = j_mean(pop, j_optimal_q(pop))
        for _ in range(300):
            q = InspectionWeights(q=random_simplex(rng, 6))
            assert best <= j_mean(pop, q)


class TestMn:
    def test_perfect_recognition_matches_j_exactly(self):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 1.0, 1.0])
        assert np.array_equal(mn_optimal_q(pop).q, j_optimal_q(pop).q)
        assert mn_mean(pop, mn_optimal_q(pop)) == j_mean(pop, j_optimal_q(pop))

    def test_hand_example(self):
        pop = validate_population([0.5, 0.5], [1.0, 0.25])
        q = mn_optimal_q(pop)
        assert np.max(np.abs(q.q - [1 / 3, 2 / 3])) <= 1e-12
        assert mn_mean(pop, q) == pytest.approx(4.5, abs=1e-12)

    def test_single_item(self):
        pop = validate_population([1.0], [0.5])
        assert mn_mean(pop, mn_optimal_q(pop)) == pytest.approx(2.0, abs=1e-12)

    def test_optimum_beats_random_weights(self, rng):
        pop = random_population(rng, 5, s_lo=0.2)
        best = mn_mean(pop, mn_optimal_q(pop))
        target = math.fsum(np.sqrt(pop.p / pop.s).tolist()) ** 2
        assert abs(best - target) <= 1e-10
        for _ in range(300):
            q = InspectionWeights(q=random_simplex(rng, 5))
            assert best <= mn_mean(pop, q)


class TestOpSummary:
    def test_perfect_recognition_reduces_to_ikl(self):
        pop = validate_population([0.5, 0.3, 0.2])
        q = uniform_weights(3)
        law = dist_op_exact(pop, q)
        assert pop.detect_prob == pytest.approx(1.0, abs=1e-12)
        assert law.atom_at_infinity == 0.0
        assert conditional_mean(law) == pytest.approx(ikl_mean_exact(pop, q), abs=1e-15)

    def test_incomparable_family_detect_prob(self):
        pop = equal_mass_population(5)
        law = dist_op_exact(pop, mn_optimal_q(pop))
        assert abs(pop.detect_prob - 1 / 3) <= 1e-12
        assert abs(law.total_finite_mass - 1 / 3) <= 1e-12
        assert law.atom_at_infinity > 0.0

    def test_single_item(self):
        pop = validate_population([1.0], [0.4])
        law = dist_op_exact(pop, uniform_weights(1))
        assert pop.detect_prob == pytest.approx(0.4)
        assert conditional_mean(law) == 1.0

    def test_detect_prob_at_most_one_with_equality_iff_perfect(self, rng):
        for _ in range(20):
            pop = random_population(rng, 4, s_lo=0.3, s_hi=0.99)
            assert pop.detect_prob < 1.0
        perfect = random_population(rng, 4, perfect=True)
        assert perfect.detect_prob == pytest.approx(1.0, abs=1e-12)
