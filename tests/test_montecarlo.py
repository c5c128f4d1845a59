import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    montecarlo,
    simulate,
    uniform_weights,
    validate_population,
)
from priorsearch.models import LABELS, MODELS
from priorsearch.montecarlo import CHUNK, _draw_targets, _race_steps, write_empirical_csv

from conftest import random_population, random_simplex
from oracle import race_steps_one_shot, simulate_per_chunk


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


class FixedU:
    """Stands in for a generator whose every uniform draw is u, or whose draws are the array u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestSampleTargetIndex:
    def test_single_item(self, rng):
        pop = validate_population([1.0])
        assert _draw_targets(pop, rng, 5).tolist() == [0] * 5

    def test_inverse_cdf_boundaries(self):
        pop = validate_population([0.5, 0.3, 0.2])
        assert _draw_targets(pop, FixedU(0.3), 1).tolist() == [0]
        assert _draw_targets(pop, FixedU(0.6), 1).tolist() == [1]
        assert _draw_targets(pop, FixedU(0.95), 1).tolist() == [2]

    def test_largest_uniform_below_rounded_total_picks_last_item(self):
        pop = validate_population(np.full(10, 0.1))
        u = 1.0 - 2.0**-53
        assert pop.cumulative_p[-1] <= u
        assert _draw_targets(pop, FixedU(u), 1).tolist() == [9]

    @given(
        kind=st.sampled_from(["dirichlet", "span", "crowd"]),
        n=st.integers(1, 10_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guide_table_equals_full_search(self, kind, n, seed):
        g = np.random.default_rng(seed)
        if kind == "dirichlet":
            p = g.dirichlet(np.ones(n))
        elif kind == "span":
            p = 10.0 ** g.uniform(-300.0, 0.0, n)
        else:
            # Tiny priors between two large ones put many cut points in one bucket.
            p = np.concatenate([[1.0], g.uniform(1e-12, 1e-9, max(n - 2, 0)), [1.0]])[:n]
        pop = validate_population(p / math.fsum(p.tolist()))
        cum = pop.cumulative_p
        k = pop.cumulative_guide.size - 1
        assert k == min(2 ** math.ceil(math.log2(16 * n)), 2**16)
        # Every bucket edge, every cut point and its neighbours, and both ends.
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], np.arange(k) / k,
                            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.minimum(np.searchsorted(cum, u, side="right"), n - 1)
        assert np.array_equal(_draw_targets(pop, FixedU(u), u.size), want)

    def test_frequencies_within_binomial_bound(self):
        # 4 sigma two-sided bound for a fair coin.
        pop = validate_population([0.5, 0.5])
        draws = 10**6
        ones = int(np.count_nonzero(_draw_targets(pop, np.random.default_rng(42), draws) == 0))
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

    @pytest.mark.parametrize("model", LABELS)
    def test_batched_merge_equals_per_chunk_merge(self, model, rng):
        # 17 full chunks and 5 replications: one merge after 16 chunks, one after the partial chunk.
        pop = random_population(rng, 6, s_lo=0.3)
        q = InspectionWeights(q=random_simplex(rng, 6)) if MODELS[model].takes_q else None
        cfg = SimConfig(model=model, reps=17 * CHUNK + 5, seed=29, q=q)
        emp = simulate(pop, cfg)
        assert (emp.counts, emp.undetected, emp.capped) == simulate_per_chunk(pop, cfg)

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


class TestCensoring:
    def test_undetected_and_capped_are_counted_apart(self):
        # GH walks b (s p = .5) before a (s p = .25): a cap of 1 step never
        # reaches a, so no replication is both reached and missed.
        pop = validate_population([0.5, 0.5], [0.5, 1.0])
        full = simulate(pop, SimConfig(model="GH", reps=10_000, seed=3))
        assert full.undetected > 0 and full.capped == 0
        cut = simulate(pop, SimConfig(model="GH", reps=10_000, seed=3, max_steps=1))
        assert cut.undetected == 0 and cut.capped > 0
        assert cut.censored == cut.capped and cut.max_steps == 1

    def test_dkw_check_moves_the_mass_beyond_the_cap_to_the_atom(self):
        pop = validate_population([0.5, 0.5])
        q = uniform_weights(2)
        emp = simulate(pop, SimConfig(model="J", reps=20_000, seed=1, q=q, max_steps=3))
        assert emp.undetected == 0 and emp.capped > 0
        assert dkw_check(emp, dist_j(pop, q), alpha=0.001)
        # The law the cut replications are compared with is J's, not ABCD's.
        assert not dkw_check(emp, dist_abcd(pop), alpha=0.001)


def zipf_population(n: int):
    p = 1.0 / np.arange(1, n + 1)
    return validate_population(p / math.fsum(p.tolist()), np.linspace(0.4, 1.0, n))


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs, with 16 usable CPUs reported."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 16)
    return started


class TestRace:
    @given(
        n=st.sampled_from([1, 2, 63, 64, 100, 2**15 - 1, 2**15 + 1]),
        m=st.sampled_from([1, 4095, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_equal_one_draw(self, n, m, seed):
        # At most 2**22 keys for the one-shot reference: with N near 2**15 every block is one row.
        m = min(m, 2**22 // n)
        g = np.random.default_rng(seed)
        q = 2.0 ** g.uniform(-1000.0, 0.0, n)
        q[g.integers(n)] = 2.0**-1000
        q[g.integers(n)] = 1.0
        target = g.integers(0, n, m)
        blocked, one_shot = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_race_steps(blocked, q, target), race_steps_one_shot(one_shot, q, target))
        assert blocked.random() == one_shot.random()

    @pytest.mark.parametrize("model", ["IKL", "OP"])
    def test_threaded_chunks_equal_per_chunk_merge(self, model, monkeypatch):
        pop = zipf_population(100)
        cfg = SimConfig(model=model, reps=17 * CHUNK + 5, seed=31, q=uniform_weights(100))
        want = simulate_per_chunk(pop, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock between threads as often as it can
        try:
            for workers in (1, 2, 3, 16):
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda workers=workers: workers)
                emp = simulate(pop, cfg)
                assert (emp.counts, emp.undetected, emp.capped) == want, workers
        finally:
            sys.setswitchinterval(interval)

    def test_threads_only_for_races_of_64_items_or_more(self, thread_starts):
        reps = 2 * CHUNK + 1
        for model in LABELS:
            pop = zipf_population(63 if MODELS[model].walk == "race" else 100)
            q = uniform_weights(pop.n) if MODELS[model].takes_q else None
            simulate(pop, SimConfig(model=model, reps=reps, seed=3, q=q))
        assert thread_starts == []
        simulate(zipf_population(64), SimConfig(model="IKL", reps=reps, seed=3, q=uniform_weights(64)))
        assert thread_starts

    def test_one_chunk_holds_a_bounded_number_of_keys(self):
        n = 2000
        pop = zipf_population(n)
        cfg = SimConfig(model="OP", reps=CHUNK, seed=5, q=uniform_weights(n))
        tracemalloc.start()
        try:
            simulate(pop, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (4096, 2000) draw of keys alone is 62.5 MiB.
        assert peak < 8 * 2**20

    def test_cli_import_leaves_the_thread_pool_unimported(self):
        code = "import sys, priorsearch.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(montecarlo.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


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
    def test_csv_format(self, tmp_path):
        pop = validate_population([0.5, 0.5], [0.8, 0.8])
        emp = simulate(pop, SimConfig(model="GH", reps=1000, seed=4))
        path = tmp_path / "empirical.csv"
        write_empirical_csv(path, emp, config_echo={"model": "GH", "seed": 4})
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "m,count"
        assert lines[-1] == f"censored,{emp.censored}"
        total = sum(int(line.split(",")[1]) for line in lines[2:-1])
        assert total == emp.detected
