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
from priorsearch.montecarlo import (
    CHUNK,
    _draw_targets,
    _race_buffers,
    _race_steps,
    _target_table,
    write_empirical_csv,
)

from conftest import random_population, random_simplex
from oracle import ikl_mean_pairwise, race_steps_literal, simulate_literal, simulate_per_chunk


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
        assert _draw_targets(_target_table(pop), rng, 5).tolist() == [0] * 5

    def test_inverse_cdf_boundaries(self):
        table = _target_table(validate_population([0.5, 0.3, 0.2]))
        assert _draw_targets(table, FixedU(0.3), 1).tolist() == [0]
        assert _draw_targets(table, FixedU(0.6), 1).tolist() == [1]
        assert _draw_targets(table, FixedU(0.95), 1).tolist() == [2]

    def test_largest_uniform_below_rounded_total_picks_last_item(self):
        table = _target_table(validate_population(np.full(10, 0.1)))
        u = 1.0 - 2.0**-53
        assert table[0][-1] <= u
        assert _draw_targets(table, FixedU(u), 1).tolist() == [9]

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
        table = _target_table(validate_population(p / math.fsum(p.tolist())))
        cum, first, _ = table
        k = first.size
        assert k == min(2 ** math.ceil(math.log2(16 * n)), 2**16)
        # Every bucket edge, every cut point and its neighbours, and both ends.
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], np.arange(k) / k,
                            cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.minimum(np.searchsorted(cum, u, side="right"), n - 1)
        assert np.array_equal(_draw_targets(table, FixedU(u), u.size), want)

    def test_frequencies_within_binomial_bound(self):
        # 4 sigma two-sided bound for a fair coin.
        pop = validate_population([0.5, 0.5])
        draws = 10**6
        ones = int(np.count_nonzero(_draw_targets(_target_table(pop), np.random.default_rng(42), draws) == 0))
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

    def test_windows_without_detections_add_no_counts(self):
        # s = 1e-300: every replication is missed, so no merge window holds a step.
        pop = validate_population([0.5, 0.5], [1e-300, 1e-300])
        cfg = SimConfig(model="GH", reps=17 * CHUNK + 5, seed=29)
        emp = simulate(pop, cfg)
        assert (emp.counts, emp.undetected, emp.capped) == ({}, cfg.reps, 0)
        assert math.isnan(emp.mean_detected)

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


def crowded_population() -> tuple:
    """30 items with Dirichlet(0.05) priors, a third of them with s = 1, and weights q whose
    largest-prior item has q = 1e-19."""
    g = np.random.default_rng(2024)
    p = g.dirichlet(np.full(30, 0.05))
    s = np.where(np.arange(30) % 3 == 0, 1.0, g.uniform(0.2, 1.0, 30))
    q = g.dirichlet(np.ones(30))
    q[np.argmax(p)] = 1e-19
    return validate_population(p, s), InspectionWeights(q / math.fsum(q.tolist()))


class TestWalkOracle:
    @pytest.mark.parametrize("max_steps", [10**7, 5])
    @pytest.mark.parametrize("model", LABELS)
    def test_simulate_equals_the_literal_walks(self, model, max_steps):
        pop, q = crowded_population()
        assert np.diff(_target_table(pop)[1]).max() >= 2  # some guide bucket holds several cut points
        cfg = SimConfig(model=model, reps=17 * CHUNK + 5, seed=37, max_steps=max_steps,
                        q=q if MODELS[model].takes_q else None)
        want = simulate_literal(pop, cfg)
        if model in ("J", "MN") or max_steps < pop.n:
            assert want[2] > 0  # the 1e-19 rate, or the cap below N, censors some walks
        emp = simulate(pop, cfg)
        assert (emp.counts, emp.undetected, emp.capped) == want

    def test_ef_attempts_past_a_short_schedule_never_reach_the_target(self):
        g = np.random.default_rng(8)
        pop = validate_population(g.dirichlet(np.ones(8)), g.uniform(0.2, 0.6, 8))
        short = ef_schedule(pop, eps=0.05)
        assert np.count_nonzero(np.bincount(short.steps)) > 2  # several items run out of attempts
        cfg = SimConfig(model="EF", reps=17 * CHUNK + 5, seed=41)
        want = simulate_literal(pop, cfg, short)
        assert want[2] > 0
        emp = simulate(pop, cfg, short)
        assert (emp.counts, emp.undetected, emp.capped) == want

    @pytest.mark.parametrize("q, counted_by", [((1e-9, 1 - 1e-9), "sort"), ((0.5, 0.5), "bincount")])
    def test_both_window_counts_match_the_sort(self, q, counted_by, monkeypatch):
        # One window of 16 chunks; its largest step decides how the window is counted.
        pop = validate_population([0.5, 0.5])
        cfg = SimConfig(model="J", reps=16 * CHUNK, seed=43, q=InspectionWeights(np.array(q)))
        emp = simulate(pop, cfg)
        spread = max(emp.counts) > montecarlo._TALLY_SPAN * emp.detected
        assert spread == (counted_by == "sort")
        monkeypatch.setattr(montecarlo, "_TALLY_SPAN", 0)  # every window sorted
        sorted_emp = simulate(pop, cfg)
        assert list(emp.counts.items()) == list(sorted_emp.counts.items())
        assert (emp.undetected, emp.capped) == (sorted_emp.undetected, sorted_emp.capped)


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
        q_kind=st.sampled_from(["spread", "uniform", "dirichlet"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_steps_equal_the_literal_race(self, n, m, q_kind, seed):
        # At most 2**22 uniforms per example: with N near 2**15 every block is one replication.
        m = min(m, 2**22 // n)
        g = np.random.default_rng(seed)
        if q_kind == "spread":  # q from 2**-1000 to 1, both ends present
            q = 2.0 ** g.uniform(-1000.0, 0.0, n)
            q[g.integers(n)] = 2.0**-1000
            q[g.integers(n)] = 1.0
        else:
            q = np.full(n, 1.0 / n) if q_kind == "uniform" else g.dirichlet(np.ones(n))
        target = g.integers(0, n, m)
        thresholds, literal = np.random.default_rng(seed), np.random.default_rng(seed)
        steps = _race_steps(thresholds, q, target, _race_buffers(n))
        assert np.array_equal(steps, race_steps_literal(literal, q, target))
        assert thresholds.random() == literal.random()

    @pytest.mark.parametrize("model", ["IKL", "OP"])
    def test_means_where_no_exact_law_exists(self, model):
        # N = 100 is past the subset DP; q spans a ratio of 10^6, so the race's order matters.
        n = 100
        pop = zipf_population(n)
        w = np.geomspace(1.0, 1e-6, n)[np.random.default_rng(7).permutation(n)]
        q = InspectionWeights(w / math.fsum(w.tolist()))
        emp = simulate(pop, SimConfig(model=model, reps=100_000, seed=41, q=q))
        # Given detection, OP's target is drawn from s p / detect_prob, and the race ignores recognition.
        detected = pop if model == "IKL" else validate_population(pop.s * pop.p / (pop.s @ pop.p))
        assert abs(emp.mean_detected - ikl_mean_pairwise(detected, q)) <= 5 * emp.stderr

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_callers_errstate_reaches_every_chunk(self, workers, monkeypatch):
        # exp(-q t) underflows for q spread over 1..1e-6; each worker thread runs its chunk
        # in a copy of the caller's context, so the caller's np.errstate holds there too.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        w = np.geomspace(1.0, 1e-6, 100)
        cfg = SimConfig(model="IKL", reps=3 * CHUNK, seed=1, q=InspectionWeights(w / math.fsum(w.tolist())))
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            simulate(zipf_population(100), cfg)

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

    def test_cli_import_leaves_numpy_random_unimported(self):
        # numpy loads numpy.random on first use; an annotation evaluated at import would load it
        # in every start-up, simulate or not.
        code = "import sys, priorsearch.cli; print('numpy.random' in sys.modules)"
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
