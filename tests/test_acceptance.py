"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every criterion is deterministic: all randomness flows from the
fixed seeds below.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from click.testing import CliRunner

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
    dkw_check,
    ef_schedule,
    ikl_mean_exact,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
    simulate,
    solve_conditional_inspection,
    uniform_weights,
    validate_population,
)
from priorsearch.cli import main as cli_main
from priorsearch.ordering import EXPECTED_SMALLER, dominance_report

from oracle import (
    abcd_policy,
    conditional_mean,
    ef_best_schedule_bruteforce,
    ikl_mean_bruteforce,
    profile_to_weights,
    sup_cdf_distance,
    truncated_schedule_score,
)
from conftest import cut_rule, equal_mass_population

SEED = 20260810


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}", flush=True)


def test_criterion_1_uniform_101_exact_mean(tmp_path):
    with criterion(1, "uniform prior N=101 evaluates to mean exactly 51"):
        path = tmp_path / "u101.csv"
        rows = "\n".join(f"i{k},{1.0 / 101!r}" for k in range(1, 102))
        path.write_text("id,p\n" + rows + "\n")
        start = time.perf_counter()
        result = CliRunner().invoke(
            cli_main, ["evaluate", "--model", "ABCD", "--input", str(path)]
        )
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        mean_line = next(
            line for line in result.output.splitlines() if line.startswith("mean:")
        )
        assert float(mean_line.split(":")[1]) == 51.0
        assert elapsed < 1.0


def test_criterion_2_replacement_sampling_optimum():
    with criterion(2, "sqrt-prior weights attain the replacement-sampling optimum"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            pop = validate_population(rng.dirichlet(np.ones(n)))
            q_opt = j_optimal_q(pop)
            best = j_mean(pop, q_opt)
            closed_form = math.fsum(np.sqrt(pop.p).tolist()) ** 2
            assert abs(best - closed_form) <= 1e-10
            rand_q = rng.dirichlet(np.ones(n), size=1000)
            rand_means = (pop.p / rand_q).sum(axis=1)
            assert best <= rand_means.min()
        assert time.perf_counter() - start < 30.0


def test_criterion_3_imperfect_recognition_optimum():
    with criterion(3, "sqrt(p/s) weights attain the imperfect-recognition optimum"):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p = rng.dirichlet(np.ones(n))
            s = rng.uniform(0.2, 1.0, size=n)
            pop = validate_population(p, s)
            best = mn_mean(pop, mn_optimal_q(pop))
            closed_form = math.fsum(np.sqrt(pop.p / pop.s).tolist()) ** 2
            assert abs(best - closed_form) <= 1e-10
            # With perfect recognition the two model families coincide
            # exactly, float for float.
            perfect = validate_population(p, np.ones(n))
            assert np.array_equal(mn_optimal_q(perfect).q, j_optimal_q(perfect).q)
            assert mn_mean(perfect, mn_optimal_q(perfect)) == j_mean(
                perfect, j_optimal_q(perfect)
            )


def test_criterion_4_partial_order_on_random_populations():
    with criterion(4, "all 14 ordered relations hold on 100 random populations"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 8))
            pop = validate_population(
                rng.dirichlet(np.ones(n)), rng.uniform(0.3, 1.0, size=n)
            )
            report = dominance_report(pop, tol=1e-9)
            assert report.ef_residual < 1e-13
            assert report.ok, report.mismatches
            for pair in EXPECTED_SMALLER:
                assert report.verdicts[pair].relation in ("smaller", "equal")
        assert time.perf_counter() - start < 120.0


def test_criterion_5_equality_conditions():
    with criterion(5, "distributional equalities under full detection, uniform priors and equal s_i p_i"):
        rng = np.random.default_rng(SEED)
        # Full detection probability: perfect recognition everywhere.
        pop = validate_population(rng.dirichlet(np.ones(5)))
        # Uniform priors with uniform weights, heterogeneous recognition.
        pop_u = validate_population(np.full(4, 0.25), rng.uniform(0.3, 1.0, size=4))
        # Equal detection masses s_i p_i, at nonuniform weights.
        s = rng.uniform(0.3, 1.0, size=4)
        pop_m = validate_population((1 / s) / (1 / s).sum(), s)
        cases = (
            (dominance_report(pop),
             (("ABCD", "EF"), ("ABCD", "GH"), ("EF", "GH"), ("J", "MN"), ("IKL", "OP"))),
            (dominance_report(pop_u, q=uniform_weights(4)), (("ABCD", "IKL"),)),
            (dominance_report(pop_m, q=mn_optimal_q(pop_m)), (("GH", "OP"),)),
        )
        for report, pairs in cases:
            assert report.ok, report.mismatches
            for pair in pairs:
                assert report.verdicts[pair].relation == "equal"
                dx = report.distributions[pair[0]]
                dy = report.distributions[pair[1]]
                assert sup_cdf_distance(dx, dy) < 1e-12


def test_criterion_6_incomparability_family():
    with criterion(6, "p_i ~ i, s_i = 1/i: GH = OP and EF < OP, while MN and OP cannot be ordered"):
        for n in range(2, 11):
            pop = equal_mass_population(n)
            c = 2.0 / (n * (n + 1))
            for q in (uniform_weights(n), mn_optimal_q(pop)):
                report = dominance_report(pop, q=q)
                assert report.ok, report.mismatches
                assert report.verdicts[("GH", "OP")].relation == "equal"
                assert report.verdicts[("EF", "OP")].relation == "smaller"
                assert report.verdicts[("MN", "OP")].relation == "incomparable"
                d_op = report.distributions["OP"]
                assert abs(d_op.atom_at_infinity - (1.0 - 2.0 / (n + 1))) <= 1e-12
                assert np.max(np.abs(d_op.cdf_array(n) - c * np.arange(1, n + 1))) <= 1e-12


def test_criterion_7_oracle_equivalence():
    with criterion(7, "exact computations agree with brute-force oracles"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 8))
            pop = validate_population(rng.dirichlet(np.ones(n)))
            raw = rng.dirichlet(np.ones(n)) + 1e-3
            q = InspectionWeights(q=raw / raw.sum())
            assert abs(ikl_mean_exact(pop, q) - ikl_mean_bruteforce(pop, q)) <= 1e-10
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = rng.dirichlet(np.ones(n)) + 0.05
            pop = validate_population(p / p.sum(), rng.uniform(0.2, 0.95, size=n))
            best_score, _ = ef_best_schedule_bruteforce(pop, horizon=6)
            with cut_rule(eps=1e-15, cap=10**4):
                greedy = ef_schedule(pop)
            assert truncated_schedule_score(pop, greedy, 6) <= best_score + 1e-12
        assert time.perf_counter() - start < 300.0


def test_criterion_8_monte_carlo_validation():
    with criterion(8, "simulation matches every exact law (DKW and means)"):
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        reps = 100_000
        for pop_idx in range(20):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n)) + 1e-3
            pop = validate_population(p / p.sum(), rng.uniform(0.3, 1.0, size=n))
            qu = uniform_weights(n)
            sched = ef_schedule(pop)
            cases = {
                "ABCD": (None, dist_abcd(pop), abcd_policy(pop)[1]),
                "EF": (None, dist_ef(sched), dist_ef(sched).mean_finite()),
                "GH": (None, dist_gh(pop), None),
                "IKL": (qu, dist_ikl_exact(pop, qu), ikl_mean_exact(pop, qu)),
                "J": (j_optimal_q(pop), dist_j(pop, j_optimal_q(pop)),
                      j_mean(pop, j_optimal_q(pop))),
                "MN": (mn_optimal_q(pop), dist_mn(pop, mn_optimal_q(pop)),
                       mn_mean(pop, mn_optimal_q(pop))),
                "OP": (qu, dist_op_exact(pop, qu), None),
            }
            for model_idx, (model, (q, exact, exact_mean)) in enumerate(cases.items()):
                cfg = SimConfig(
                    model=model, reps=reps, seed=SEED + 1000 * pop_idx + model_idx, q=q
                )
                emp = simulate(pop, cfg)
                assert dkw_check(emp, exact, alpha=0.001), (model, pop_idx)
                if exact_mean is None:
                    exact_mean = conditional_mean(exact)
                assert abs(emp.mean_detected - exact_mean) <= 3 * emp.stderr, (
                    model, pop_idx, emp.mean_detected, exact_mean
                )
        assert time.perf_counter() - start < 300.0


def test_criterion_9_mean_upper_bound():
    with criterion(9, "descending-order mean is bounded by (N+1)/2, tight only at uniform"):
        rng = np.random.default_rng(SEED)
        for _ in range(10_000):
            n = int(rng.integers(1, 41))
            pop = validate_population(rng.dirichlet(np.ones(n)))
            _, mean = abcd_policy(pop)
            bound = (n + 1) / 2
            assert mean <= bound + 1e-12
            if n > 1 and float(np.max(np.abs(pop.p - 1.0 / n))) > 1e-9:
                assert mean < bound - 1e-12
        for n in (1, 2, 7, 40, 101):
            uniform_pop = validate_population(np.full(n, 1.0 / n))
            _, mean = abcd_policy(uniform_pop)
            assert abs(mean - (n + 1) / 2) <= 1e-12


def test_criterion_10_decomposition_round_trip():
    with criterion(10, "attention/inspection decomposition reproduces target weights"):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            lam = rng.dirichlet(np.ones(n)) + 1e-3
            lam /= lam.sum()
            raw = rng.dirichlet(np.ones(n)) + 1e-3
            target = InspectionWeights(q=raw / raw.sum())
            scale = float(rng.uniform(0.05, 1.0))
            decomp = solve_conditional_inspection(lam, target, scale=scale)
            back = profile_to_weights(decomp)
            assert np.max(np.abs(back.q - target.q)) <= 1e-12
            # Scaling all conditional probabilities leaves the induced
            # weights unchanged.
            c = float(rng.uniform(0.01, 1.0))
            scaled = type(decomp)(lam=decomp.lam, pi=c * decomp.pi)
            back_scaled = profile_to_weights(scaled)
            assert np.max(np.abs(back_scaled.q - target.q)) <= 1e-12
