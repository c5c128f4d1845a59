import json

import numpy as np
import pytest

from priorsearch import (
    InspectionWeights,
    cli,
    dist_gh,
    ikl_mean_exact,
    mn_optimal_q,
    models,
    montecarlo,
    strategies,
    uniform_weights,
)
from priorsearch.cli import main
from priorsearch.distributions import InspectionDistribution
from priorsearch.population import bayes_update, load_likelihoods, load_population, load_weights, save_population_csv

from conftest import MALFORMED_JSON, POP_CSV_TEXT, equal_mass_population
from oracle import ikl_mean_pairwise
from test_golden import CASES, GOLDEN, write_inputs


def get_line(output, prefix):
    for line in output.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{output}")


def assert_refused(result, prefix):
    """Exit 2 with one `error:` line on stderr, starting with ``prefix``, and nothing on stdout."""
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith(prefix), result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


def tiny_rate_inputs(tmp_path):
    """Two equal priors; J's rate for the first item is so small that 1 - rate rounds to 1."""
    pop_path, q_path = tmp_path / "pop.csv", tmp_path / "q.csv"
    pop_path.write_text("id,p\na,0.5\nb,0.5\n")
    q_path.write_text("id,q\na,1e-17\nb,1\n")
    return ["--input", str(pop_path), "--q-file", str(q_path)]


def stalled_ef_input(tmp_path):
    """Recognition 1e-9 leaves EF's schedule almost all its mass when it reaches its budget of 10^6 steps."""
    path = tmp_path / "stalled.csv"
    path.write_text("id,p,s\na,0.5,1e-9\nb,0.5,1e-9\n")
    return ["--input", str(path)]


def never_found_input(tmp_path, text="id,p,s\na,1e-8,1e-17\nb,0.99999999,0.5\n"):
    """Item a's 1 - s rounds to 1, so no inspection ever finds it; item b is found at rate 0.5."""
    path = tmp_path / "never.csv"
    path.write_text(text)
    return ["--input", str(path)]


TINY_S_TEXT = "id,p,s\na,0.5,1e-310\nb,0.5,0.5\n"  # 1/s overflows for a subnormal s


class TestEvaluate:
    def test_abcd_uniform_101(self, runner, tmp_path):
        path = tmp_path / "u101.csv"
        rows = "\n".join(f"i{k},{1.0 / 101!r}" for k in range(1, 102))
        path.write_text("id,p\n" + rows + "\n")
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 0
        assert float(get_line(result.output, "mean:")) == 51.0

    def test_j_reports_optimal_weights(self, runner, perfect_csv):
        result = runner.invoke(main, ["evaluate", "--model", "J", "--input", perfect_csv])
        assert result.exit_code == 0
        q = [float(x) for x in get_line(result.output, "q (optimal):").split()]
        assert np.max(np.abs(np.array(q) - [0.41545, 0.32180, 0.26275])) <= 1e-4
        assert float(get_line(result.output, "mean:")) == pytest.approx(2.89695, abs=1e-5)

    def test_gh_infinite_mean_format(self, runner, pop_csv):
        result = runner.invoke(main, ["evaluate", "--model", "GH", "--input", pop_csv])
        assert result.exit_code == 0
        assert "mean: ∞ (detect_prob=0.900, conditional mean=1.556)" in result.output

    def test_ikl_requires_weights(self, runner, pop_csv):
        result = runner.invoke(main, ["evaluate", "--model", "IKL", "--input", pop_csv])
        assert result.exit_code == 2

    def test_ikl_uniform(self, runner, perfect_csv):
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", perfect_csv, "--uniform-q"]
        )
        assert result.exit_code == 0
        assert float(get_line(result.output, "mean:")) == pytest.approx(2.0, abs=1e-12)

    def test_ikl_mean_line_is_exact_mean_repr(self, runner, tmp_path):
        path = tmp_path / "pop7.csv"
        p = np.random.default_rng(3).dirichlet(np.ones(7))
        path.write_text("id,p\n" + "".join(f"i{k},{v!r}\n" for k, v in enumerate(p.tolist())))
        pop = load_population(str(path)).population
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", str(path), "--uniform-q"]
        )
        assert result.exit_code == 0
        assert get_line(result.output, "mean:") == repr(ikl_mean_exact(pop, uniform_weights(7)))

    def test_ikl_mean_is_looked_up_by_name(self, runner, perfect_csv, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return strategies.ikl_mean_exact(*args)

        monkeypatch.setattr(models, "ikl_mean_exact", counted)
        for runs in (1, 2):
            result = runner.invoke(main, ["evaluate", "--model", "IKL", "--input", perfect_csv, "--uniform-q"])
            assert result.exit_code == 0, result.output
            assert len(calls) == runs

    @pytest.mark.parametrize("case", [
        "evaluate-ABCD-pop_csv",
        "evaluate-GH-pop_csv",
        "evaluate-IKL-pop_csv-q3",
        "evaluate-J-pop_csv",
        "evaluate-MN-pop_csv",
        "evaluate-OP-pop_csv-q_spread",
    ])
    def test_closed_mean_models_build_their_law_only_for_out(self, runner, tmp_path, monkeypatch, case):
        def unbuilt(*args):
            raise RuntimeError("law built")

        for name in ("dist_abcd", "dist_gh", "dist_ikl_exact", "dist_j", "dist_mn", "dist_op_exact"):
            monkeypatch.setattr(models, name, unbuilt)
        paths = write_inputs(tmp_path)
        args = [paths.get(a, a) for a in CASES[case]]
        args = args[: args.index("--out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        golden = (GOLDEN / case / "stdout.txt").read_text().replace("<tmp>", str(tmp_path))
        assert result.output == golden[: golden.index("wrote ")]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert str(result.exception) == "law built"

    @pytest.mark.parametrize("flags", [["--model", "GH"], ["--model", "OP", "--uniform-q"]])
    def test_zero_detection_probability_is_refused(self, runner, tmp_path, flags):
        # Every s_i p_i underflows to 0, so there is no detection to condition the mean on.
        path = tmp_path / "zero.csv"
        path.write_text("id,p,s\na,0.5,5e-324\nb,0.5,5e-324\n")
        for out in ([], ["--out", str(tmp_path / "out")]):
            result = runner.invoke(main, ["evaluate", *flags, "--input", str(path), *out])
            assert_refused(result, "error: no finite mass to condition on")

    def test_enumerable_model_rejects_weights(self, runner, pop_csv):
        result = runner.invoke(
            main, ["evaluate", "--model", "ABCD", "--input", pop_csv, "--uniform-q"]
        )
        assert result.exit_code == 2

    def test_enumeration_limit_exit_code(self, runner, tmp_path):
        # 11 items: past the 10-item limit (exit 4) that the race laws had before they were an integral.
        path = tmp_path / "big.csv"
        n = 11
        rows = "\n".join(f"i{k},{1.0 / n!r}" for k in range(n))
        path.write_text("id,p\n" + rows + "\n")
        for model in ("IKL", "OP"):
            result = runner.invoke(
                main, ["evaluate", "--model", model, "--input", str(path), "--uniform-q"]
            )
            assert result.exit_code == 0, result.output
            assert float(get_line(result.output, "mean:")) == pytest.approx(6.0, rel=1e-14)

    def test_invalid_population_exit_code(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p\na,0.5\nb,0.4\n")
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("pop.csv", "id,p\nx,0.5\ny,0\nz,0.5\n", "p for item y is 0.0"),
            ("pop.json", '{"p": [0.5, -0.25, 0.75]}', "p for item 2 is -0.25"),
            ("pop.json", '{"id": ["x"], "p": [0.5, 0.5, 0]}', "p for item 3 is 0.0"),
            ("lam.csv", "id,p,lambda\nx,0.5,0.5\ny,0.5,0\n", "lambda for item y is 0.0"),
        ],
        ids=["csv", "json-without-ids", "json-short-ids", "lambda"],
    )
    def test_non_positive_entry_names_the_file_and_item(self, runner, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {path}: {message}, not strictly positive\n"

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
    def test_malformed_json_population_exit_code(self, runner, tmp_path, text):
        path = tmp_path / "pop.json"
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}: malformed")

    def test_distribution_output_with_manifest(self, runner, perfect_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["evaluate", "--model", "ABCD", "--input", perfect_csv, "--out", str(out)],
        )
        assert result.exit_code == 0
        csv_text = (out / "dist_ABCD.csv").read_text()
        assert csv_text.splitlines()[0] == "m,pmf,cdf"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["outputs"] == ["dist_ABCD.csv"]
        assert manifest["tool_version"]

    def test_rerun_reproduces_outputs_byte_for_byte(self, runner, pop_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["evaluate", "--model", "GH", "--input", pop_csv]
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "dist_GH.csv").read_bytes() == (out2 / "dist_GH.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_ef_schedule_at_its_budget_reports_its_residual(self, runner, tmp_path):
        # As a J or MN law at its horizon cap: the schedule stops and its residual is the law's atom.
        result = runner.invoke(main, ["evaluate", "--model", "EF", *stalled_ef_input(tmp_path)])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "schedule steps:") == "1000000"
        assert get_line(result.output, "residual mass:") == "0.9995001249930532"

    def test_ef_item_never_found_goes_straight_to_the_residual(self, runner, tmp_path):
        # b's residual 0.99999999 / 2^44 falls below 1e-13 at step 44; a's prior joins it untouched.
        args = never_found_input(tmp_path)
        result = runner.invoke(main, ["evaluate", "--model", "EF", *args])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "schedule steps:") == "44"
        assert get_line(result.output, "residual mass:") == "1.0000056843418292e-08"
        refused = runner.invoke(main, ["order", *args])
        assert_refused(refused, "error: EF carries truncation mass ")
        assert refused.stderr.endswith("its law is cut at step 44\n")

    def test_j_tiny_rate_caps_the_horizon(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", "--model", "J", *tiny_rate_inputs(tmp_path)])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "mean:") == "5e+16"

    def test_j_tiny_rate_law_is_one_step_and_an_atom(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["evaluate", "--model", "J", *tiny_rate_inputs(tmp_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = (out / "dist_J.csv").read_text().splitlines()
        assert rows == ["m,pmf,cdf", "1,0.5,0.5", "atom_at_infinity,0.5", "truncated,true"]


class TestSimulate:
    def test_single_replication(self, runner, perfect_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", perfect_csv, "--reps", "1", "--seed", "1"],
        )
        assert result.exit_code == 0
        assert get_line(result.output, "reps:") == "1"
        assert get_line(result.output, "detected:") == "1"

    def test_check_exact_passes(self, runner, pop_csv):
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "MN", "--input", pop_csv, "--optimal-q",
                "--reps", "20000", "--seed", "7", "--check-exact",
            ],
        )
        assert result.exit_code == 0
        assert "dkw check: PASS" in result.output

    def test_check_exact_failure_exits_3(self, runner, tmp_path):
        # At alpha = 0.999 the DKW band is so narrow that 100k fair draws miss it.
        path = tmp_path / "pop.csv"
        path.write_text("id,p\na,0.5\nb,0.5\n")
        args = [
            "simulate", "--model", "ABCD", "--input", str(path),
            "--reps", "100000", "--seed", "1", "--alpha", "0.999", "--check-exact",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stdout.splitlines()[-1] == "dkw check: FAIL (alpha=0.999)"
        # With --out, both files are written before anything is printed, and the verdict follows `wrote …`.
        out = tmp_path / "out"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stdout.splitlines()[-2:] == [f"wrote {out / 'empirical.csv'}", "dkw check: FAIL (alpha=0.999)"]
        assert sorted(f.name for f in out.iterdir()) == ["empirical.csv", "manifest.json"]

    def test_outputs_reproducible_byte_for_byte(self, runner, pop_csv, tmp_path):
        args = [
            "simulate", "--model", "GH", "--input", pop_csv,
            "--reps", "5000", "--seed", "13",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "empirical.csv").read_bytes() == (out2 / "empirical.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_op_censored_fraction_incomparable_family(self, runner, tmp_path):
        pop = equal_mass_population(5)
        path = tmp_path / "fam.csv"
        save_population_csv(path, pop)
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "OP", "--input", str(path), "--uniform-q",
                "--reps", "30000", "--seed", "5",
            ],
        )
        assert result.exit_code == 0
        censored = int(get_line(result.output, "censored:"))
        frac = censored / 30000
        sigma = (2 / 3 * 1 / 3 / 30000) ** 0.5
        assert abs(frac - 2 / 3) <= 3 * sigma

    def test_missing_q_exit_code(self, runner, pop_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "OP", "--input", pop_csv, "--reps", "10", "--seed", "1"],
        )
        assert result.exit_code == 2

    def test_optimal_q_rejected_for_op(self, runner, pop_csv):
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "OP", "--input", pop_csv, "--optimal-q",
                "--reps", "10", "--seed", "1",
            ],
        )
        assert result.exit_code == 2

    def test_check_exact_alpha_out_of_range_exit_code(self, runner, pop_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", pop_csv,
             "--reps", "10", "--seed", "1", "--check-exact", "--alpha", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: alpha must be in (0, 1)\n"

    @pytest.mark.parametrize("check", [[], ["--check-exact"]], ids=["plain", "check-exact"])
    @pytest.mark.parametrize("alpha", ["nan", "0", "1", "2"])
    def test_alpha_outside_unit_interval_exits_2_before_any_work(self, runner, pop_csv, tmp_path, alpha, check):
        out = tmp_path / "d"
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", pop_csv, "--reps", "10", "--seed", "1",
             "--alpha", alpha, *check, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: alpha must be in (0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option",
        [("simulate", "--eps"), ("simulate", "--horizon"), ("evaluate", "--eps"), ("evaluate", "--max-steps"),
         ("evaluate", "--horizon"), ("order", "--eps"), ("order", "--horizon")],
        ids=lambda s: s.lstrip("-"),
    )
    def test_eps_is_not_an_option(self, runner, pop_csv, command, option):
        # Exact laws are built at the library's fixed truncation targets.
        argv = {
            "simulate": ["simulate", "--model", "EF", "--reps", "10", "--seed", "1"],
            "evaluate": ["evaluate", "--model", "EF"],
            "order": ["order"],
        }[command]
        result = runner.invoke(main, [*argv, "--input", pop_csv, option, "1"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_check_exact_agrees_for_every_model(self, runner, pop_csv):
        q_flags = {
            "ABCD": [], "EF": [], "GH": [],
            "IKL": ["--uniform-q"], "J": ["--optimal-q"],
            "MN": ["--optimal-q"], "OP": ["--uniform-q"],
        }
        for model, flags in q_flags.items():
            result = runner.invoke(
                main,
                ["simulate", "--model", model, "--input", pop_csv,
                 "--reps", "20000", "--seed", "29", "--check-exact", *flags],
            )
            assert result.exit_code == 0, (model, result.output)
            assert "dkw check: PASS" in result.output

    def test_ef_check_exact_builds_one_schedule(self, runner, pop_csv, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return strategies.ef_schedule(*args, **kwargs)

        for module in (cli, montecarlo, models):
            monkeypatch.setattr(module, "ef_schedule", counted)
        result = runner.invoke(
            main,
            ["simulate", "--model", "EF", "--input", pop_csv, "--reps", "1000", "--seed", "3", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        assert len(calls) == 1

    def test_check_exact_cuts_the_exact_law_at_max_steps(self, runner, tmp_path):
        # An eighth of the replications outlast the cap of 3 steps; the exact
        # law's mass beyond it counts as censored, as those replications do.
        path = tmp_path / "two.csv"
        path.write_text("id,p\na,0.5\nb,0.5\n")
        result = runner.invoke(
            main,
            ["simulate", "--model", "J", "--input", str(path), "--uniform-q", "--max-steps", "3",
             "--reps", "20000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        assert 0.11 < int(get_line(result.output, "censored:")) / 20000 < 0.14

    def test_ef_replications_past_max_steps_are_capped(self, runner, tmp_path):
        # The schedule needs hundreds of steps; a cap of 3 censors the rest of
        # the replications instead of failing the schedule's budget.
        path = tmp_path / "slow.csv"
        path.write_text("id,p,s\na,0.5,0.1\nb,0.5,0.1\n")
        result = runner.invoke(
            main,
            ["simulate", "--model", "EF", "--input", str(path), "--max-steps", "3",
             "--reps", "20000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        # Three attempts find the target with probability .05 + .05 + .045.
        assert 0.13 < int(get_line(result.output, "detected:")) / 20000 < 0.16

    def test_ef_replications_past_the_schedule_are_capped(self, runner, tmp_path):
        # The schedule stops at its budget of 10^6 steps; the replications it never reaches count as capped.
        result = runner.invoke(
            main,
            ["simulate", "--model", "EF", *stalled_ef_input(tmp_path), "--reps", "20000", "--seed", "1",
             "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        assert get_line(result.output, "detected:") == "9"
        assert get_line(result.output, "censored:") == "19991"

    def test_ef_check_exact_with_an_item_never_found(self, runner, tmp_path, monkeypatch):
        # Item a (prior 0.3) is never found: its replications are censored, and the exact law the
        # check reads holds b's 43 steps and a's prior in its atom.
        schedules = []

        def kept(pop):
            schedules.append(strategies.ef_schedule(pop))
            return schedules[-1]

        monkeypatch.setattr(cli, "ef_schedule", kept)
        args = never_found_input(tmp_path, "id,p,s\na,0.3,1e-17\nb,0.7,0.5\n")
        result = runner.invoke(main, ["simulate", "--model", "EF", *args, "--reps", "20000", "--seed", "1",
                                      "--check-exact"])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "dkw check:") == "PASS (alpha=0.001)"
        assert (get_line(result.output, "detected:"), get_line(result.output, "censored:")) == ("14063", "5937")
        (sched,) = schedules
        assert sched.steps.size == 43 and set(sched.steps.tolist()) == {1}
        assert 0.3 <= sched.residual_mass < 0.3 + 1e-13

    def test_check_exact_j_tiny_rate(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--model", "J", *tiny_rate_inputs(tmp_path),
             "--reps", "1000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output


class TestSubnormalS:
    """s = 1e-310 is valid input: every command runs it without a RuntimeWarning, which the tests make errors."""

    @pytest.mark.parametrize("model", models.LABELS)
    def test_evaluate_and_simulate(self, runner, tmp_path, model):
        args = [*never_found_input(tmp_path, TINY_S_TEXT), *(["--uniform-q"] if model in ("IKL", "OP") else [])]
        result = runner.invoke(main, ["evaluate", "--model", model, *args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["simulate", "--model", model, *args, "--reps", "2000", "--seed", "1",
                                      "--check-exact"])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "dkw check:").startswith("PASS")

    def test_mn_optimal_q_is_finite(self, runner, tmp_path):
        # q_a / q_b = sqrt(0.5 / 1e-310) / 1 = 7.07e154: a takes all the weight, and the mean overflows to inf.
        result = runner.invoke(main, ["evaluate", "--model", "MN", *never_found_input(tmp_path, TINY_S_TEXT)])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "q (optimal):") == "1.000000 0.000000"
        assert get_line(result.output, "mean:") == "inf"

    def test_order_refuses_ef_by_name(self, runner, tmp_path):
        # Half the mass is never found, so EF's law keeps it in its atom and order cannot use it.
        result = runner.invoke(main, ["order", *never_found_input(tmp_path, TINY_S_TEXT)])
        assert_refused(result, "error: EF carries truncation mass 0.5 ")


class TestOneItem:
    """A one-item population with s = 0.4 on every CLI path."""

    Q_FLAGS = {"IKL": ["--uniform-q"], "OP": ["--uniform-q"]}

    @pytest.fixture
    def one_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,p,s\na,1,0.4\n")
        return str(path)

    @pytest.mark.parametrize("model", models.LABELS)
    def test_evaluate(self, runner, one_csv, model):
        result = runner.invoke(main, ["evaluate", "--model", model, "--input", one_csv,
                                      *self.Q_FLAGS.get(model, [])])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("model", models.LABELS)
    def test_simulate_check_exact(self, runner, one_csv, model):
        result = runner.invoke(main, ["simulate", "--model", model, "--input", one_csv,
                                      *self.Q_FLAGS.get(model, []),
                                      "--reps", "5000", "--seed", "1", "--check-exact"])
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output

    def test_order(self, runner, one_csv):
        result = runner.invoke(main, ["order", "--input", one_csv])
        assert result.exit_code == 0, result.output
        assert "all expected relations hold" in result.output


class TestOrder:
    def test_all_relations_hold(self, runner, pop_csv, tmp_path):
        out = tmp_path / "rep"
        result = runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out)])
        assert result.exit_code == 0
        assert "all expected relations hold" in result.output
        payload = json.loads((out / "ordering_report.json").read_text())
        assert payload["mismatches"] == []
        assert len(payload["verdicts"]) == 21

    def test_perfect_recognition_equality_cells(self, runner, perfect_csv):
        result = runner.invoke(main, ["order", "--input", perfect_csv])
        assert result.exit_code == 0
        assert "ABCD vs EF: equal (expected equal)" in result.output
        assert "ABCD vs GH: equal (expected equal)" in result.output
        assert "J vs MN: equal (expected equal)" in result.output
        assert "IKL vs OP: equal (expected equal)" in result.output

    def test_broken_relations_exit_3_with_one_mismatch_line_each(self, runner, perfect_csv, monkeypatch):
        # GH's pmf reversed: it now walks the smallest detection masses first.
        def reversed_gh(pop):
            law = dist_gh(pop)
            return InspectionDistribution(pmf=law.pmf[::-1], atom_at_infinity=law.atom_at_infinity)

        monkeypatch.setattr(models, "dist_gh", reversed_gh)
        result = runner.invoke(main, ["order", "--input", perfect_csv])
        assert result.exit_code == 3
        assert result.stderr == (
            "mismatch: ABCD vs GH: expected equal, got smaller\n"
            "mismatch: EF vs GH: expected equal, got smaller\n"
            "mismatch: GH vs OP: expected smaller-or-equal, got larger\n"
        )
        assert "all expected relations hold" not in result.output

    def test_rerun_reproduces_report_byte_for_byte(self, runner, pop_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out2)]).exit_code == 0
        assert (out1 / "ordering_report.json").read_bytes() == (
            out2 / "ordering_report.json"
        ).read_bytes()

    def test_enumeration_limit_exit(self, runner, tmp_path):
        # 11 items: past the 10-item limit (exit 4) that the race laws had before they were an integral.
        n = 11
        path = tmp_path / "big.csv"
        rows = "\n".join(f"i{k},{1.0 / n!r},0.5" for k in range(n))
        path.write_text("id,p,s\n" + rows + "\n")
        result = runner.invoke(main, ["order", "--input", str(path)])
        assert result.exit_code == 0, result.output
        assert "all expected relations hold" in result.output

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_tolerance_outside_unit_interval_exits_2(self, runner, pop_csv, tol):
        result = runner.invoke(main, ["order", "--input", pop_csv, "--tol", tol])
        assert result.exit_code == 2
        assert result.stderr == f"error: tol must be in (0, 1), got {float(tol)!r}\n"

    @pytest.mark.parametrize("text", [POP_CSV_TEXT, "id,p\na,0.5\nb,0.5\n"], ids=["pop_csv", "two-items"])
    def test_tolerance_1e_12_is_accepted(self, runner, tmp_path, text):
        # Every law is cut below 1e-13 = tol/10, so no truncation refusal at this tolerance.
        path = tmp_path / "pop.csv"
        path.write_text(text)
        result = runner.invoke(main, ["order", "--input", str(path), "--tol", "1e-12"])
        assert result.exit_code == 0, result.output
        assert sum(" vs " in line for line in result.stdout.splitlines()) == 21
        assert "all expected relations hold" in result.stdout

    def test_truncated_law_is_refused_by_its_model_and_cut(self, runner, tmp_path, monkeypatch):
        # J's law stops at 10^6 steps with mass .5 (1 - 1e-7)^(10^6) = .452 left, which no option changes.
        # The refusal comes before either race law, the slowest to build, is built.
        def unbuilt(*args):
            raise RuntimeError("race law built")

        for name in ("dist_ikl_exact", "dist_op_exact"):
            monkeypatch.setattr(models, name, unbuilt)
        pop_path, q_path = tmp_path / "pop.csv", tmp_path / "q.csv"
        pop_path.write_text("id,p\na,0.5\nb,0.5\n")
        q_path.write_text("id,q\na,1e-7\nb,1\n")
        result = runner.invoke(main, ["order", "--input", str(pop_path), "--q-file", str(q_path)])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: J carries truncation mass 0.452 >= tol/10 = 1e-10; its law is cut at step 1000000\n"
        )

    def test_incomparable_family_reports_witnesses(self, runner, tmp_path):
        pop = equal_mass_population(5)
        pop_path = tmp_path / "fam.csv"
        save_population_csv(pop_path, pop)
        q = mn_optimal_q(pop)
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\n" + "\n".join(
            f"{pop.ids[i]},{float(q.q[i])!r}" for i in range(pop.n)
        ) + "\n")
        result = runner.invoke(
            main, ["order", "--input", str(pop_path), "--q-file", str(q_path)]
        )
        assert result.exit_code == 0
        assert "MN vs OP: incomparable (expected unconstrained) witnesses=" in result.output
        assert "EF vs OP: smaller (expected smaller)" in result.output
        assert "GH vs OP: equal (expected equal)" in result.output


class TestProfile:
    def test_bayes_uniform_likelihood_identity(self, runner, pop_csv, tmp_path):
        lik = tmp_path / "lik.csv"
        lik.write_text("id,likelihood\na,1\nb,1\nc,1\n")
        out = tmp_path / "updated"
        result = runner.invoke(
            main,
            ["profile", "bayes", "--input", pop_csv, "--likelihood", str(lik), "--out", str(out)],
        )
        assert result.exit_code == 0
        updated = load_population(out / "population_updated.csv").population
        original = load_population(pop_csv).population
        assert np.max(np.abs(updated.p - original.p)) <= 1e-12

    def test_bayes_reweights(self, runner, tmp_path):
        pop_path = tmp_path / "p.csv"
        pop_path.write_text("id,p\na,0.5\nb,0.5\n")
        lik = tmp_path / "lik.csv"
        lik.write_text("id,likelihood\na,0.2\nb,0.1\n")
        result = runner.invoke(
            main, ["profile", "bayes", "--input", str(pop_path), "--likelihood", str(lik)]
        )
        assert result.exit_code == 0
        printed = tmp_path / "printed.csv"
        printed.write_bytes(result.stdout_bytes)
        assert np.max(np.abs(load_population(printed).population.p - [2 / 3, 1 / 3])) <= 1e-12

    def test_decompose_optimal_j_with_uniform_attention(self, runner, perfect_csv):
        result = runner.invoke(
            main, ["profile", "decompose", "--input", perfect_csv, "--target", "optimal-J"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if "," in l and not l.startswith("id")]
        pi = np.array([float(l.split(",")[2]) for l in lines])
        p = np.array([0.5, 0.3, 0.2])
        expected = np.sqrt(p) / np.sqrt(p).max()
        assert np.max(np.abs(pi - expected)) <= 1e-12

    def test_decompose_impossible_scale(self, runner, perfect_csv):
        for scale in ("0", "1.5"):
            result = runner.invoke(
                main,
                ["profile", "decompose", "--input", perfect_csv, "--scale", scale],
            )
            assert_refused(result, "error: impossible decomposition: scale must be positive and at most 1")

    def test_decompose_round_trip_with_lambda_column(self, runner, tmp_path):
        pop_path = tmp_path / "withlam.csv"
        pop_path.write_text("id,p,s,lambda\na,0.5,1,0.8\nb,0.5,1,0.2\n")
        out = tmp_path / "dec"
        result = runner.invoke(
            main,
            [
                "profile", "decompose", "--input", str(pop_path),
                "--target", "uniform", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = (out / "decomposition.csv").read_text().strip().splitlines()[1:]
        lam = np.array([float(l.split(",")[1]) for l in lines])
        pi = np.array([float(l.split(",")[2]) for l in lines])
        w = lam * pi
        q = w / w.sum()
        assert np.max(np.abs(q - 0.5)) <= 1e-12


# Ids holding a comma and a quote, which the printed and written tables must quote.
ODD_IDS = ("a,b", 'c "q"', "plain")
ODD_POP_CSV = 'id,p,s\n"a,b",0.5,1\n"c ""q""",0.3,0.5\nplain,0.2,0.25\n'
ODD_LAMBDA_CSV = 'id,p,s,lambda\n"a,b",0.5,1,0.7\n"c ""q""",0.3,0.5,0.2\nplain,0.2,0.25,0.1\n'
# The same items in JSON, with spaces around the ids, which are stripped as in CSV.
ODD_POP_JSON = json.dumps({"id": [" a,b", 'c "q"\t', "plain "], "p": [0.5, 0.3, 0.2], "s": [1, 0.5, 0.25]})


def printed_and_written(runner, args, out, name):
    """The stdout and stderr of ``args`` without --out, after checking that stdout is the file --out writes."""
    printed, written = runner.invoke(main, args), runner.invoke(main, [*args, "--out", str(out)])
    assert printed.exit_code == written.exit_code == 0, printed.output + written.output
    assert printed.stdout_bytes == (out / name).read_bytes()
    (out / "printed.csv").write_bytes(printed.stdout_bytes)
    return printed


class TestPrintedTables:
    """profile bayes and profile decompose print the table that --out writes, and it loads back as input."""

    @pytest.mark.parametrize("name, pop_text", [("pop.csv", ODD_POP_CSV), ("pop.csv", ODD_LAMBDA_CSV),
                                                ("pop.json", ODD_POP_JSON)], ids=["no-lambda", "lambda", "json"])
    def test_bayes_table_loads_back_as_the_posterior(self, runner, tmp_path, name, pop_text):
        pop_path, lik_path, out = tmp_path / name, tmp_path / "lik.csv", tmp_path / "out"
        pop_path.write_text(pop_text)
        lik_path.write_text('id,likelihood\nplain,0.9\n"c ""q""",0.5\n"a,b",0.2\n')
        args = ["profile", "bayes", "--input", str(pop_path), "--likelihood", str(lik_path)]
        printed_and_written(runner, args, out, "population_updated.csv")
        loaded = load_population(pop_path)
        want = bayes_update(loaded.population, load_likelihoods(lik_path, loaded.population))
        for path in (out / "population_updated.csv", out / "printed.csv"):
            got = load_population(path)
            assert got.population.ids == want.ids == ODD_IDS
            assert np.max(np.abs(got.population.p - want.p)) <= 1e-15
            assert np.array_equal(got.population.s, want.s)
            assert (got.lam is None) == (loaded.lam is None)
            assert got.lam is None or np.array_equal(got.lam, loaded.lam)

    @pytest.mark.parametrize("pop_text", [ODD_POP_CSV, ODD_LAMBDA_CSV], ids=["no-lambda", "lambda"])
    def test_decompose_table_loads_back_as_the_target_weights(self, runner, tmp_path, pop_text):
        pop_path, q_path, out = tmp_path / "pop.csv", tmp_path / "q.csv", tmp_path / "out"
        pop_path.write_text(pop_text)
        q_path.write_text('id,q\n"c ""q""",0.25\nplain,0.15\n"a,b",0.6\n')
        args = ["profile", "decompose", "--input", str(pop_path), "--q-file", str(q_path)]
        printed = printed_and_written(runner, args, out, "decomposition.csv")
        note = "note: no lambda column in input; assuming uniform attention\n"
        assert printed.stderr == ("" if "lambda" in pop_text else note)
        pop = load_population(pop_path).population
        assert pop.ids == ODD_IDS
        for path in (out / "decomposition.csv", out / "printed.csv"):
            assert np.max(np.abs(load_weights(path, pop).q - load_weights(q_path, pop).q)) <= 1e-15

    def test_written_tables_end_lines_in_line_feeds_only(self, runner, tmp_path):
        pop_path, lik_path, out = tmp_path / "pop.csv", tmp_path / "lik.csv", tmp_path / "out"
        pop_path.write_text(ODD_LAMBDA_CSV)
        lik_path.write_text('id,likelihood\n"a,b",1\n"c ""q""",1\nplain,1\n')
        for args in (["evaluate", "--model", "J"], ["simulate", "--model", "GH", "--reps", "100", "--seed", "1"],
                     ["profile", "bayes", "--likelihood", str(lik_path)], ["profile", "decompose"]):
            result = runner.invoke(main, [*args, "--input", str(pop_path), "--out", str(out)])
            assert result.exit_code == 0, result.output
        tables = sorted(path.name for path in out.glob("*.csv"))
        assert tables == ["decomposition.csv", "dist_J.csv", "empirical.csv", "population_updated.csv"]
        for name in tables:
            assert b"\r" not in (out / name).read_bytes(), name


WEIGHTS_COMMANDS = {
    "evaluate": ["evaluate", "--model", "IKL"],
    "simulate": ["simulate", "--model", "IKL", "--reps", "100", "--seed", "1"],
    "order": ["order"],
    "decompose": ["profile", "decompose"],
}


class TestWeightsFile:
    def test_rows_are_matched_to_items_by_id(self, runner, pop_csv, tmp_path):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\nc,0.2\nb,0.3\na,0.5\n")
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 0, result.output
        assert get_line(result.output, f"q (file:{q_path}):") == "0.500000 0.300000 0.200000"

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("x,0.5\ny,0.3\nz,0.2\n", "missing weights for items ['a', 'b', 'c']"),
            ("a,0.5\nb,0.3\n", "missing weights for items ['c']"),
            ("a,0.4\nb,0.3\nc,0.2\nd,0.1\n", "unknown ids ['d']"),
            ("a,0.4\nb,0.3\nc,0.2\na,0.1\n", "duplicate ids ['a']"),
        ],
        ids=["foreign", "missing", "unknown", "duplicate"],
    )
    def test_unmatched_ids_exit_code(self, runner, pop_csv, tmp_path, command, rows, message):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\n" + rows)
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert f"error: {q_path}: {message}" in result.stderr

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    def test_non_positive_weight_names_the_file_and_item(self, runner, pop_csv, tmp_path, command):
        # Row order differs from item order: c is the second row but the third item.
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,0.5\nc,0\nb,0.5\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {q_path}: q for item c is 0.0, not strictly positive\n"

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    def test_sub_normal_weight_exits_2(self, runner, pop_csv, tmp_path, command):
        # Keys E / 1e-320 overflow to inf and tie, which would skew the race (exact OP mean 2.1667).
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,1\nb,1e-320\nc,2e-320\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith(
            f"error: {q_path}: q for item b is 1e-320, below 2**-1000 (about 9.3e-302) once normalized\n"
        )

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    @pytest.mark.parametrize("flag", ["--optimal-q", "--uniform-q"])
    def test_weights_file_with_a_weight_flag_exits_2(self, runner, pop_csv, tmp_path, command, flag):
        # decompose names its weights with --target: optimal-J by default, uniform on request.
        if command == "decompose":
            args, named = ["--target", "optimal-J" if flag == "--optimal-q" else "uniform"], "--target"
        else:
            args, named = [flag], "--optimal-q or --uniform-q"
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,0.5\nb,0.3\nc,0.2\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path), *args]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: --q-file cannot be combined with {named}\n"
        assert result.stdout == ""

    def test_decompose_weights_file_without_target_keeps_the_default_manifest(self, runner, pop_csv, tmp_path):
        q_path, out = tmp_path / "q.csv", tmp_path / "dec"
        q_path.write_text("id,q\na,0.5\nb,0.3\nc,0.2\n")
        result = runner.invoke(
            main, ["profile", "decompose", "--input", pop_csv, "--q-file", str(q_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"] == {"target": f"file:{q_path}", "scale": 1.0}
        q = [float(row.split(",")[3]) for row in (out / "decomposition.csv").read_text().splitlines()[1:]]
        assert q == pytest.approx([0.5, 0.3, 0.2], rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_at_the_floor_keep_the_race_exact(self, runner, tmp_path):
        pop_path, q_path = tmp_path / "pop.csv", tmp_path / "q.csv"
        pop_path.write_text("id,p\na,0.2\nb,0.3\nc,0.5\n")
        q_path.write_text(f"id,q\na,1\nb,{2.0**-1000!r}\nc,{2.0**-999!r}\n")
        files = ["--input", str(pop_path), "--q-file", str(q_path)]
        q = InspectionWeights(q=np.array([1.0, 2.0**-1000, 2.0**-999]))
        mean = ikl_mean_pairwise(load_population(str(pop_path)).population, q)
        result = runner.invoke(main, ["evaluate", "--model", "IKL", *files])
        assert result.exit_code == 0, result.output
        assert float(get_line(result.output, "mean:")) == pytest.approx(mean, rel=1e-12)
        for model in ("IKL", "OP"):
            result = runner.invoke(
                main, ["simulate", "--model", model, *files, "--reps", "20000", "--seed", "1", "--check-exact"]
            )
            assert result.exit_code == 0, result.output
            assert get_line(result.output, "dkw check:") == "PASS (alpha=0.001)"


class TestInputFiles:
    @pytest.mark.parametrize(
        "files, args, message",
        [
            ({"pop.csv": "id,p,s,p\na,1.5,1,0.5\nb,-0.5,1,0.5\n"}, ["--model", "ABCD", "--input", "pop.csv"],
             "pop.csv: column `p` is named twice"),
            ({"pop.json": '{"p": [0.5, 0.5], "p": [0.2, 0.8]}'}, ["--model", "ABCD", "--input", "pop.json"],
             "pop.json: column `p` is named twice"),
            ({"pop.csv": "id,p\na,0.5\nb,0.5\n", "q.csv": "id,q,q\na,0.5,0.2\nb,0.5,0.8\n"},
             ["--model", "IKL", "--input", "pop.csv", "--q-file", "q.csv"], "q.csv: column `q` is named twice"),
            ({"pop.csv": "id,p,s\n1,0.5,1\n2,0.5,1,7\n"}, ["--model", "ABCD", "--input", "pop.csv"],
             "pop.csv: row 2 has 4 fields but the header has 3"),
        ],
        ids=["population-csv-p-twice", "population-json-p-twice", "weights-q-twice", "row-with-extra-field"],
    )
    def test_misread_file_exits_2(self, runner, tmp_path, monkeypatch, files, args, message):
        # Each of these files used to load: the last column of a name won, and an extra field was dropped.
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        result = runner.invoke(main, ["evaluate", *args])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, path",
        [
            (["evaluate", "--model", "ABCD", "--input", "missing.csv"], "missing.csv"),
            (["order", "--input", "pop.csv", "--q-file", "missing.csv"], "missing.csv"),
            (["profile", "bayes", "--input", "pop.csv", "--likelihood", "missing.csv"], "missing.csv"),
            (["evaluate", "--model", "ABCD", "--input", "folder"], "folder"),
        ],
        ids=["missing-input", "missing-q-file", "missing-likelihood", "directory-input"],
    )
    def test_unusable_file_exits_2_with_an_error_line(self, runner, tmp_path, monkeypatch, args, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pop.csv").write_text("id,p\na,0.5\nb,0.5\n")
        (tmp_path / "folder").mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert path in result.stderr
        assert result.stdout == ""


class TestRefusals:
    """Every refusal is one `error:` line and exit 2, with an empty stdout; a bad file names itself."""

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("pop.csv", "id,p,s\na,0.5,1.5\nb,0.5,1\n", "s for item a is 1.5, outside (0, 1], where every s_i must lie"),
            ("pop.json", '{"p": [0.5, 0.5], "s": [1]}', "s has length 1, expected 2"),
            ("pop.csv", "id,p\na,0.5\nb,0.4\n", "p sums to 0.9, deviating from 1 by more than 1e-06"),
            ("pop.csv", "id,p\na,0.5\na,0.5\n", "item ids must be unique; repeated: ['a']"),
            ("pop.csv", "id,p\na,nan\nb,1\n", "p for item a is nan, not finite"),
            ("pop.json", '{"p": [0.5, 0.5], "lambda": [1]}', "lambda has length 1, expected 2"),
            # csv.writer would print these ids unquoted, and the table would not read back.
            ("pop.json", '{"id": ["x\\ry", "b"], "p": [0.5, 0.5]}',
             "item ids must not hold a line break; found: ['x\\ry']"),
            ("pop.csv", 'id,p\n"x\ny",0.5\nb,0.5\n', "item ids must not hold a line break; found: ['x\\ny']"),
        ],
        ids=["s-above-1", "json-s-short", "p-sums-to-0.9", "repeated-id", "nan-prior", "json-lambda-short",
             "json-carriage-return-id", "line-feed-id"],
    )
    def test_bad_population_file_names_itself(self, runner, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert_refused(result, f"error: {path}: ")
        assert result.stderr == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    def test_weights_file_summing_to_0_9_names_itself(self, runner, pop_csv, tmp_path, command):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,0.4\nb,0.3\nc,0.2\n")
        result = runner.invoke(main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)])
        assert_refused(result, f"error: {q_path}: q sums to 0.9")

    def test_truncated_ef_law_refused_mid_command_prints_nothing_on_stdout(self, runner, tmp_path):
        # order builds EF's law before it can refuse it; the refusal still leaves stdout empty.
        result = runner.invoke(main, ["order", *stalled_ef_input(tmp_path)])
        assert_refused(result, "error: EF carries truncation mass ")
        assert result.stderr == (
            "error: EF carries truncation mass 1 >= tol/10 = 1e-10; its law is cut at step 1000000\n"
        )

    @pytest.mark.parametrize("text, item, value, problem", [
        ("a,nan\nb,1\nc,1\n", "a", "nan", "not a finite nonnegative number"),
        ("a,1\nb,1\nc,-1\n", "c", "-1.0", "not a finite nonnegative number"),
        ("a,0\nb,1\nc,1\n", "a", "0.0", "which would leave the item a posterior prior of exactly 0"),
    ], ids=["nan", "negative", "zero"])
    def test_bad_likelihood_names_its_file_and_item(self, runner, pop_csv, tmp_path, text, item, value, problem):
        lik = tmp_path / "lik.csv"
        lik.write_text("id,likelihood\n" + text)
        result = runner.invoke(main, ["profile", "bayes", "--input", pop_csv, "--likelihood", str(lik)])
        assert_refused(result, f"error: {lik}: likelihood for item {item} is {value}, {problem}\n")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", [*WEIGHTS_COMMANDS, "bayes"])
    def test_out_that_is_or_lies_under_a_file(self, runner, pop_csv, tmp_path, command, under):
        afile, lik = tmp_path / "afile", tmp_path / "lik.csv"
        afile.write_text("keep\n")
        lik.write_text("id,likelihood\na,1\nb,1\nc,1\n")
        args = ["profile", "bayes", "--likelihood", str(lik)] if command == "bayes" else WEIGHTS_COMMANDS[command]
        if command in ("evaluate", "simulate"):
            args = [*args, "--uniform-q"]
        out = afile / "sub" if under else afile
        result = runner.invoke(main, [*args, "--input", pop_csv, "--out", str(out)])
        assert_refused(result, "error: ")
        assert afile.read_text() == "keep\n"
