"""Command-line frontend.

Subcommands:

    evaluate   optimal policy/weights and exact mean (distribution CSV on request)
    simulate   seeded Monte Carlo runs, optionally validated against exact laws
    order      pairwise stochastic-dominance report across all seven models
    profile    prior updating (bayes) and attention/inspection decomposition

Exit codes: 0 success, 2 validation error, 3 check or ordering mismatch,
4 exact enumeration limit exceeded. All randomness flows from an explicit
--seed; reruns with the same manifest reproduce outputs byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .distributions import (
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    write_distribution_csv,
)
from .montecarlo import MODELS, Q_MODELS, SimConfig, dkw_check, simulate, write_empirical_csv
from .ordering import ComparisonTruncationError, dominance_report
from .population import (
    DecompositionError,
    InspectionWeights,
    Population,
    PopulationError,
    load_likelihoods_csv,
    load_population,
    load_weights_csv,
    save_population_csv,
    solve_conditional_inspection,
    uniform_weights,
)
from .strategies import (
    EnumerationLimitError,
    ScheduleTruncationError,
    abcd_policy,
    ef_mean,
    ef_schedule,
    gh_summary,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
    op_summary,
)

EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_ENUMERATION = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@dataclass
class RunManifest:
    """Reproducibility record accompanying every output directory."""

    command: str
    input_path: str
    parameters: dict
    outputs: list[str] = field(default_factory=list)
    tool_version: str = __version__

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "input": self.input_path,
            "parameters": self.parameters,
            "outputs": self.outputs,
            "tool_version": self.tool_version,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    (out_dir / "manifest.json").write_text(manifest.to_json() + "\n")


def _load_pop(input_path: str):
    try:
        return load_population(input_path)
    except (PopulationError, OSError) as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _resolve_q(
    model: str,
    pop: Population,
    q_source: str | None,
    q_file: str | None,
) -> tuple[InspectionWeights | None, str]:
    """Pick inspection weights for the model, honoring the q flags."""
    takes_q = model in Q_MODELS
    if not takes_q:
        if q_source or q_file:
            _fail(EXIT_VALIDATION, f"model {model} does not take inspection weights")
        return None, "none"
    if q_file:
        try:
            q = load_weights_csv(q_file)
        except (PopulationError, OSError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        if q.n != pop.n:
            _fail(EXIT_VALIDATION, f"q file has {q.n} weights for {pop.n} items")
        return q, f"file:{q_file}"
    if q_source == "uniform":
        return uniform_weights(pop.n), "uniform"
    if model in ("J", "MN"):
        # Mean-optimal weights exist in closed form; they are the default.
        if q_source in (None, "optimal"):
            q = j_optimal_q(pop) if model == "J" else mn_optimal_q(pop)
            return q, "optimal"
    if q_source == "optimal":
        _fail(
            EXIT_VALIDATION,
            f"model {model} has no closed-form optimal weights; use --uniform-q or --q-file",
        )
    _fail(EXIT_VALIDATION, f"model {model} requires --uniform-q or --q-file")


def _q_flags(fn):
    fn = click.option("--optimal-q", "q_source", flag_value="optimal", default=None,
                      help="Use the model's closed-form optimal weights (J, MN).")(fn)
    fn = click.option("--uniform-q", "q_source", flag_value="uniform",
                      help="Use uniform inspection weights.")(fn)
    fn = click.option("--q-file", type=click.Path(exists=True, dir_okay=False),
                      help="CSV with header id,q supplying inspection weights.")(fn)
    return fn


def _format_q(q: InspectionWeights) -> str:
    return " ".join(f"{v:.6f}" for v in q.q)


def _defective_line(summary) -> str:
    if summary.mean_is_infinite:
        return (
            f"mean: ∞ (detect_prob={summary.detect_prob:.3f}, "
            f"conditional mean={summary.conditional_mean:.3f})"
        )
    return f"mean: {summary.conditional_mean!r}"


@click.group()
@click.version_option(version=__version__)
def main():
    """Optimal search strategies for one target item in a finite population."""


@main.command()
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=float, default=1e-12, show_default=True,
              help="EF schedule truncation target.")
@click.option("--max-steps", type=int, default=10**6, show_default=True)
@click.option("--horizon", type=int, default=None, help="Horizon for the J/MN distribution CSV.")
@_q_flags
@click.option("--out", type=click.Path(file_okay=False), help="Directory for distribution CSV and manifest.")
def evaluate(model, input_path, eps, max_steps, horizon, q_source, q_file, out):
    """Optimal policy, exact mean, and optionally the exact distribution."""
    pop = _load_pop(input_path).population
    q, q_desc = _resolve_q(model, pop, q_source, q_file)
    click.echo(f"model: {model}")
    click.echo(f"items: {pop.n}")
    dist = None
    try:
        if model == "ABCD":
            policy, mean = abcd_policy(pop)
            click.echo("order: " + " ".join(pop.ids[i - 1] for i in policy.order))
            click.echo(f"mean: {mean!r}")
            dist = dist_abcd(pop)
        elif model == "EF":
            sched = ef_schedule(pop, eps=eps, max_steps=max_steps)
            partial, residual = ef_mean(sched)
            click.echo(f"schedule steps: {len(sched.steps)}")
            click.echo(f"partial mean: {partial!r}")
            click.echo(f"residual mass: {residual!r}")
            dist = dist_ef(sched)
        elif model == "GH":
            summary = gh_summary(pop)
            click.echo(_defective_line(summary))
            click.echo(f"detect_prob: {summary.detect_prob!r}")
            click.echo(f"conditional_mean: {summary.conditional_mean!r}")
            dist = dist_gh(pop)
        elif model == "IKL":
            # One subset DP serves both: the law's finite mean is ikl_mean_exact.
            dist = dist_ikl_exact(pop, q)
            click.echo(f"q ({q_desc}): {_format_q(q)}")
            click.echo(f"mean: {dist.mean_finite()!r}")
        elif model == "J":
            mean = j_mean(pop, q)
            click.echo(f"q ({q_desc}): {_format_q(q)}")
            click.echo(f"mean: {mean!r}")
            dist = dist_j(pop, q, horizon)
        elif model == "MN":
            mean = mn_mean(pop, q)
            click.echo(f"q ({q_desc}): {_format_q(q)}")
            click.echo(f"mean: {mean!r}")
            dist = dist_mn(pop, q, horizon)
        elif model == "OP":
            summary = op_summary(pop, q)
            click.echo(f"q ({q_desc}): {_format_q(q)}")
            click.echo(_defective_line(summary))
            click.echo(f"detect_prob: {summary.detect_prob!r}")
            click.echo(f"conditional_mean: {summary.conditional_mean!r}")
            dist = dist_op_exact(pop, q)
    except EnumerationLimitError as exc:
        _fail(EXIT_ENUMERATION, f"{exc}; use `priorsearch simulate` for this population")
    except (ScheduleTruncationError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dist_name = f"dist_{model}.csv"
        write_distribution_csv(out_dir / dist_name, dist)
        manifest = RunManifest(
            command="evaluate",
            input_path=input_path,
            parameters={
                "model": model,
                "eps": eps,
                "max_steps": max_steps,
                "horizon": horizon,
                "q_source": q_desc,
            },
            outputs=[dist_name],
        )
        _write_manifest(out_dir, manifest)
        click.echo(f"wrote {out_dir / dist_name}")


@main.command(name="simulate")
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reps", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="Replication streams derive from this seed; no entropy defaults.")
@click.option("--max-steps", type=int, default=10**7, show_default=True)
@click.option("--eps", type=float, default=1e-12, show_default=True,
              help="EF schedule truncation target (simulation and exact check).")
@click.option("--horizon", type=int, default=None, help="Horizon for the exact J/MN law in --check-exact.")
@click.option("--alpha", type=float, default=0.001, show_default=True,
              help="DKW band level for --check-exact.")
@_q_flags
@click.option("--out", type=click.Path(file_okay=False), help="Directory for empirical CSV and manifest.")
@click.option("--check-exact", is_flag=True,
              help="Compare the empirical law against the exact one (exit 3 on mismatch).")
def simulate_cmd(model, input_path, reps, seed, max_steps, eps, horizon, alpha, q_source, q_file, out, check_exact):
    """Seeded Monte Carlo simulation of a model's inspection process."""
    pop = _load_pop(input_path).population
    q, q_desc = _resolve_q(model, pop, q_source, q_file)
    try:
        cfg = SimConfig(model=model, reps=reps, seed=seed, max_steps=max_steps, q=q)
        emp = simulate(pop, cfg)
    except (ValueError, ScheduleTruncationError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    click.echo(f"model: {model}")
    click.echo(f"reps: {emp.reps}")
    click.echo(f"detected: {emp.detected}")
    click.echo(f"censored: {emp.censored}")
    click.echo(f"mean_detected: {emp.mean_detected!r}")
    click.echo(f"stderr: {emp.stderr!r}")
    parameters = {
        "model": model,
        "reps": reps,
        "seed": seed,
        "max_steps": max_steps,
        "eps": eps,
        "horizon": horizon,
        "alpha": alpha,
        "q_source": q_desc,
    }
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emp_name = "empirical.csv"
        write_empirical_csv(out_dir / emp_name, emp, config_echo=parameters)
        manifest = RunManifest(
            command="simulate", input_path=input_path, parameters=parameters, outputs=[emp_name]
        )
        _write_manifest(out_dir, manifest)
        click.echo(f"wrote {out_dir / emp_name}")
    if check_exact:
        try:
            exact = _exact_law(model, pop, q, eps, max_steps, horizon)
        except EnumerationLimitError as exc:
            _fail(EXIT_ENUMERATION, f"{exc}; no exact law available to check against")
        except (ScheduleTruncationError, ValueError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        ok = dkw_check(emp, exact, alpha)
        click.echo(f"dkw check: {'PASS' if ok else 'FAIL'} (alpha={alpha})")
        if not ok:
            sys.exit(EXIT_MISMATCH)


def _exact_law(model, pop, q, eps, max_steps, horizon):
    if model == "ABCD":
        return dist_abcd(pop)
    if model == "EF":
        return dist_ef(ef_schedule(pop, eps=eps, max_steps=min(max_steps, 10**6)))
    if model == "GH":
        return dist_gh(pop)
    if model == "IKL":
        return dist_ikl_exact(pop, q)
    if model == "J":
        return dist_j(pop, q, horizon)
    if model == "MN":
        return dist_mn(pop, q, horizon)
    if model == "OP":
        return dist_op_exact(pop, q)
    raise AssertionError(model)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--eps", type=float, default=1e-13, show_default=True,
              help="EF schedule truncation target; must stay below tol/10.")
@click.option("--horizon", type=int, default=None)
@click.option("--optimal-q", "q_source", flag_value="optimal", default=None,
              help="Weights sqrt(p_i/s_i), mean-optimal for replacement sampling.")
@click.option("--uniform-q", "q_source", flag_value="uniform")
@click.option("--q-file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), help="Directory for the report JSON and manifest.")
def order(input_path, tol, eps, horizon, q_source, q_file, out):
    """Pairwise dominance report; exit 3 if any expected relation fails."""
    pop = _load_pop(input_path).population
    if q_file:
        try:
            q = load_weights_csv(q_file)
        except (PopulationError, OSError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        q_desc = f"file:{q_file}"
    elif q_source == "optimal":
        q = mn_optimal_q(pop)
        q_desc = "optimal"
    else:
        q = uniform_weights(pop.n)
        q_desc = "uniform"
    try:
        report = dominance_report(pop, q=q, tol=tol, ef_eps=eps, horizon=horizon)
    except EnumerationLimitError as exc:
        _fail(EXIT_ENUMERATION, str(exc))
    except (ComparisonTruncationError, ScheduleTruncationError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    for (a, b), verdict in report.verdicts.items():
        exp = report.expected[(a, b)]
        extra = f" witnesses={verdict.witnesses}" if verdict.witnesses else ""
        click.echo(f"{a} vs {b}: {verdict.relation} (expected {exp}){extra}")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_name = "ordering_report.json"
        (out_dir / report_name).write_text(report.to_json() + "\n")
        manifest = RunManifest(
            command="order",
            input_path=input_path,
            parameters={"tol": tol, "eps": eps, "horizon": horizon, "q_source": q_desc},
            outputs=[report_name],
        )
        _write_manifest(out_dir, manifest)
        click.echo(f"wrote {out_dir / report_name}")
    if report.mismatches:
        for line in report.mismatches:
            click.echo(f"mismatch: {line}", err=True)
        sys.exit(EXIT_MISMATCH)
    click.echo("all expected relations hold")


@main.group()
def profile():
    """Prior updating and attention/inspection decomposition."""


@profile.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--likelihood", "likelihood_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV with header id,likelihood.")
@click.option("--out", type=click.Path(file_okay=False), help="Directory for the updated population file.")
def bayes(input_path, likelihood_path, out):
    """Apply a likelihood column to the priors and write the updated population."""
    from .population import bayes_update

    loaded = _load_pop(input_path)
    pop = loaded.population
    try:
        lik = load_likelihoods_csv(likelihood_path, pop)
        updated = bayes_update(pop, lik)
    except PopulationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        pop_name = "population_updated.csv"
        save_population_csv(out_dir / pop_name, updated, loaded.lam)
        manifest = RunManifest(
            command="profile bayes",
            input_path=input_path,
            parameters={"likelihood": likelihood_path},
            outputs=[pop_name],
        )
        _write_manifest(out_dir, manifest)
        click.echo(f"wrote {out_dir / pop_name}")
    else:
        for i in range(updated.n):
            click.echo(f"{updated.ids[i]},{float(updated.p[i])!r},{float(updated.s[i])!r}")


@profile.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--target", type=click.Choice(["optimal-J", "optimal-MN", "uniform"]),
              default="optimal-J", show_default=True,
              help="Which inspection weights the decomposition should induce.")
@click.option("--q-file", type=click.Path(exists=True, dir_okay=False),
              help="Explicit target weights (overrides --target).")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Overall inspection intensity: max_i pi_i.")
@click.option("--out", type=click.Path(file_okay=False))
def decompose(input_path, target, q_file, scale, out):
    """Solve conditional inspection probabilities for a target weight vector."""
    loaded = _load_pop(input_path)
    pop = loaded.population
    lam = loaded.lam if loaded.lam is not None else np.full(pop.n, 1.0 / pop.n)
    if loaded.lam is None:
        click.echo("note: no lambda column in input; assuming uniform attention")
    try:
        if q_file:
            target_q = load_weights_csv(q_file)
            target_desc = f"file:{q_file}"
        elif target == "optimal-J":
            target_q = j_optimal_q(pop)
            target_desc = target
        elif target == "optimal-MN":
            target_q = mn_optimal_q(pop)
            target_desc = target
        else:
            target_q = uniform_weights(pop.n)
            target_desc = target
        decomp = solve_conditional_inspection(lam, target_q, scale=scale)
    except DecompositionError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except PopulationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    lines = ["id,lambda,pi,q"]
    for i in range(pop.n):
        lines.append(
            f"{pop.ids[i]},{float(decomp.lam[i])!r},{float(decomp.pi[i])!r},{float(target_q.q[i])!r}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dec_name = "decomposition.csv"
        (out_dir / dec_name).write_text(text)
        manifest = RunManifest(
            command="profile decompose",
            input_path=input_path,
            parameters={"target": target_desc, "scale": scale},
            outputs=[dec_name],
        )
        _write_manifest(out_dir, manifest)
        click.echo(f"wrote {out_dir / dec_name}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
