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
from .distributions import InspectionDistribution, write_distribution_csv
from .models import LABELS, MODELS, Model
from .montecarlo import SimConfig, dkw_check, simulate, write_empirical_csv
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
    DEFAULT_EF_EPS,
    DEFAULT_EF_MAX_STEPS,
    EnumerationLimitError,
    ScheduleTruncationError,
    descending_prior_order,
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
    model: Model,
    pop: Population,
    q_source: str | None,
    q_file: str | None,
) -> tuple[InspectionWeights | None, str]:
    """Pick inspection weights for the model, honoring the q flags."""
    if not model.takes_q:
        if q_source or q_file:
            _fail(EXIT_VALIDATION, f"model {model.label} does not take inspection weights")
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
    if model.optimal_q is not None:
        # Mean-optimal weights exist in closed form; they are the default.
        return model.optimal_q(pop), "optimal"
    if q_source == "optimal":
        _fail(
            EXIT_VALIDATION,
            f"model {model.label} has no closed-form optimal weights; use --uniform-q or --q-file",
        )
    _fail(EXIT_VALIDATION, f"model {model.label} requires --uniform-q or --q-file")


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


def _summary_lines(
    model: Model, pop: Population, q: InspectionWeights | None, law: InspectionDistribution
) -> list[str]:
    """What evaluate prints about the model's inspection count, after the q line."""
    if model.thins is not None:
        detect = min(pop.detect_prob, 1.0)
        cond = law.conditional_on_detection().mean_finite()
        if detect < 1.0 - 1e-12:
            head = f"mean: ∞ (detect_prob={detect:.3f}, conditional mean={cond:.3f})"
        else:
            head = f"mean: {cond!r}"
        return [head, f"detect_prob: {detect!r}", f"conditional_mean: {cond!r}"]
    if model.walk == "schedule":
        return [
            f"schedule steps: {law.horizon}",
            f"partial mean: {law.mean_finite()!r}",
            f"residual mass: {law.atom_at_infinity!r}",
        ]
    mean = law.mean_finite() if model.closed_mean is None else model.closed_mean(pop, q)
    lines = [f"mean: {mean!r}"]
    if model.walk == "order":
        lines.insert(0, "order: " + " ".join(pop.ids[i - 1] for i in descending_prior_order(pop)))
    return lines


@click.group()
@click.version_option(version=__version__)
def main():
    """Optimal search strategies for one target item in a finite population."""


@main.command()
@click.option("--model", type=click.Choice(LABELS), required=True)
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
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
    click.echo(f"model: {model}")
    click.echo(f"items: {pop.n}")
    try:
        dist = m.law(pop, q, eps=eps, max_steps=max_steps, horizon=horizon)
    except EnumerationLimitError as exc:
        _fail(EXIT_ENUMERATION, f"{exc}; use `priorsearch simulate` for this population")
    except (ScheduleTruncationError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if q is not None:
        click.echo(f"q ({q_desc}): {_format_q(q)}")
    for line in _summary_lines(m, pop, q, dist):
        click.echo(line)
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
@click.option("--model", type=click.Choice(LABELS), required=True)
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--reps", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="Replication streams derive from this seed; no entropy defaults.")
@click.option("--max-steps", type=int, default=10**7, show_default=True)
@click.option("--horizon", type=int, default=None, help="Horizon for the exact J/MN law in --check-exact.")
@click.option("--alpha", type=float, default=0.001, show_default=True,
              help="DKW band level for --check-exact.")
@_q_flags
@click.option("--out", type=click.Path(file_okay=False), help="Directory for empirical CSV and manifest.")
@click.option("--check-exact", is_flag=True,
              help="Compare the empirical law against the exact one (exit 3 on mismatch).")
def simulate_cmd(model, input_path, reps, seed, max_steps, horizon, alpha, q_source, q_file, out, check_exact):
    """Seeded Monte Carlo simulation of a model's inspection process."""
    pop = _load_pop(input_path).population
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
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
            # The law of the schedule the simulation walks (see montecarlo.simulate).
            exact = m.law(
                pop, q, eps=DEFAULT_EF_EPS, max_steps=min(max_steps, DEFAULT_EF_MAX_STEPS), horizon=horizon
            )
        except EnumerationLimitError as exc:
            _fail(EXIT_ENUMERATION, f"{exc}; no exact law available to check against")
        except (ScheduleTruncationError, ValueError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        ok = dkw_check(emp, exact, alpha)
        click.echo(f"dkw check: {'PASS' if ok else 'FAIL'} (alpha={alpha})")
        if not ok:
            sys.exit(EXIT_MISMATCH)


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
    # One q for all four democratic models: uniform unless asked for MN's optimum.
    q, q_desc = _resolve_q(MODELS["MN"], pop, q_source or "uniform", q_file)
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
@click.option("--target", type=click.Choice([f"optimal-{m.label}" for m in MODELS.values() if m.optimal_q]
                                           + ["uniform"]),
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
        elif target == "uniform":
            target_q = uniform_weights(pop.n)
        else:
            target_q = MODELS[target.removeprefix("optimal-")].optimal_q(pop)
        target_desc = f"file:{q_file}" if q_file else target
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
