"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_a_pure_function_of_the_seed(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ops_a = workloads.build(name, 7, a)
    ops_b = workloads.build(name, 7, b)
    workloads.build(name, 8, c)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert [(op.kind, op.argv, op.out, op.reps) for op in ops_a] == \
        [(op.kind, op.argv, op.out, op.reps) for op in ops_b]


def test_self_time_subtracts_the_time_children_cover():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")       # 0 .. 10
    child = tracer.open("child")     # 1 .. 5
    tracer.close(tracer.open("grand"))  # 2 .. 4
    tracer.close(child)
    tracer.close(tracer.open("child"))  # 7 .. 9
    tracer.close(root)
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 10), (1, 5), (2, 4), (7, 9)]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [10 - 4 - 2, 4 - 2, 2, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("root", 0.0, 10.0), tracing.Span("a", 1.0, 6.0, parent=0),
             tracing.Span("b", 4.0, 8.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile([float(i) for i in range(1, 201)], 95) == 190.0
    with pytest.raises(ValueError):
        harness.percentile([float(i) for i in range(1, 200)], 95)
    assert harness.percentile([float(i) for i in range(1, 12)], 0) == 1.0


def test_wrong_reference_makes_fail_ratio_positive(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.build("exact-sweep", 3, Path("."))[:8]
    assert harness.run_batch(ops).failures == {}
    real = workloads.pl_mean
    monkeypatch.setattr(workloads, "pl_mean", lambda p, q: real(p, q) * (1 + 1e-9))
    ops = workloads.build("exact-sweep", 3, Path("."))[:8]
    failures = harness.run_batch(ops).failures
    assert len(failures) / len(ops) > 0
    assert all(msg.startswith("mean: got") for msgs in failures.values() for msg in msgs)


def test_outputs_an_op_does_not_rewrite_fail_its_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.build("exact-sweep", 3, Path("."))[1:2]  # evaluate IKL --out
    assert harness.run_batch(ops).failures == {}
    stale = [dataclasses.replace(op, argv=op.argv[:-2]) for op in ops]  # same op without --out
    assert harness.run_batch(stale).failures


def test_install_patches_every_binding_and_restores_them(tmp_path, monkeypatch):
    import priorsearch
    from priorsearch import cli, distributions, montecarlo, ordering, strategies

    original, ef = distributions.dist_j, strategies.ef_schedule
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        for mod in (priorsearch, cli, distributions, ordering):
            assert mod.dist_j is not original
        assert montecarlo.ef_schedule is not ef
        monkeypatch.chdir(tmp_path)
        ops = workloads.build("exact-sweep", 3, Path("."))[:1]
        harness.run_batch(ops, tracer)
    for mod in (priorsearch, cli, distributions, ordering):
        assert mod.dist_j is original
    layers = tracing.layer_metrics(tracer.spans)
    n = int(workloads.csv_rows(Path("inputs/pop_000.csv").read_bytes())[-1][0])
    assert layers["ordering.compare_calls"] == 21
    assert layers["strategies.position_probabilities_calls"] == 1
    assert layers["strategies.subset_states"] == 2 ** n
    assert layers["cli.self_s"] > 0.0


def test_last_line_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    every_layer = dict(tracing.LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
    listed = run.listed_layers({name: (0.0, unit) for name, unit in every_layer.items()})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (_, u) in listed.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
