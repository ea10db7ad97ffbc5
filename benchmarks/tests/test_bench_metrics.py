"""Metric names, units and the per-layer partition on tiny workload passes."""

import json
import re
from pathlib import Path

import pytest

from echolab import cli
from layers import HOOKS, layer_unit, per_layer_metrics, per_layer_names
from run import END_TO_END_UNITS, Runner
from tracer import TRACED_MODULES, Tracer
from workloads import WORKLOADS, artifact_digest, forecast_valid_steps

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_pass(workload, workdir):
    runner = Runner(cli, workload, 3, workdir, tiny=True)
    untraced = runner.one_pass()
    tracer = Tracer(hooks=HOOKS)
    with tracer:
        traced = runner.one_pass(tracer)
    return runner, tracer, traced, untraced


class TestNames:
    def test_every_name_is_valid_and_unique(self, spec):
        groups = ("workloads", "end_to_end", "per_layer")
        names = [m["name"] for g in groups for m in spec[g]]
        assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
        assert len(names) == len(set(names))
        units = [m["unit"] for g in ("end_to_end", "per_layer") for m in spec[g]]
        assert all(UNIT.fullmatch(u) for u in units)

    def test_spec_matches_what_the_benchmark_reports(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
        assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
        assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])
        assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_is_clean_and_partitioned(workload, tmp_path):
    runner, tracer, traced, untraced = _traced_pass(workload, tmp_path)
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.steps)

    spans = sum(s.busy_s for n, s in tracer.stats.items() if n.startswith("cli.experiment."))
    assert sum(s.self_s for s in tracer.stats.values()) == pytest.approx(spans, rel=1e-9)
    assert spans <= traced

    metrics = per_layer_metrics(tracer, 1, traced, untraced, runner.artifact_bytes)
    assert list(metrics) == per_layer_names()
    layers = sum(metrics[f"{layer}.self_s"] for layer in TRACED_MODULES)
    assert layers + metrics["cli.runner.self_s"] == pytest.approx(spans, rel=1e-9)
    assert 0.9 < metrics["trace.accounted_ratio"] <= 1.0
    assert metrics["cli.artifact_bytes"] > 0


def test_layer_counters(tmp_path):
    _, tracer, _, _ = _traced_pass("lyapunov", tmp_path / "lyap")
    steps = tracer.get("dynsys.lorenz_step").calls
    assert tracer.get("diagnostics.lyapunov_qr").counters["iterations"] == 300
    # settle run (1000 steps) plus one step per QR iteration
    assert steps == 1000 + 300
    assert tracer.get("dynsys.lorenz_rhs").calls == 4 * steps + 3 * 300

    _, tracer, _, _ = _traced_pass("esn_pipeline", tmp_path / "esn")
    solve = tracer.get("training.solve_offline")
    assert solve.calls == 3 and solve.counters["cols"] == 3 * 20
    assert tracer.get("reservoir.drive").counters["steps"] > 0


def test_digest_ignores_wall_time_and_output_dir(tmp_path):
    for name, wall in (("a", 1.0), ("b", 2.0)):
        d = tmp_path / name
        d.mkdir()
        doc = {"status": "complete", "wall_time_s": wall, "output_dir": str(d)}
        (d / "manifest.json").write_text(json.dumps(doc))
        (d / "x.csv").write_text("1,2\n")
    assert artifact_digest(tmp_path / "a") == artifact_digest(tmp_path / "b")
    (tmp_path / "b" / "x.csv").write_text("1,3\n")
    assert artifact_digest(tmp_path / "a")[0] != artifact_digest(tmp_path / "b")[0]


def test_forecast_valid_steps(tmp_path):
    rows = ["t,true_xi,forecast_xi", "1,0,1", "2,0,-4.9", "3,0,5.1", "4,0,0"]
    (tmp_path / "forecast.csv").write_text("\n".join(rows) + "\n")
    assert forecast_valid_steps(tmp_path) == 2


def test_digest_record_mismatch_is_a_failed_operation(tmp_path):
    record = tmp_path / "digests" / "lyapunov.json"
    first = Runner(cli, "lyapunov", 3, tmp_path / "a", tiny=True)
    first.one_pass()
    first.compare_record(record)  # writes the record
    assert first.failed == 0 and record.exists()

    record.write_text(json.dumps(["0" * 64]))
    second = Runner(cli, "lyapunov", 3, tmp_path / "b", tiny=True)
    second.one_pass()
    second.compare_record(record)
    assert second.failed == 1
    assert "differ from an earlier run" in second.failures[0]
