"""Smoke test of the benchmark itself, at a tiny T through the same code path.

    python3 -m pytest bench/test_bench.py -q

Not part of the package's test suite (pytest's testpaths is tests/); it
takes about two minutes, most of it device-wide's K=10000 data generation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())

END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_ms_p5": ("ms", "lower"),
    "round_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "log_mb": ("MB", "lower"),
    "worst10_accuracy_pct": ("%", "higher"),
    "avg_accuracy_pct": ("%", "higher"),
    "regret_to_bound": ("ratio", "lower"),
}

# Per-layer names every later claim refers to; each .s / .self_s also has a .share.
LAYER_TIMES = [
    "datasets.generate_federation.s", "datasets.stream.s",
    "federation.client_update.s", "federation.sample_clients.s",
    "federation.evaluate_clients.s", "federation.run_federation.self_s",
    "transform.transform_responses.s",
    "decision.decision_loss.s", "decision.decision_gradient.s",
    "decision.linearized_gradient.s", "decision.dr_estimate.s",
    "aggregators.ons_step.self_s", "aggregators.ftrl_eg_step.s", "aggregators.hindsight_best.s",
    "simplex.project_mahalanobis.self_s", "simplex.project_euclidean.s", "simplex.normalize_subset.s",
    "metrics.regret.self_s",
    "cli.parse_config.s", "cli.run_log_lines.s", "cli.summary_from_log.self_s", "cli.run_suite.self_s",
]
PER_LAYER_OTHER = {
    "datasets.stream.calls": "count",
    "federation.client_update.calls": "count",
    "federation.client_update.us_per_call": "us",
    "aggregators.ons_step.ms_per_call": "ms",
    "aggregators.cumulative_loss.calls": "count",
    "simplex.project_mahalanobis.calls": "count",
    "simplex.project_euclidean.calls_per_projection": "count",
    "run_s_p50": "s",
    "rounds_per_s": "1/s",
    "import_s": "s",
    "cli.jobs_nproc_over_jobs1": "ratio",
    "trace.overhead_pct": "%",
    "trace.run_s": "s",
    "quality.worst10_seed_sd_pct": "%",
    "quality.avg_seed_sd_pct": "%",
}


def _expected_per_layer():
    expected = dict(PER_LAYER_OTHER)
    for name in LAYER_TIMES:
        expected[name] = "s"
        expected[name.rsplit(".", 1)[0] + ".share"] = "ratio"
    return expected


def _result(stdout):
    lines = stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def test_spec_declares_every_metric_with_unit_and_direction():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == _expected_per_layer()
    assert all(m["better"] in ("lower", "higher") for m in SPEC["per_layer"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    mapped = [name for layer in LAYERS.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--t-rounds", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert detail["round_ms_tail"]["samples"] > 0


def test_gate_fires_on_a_corrupted_log(monkeypatch, capsys):
    from fedfair import cli

    original = cli.run_log_lines
    calls = []

    def corrupt_first_log(result):
        lines = original(result)
        calls.append(result.config.seed)
        if len(calls) == 1:
            lines[1]["losses"][0] += 1e-9
        return lines

    monkeypatch.setattr(cli, "run_log_lines", corrupt_first_log)
    code = run.main(["--workload", "silo-paper", "--seed", "0", "--seconds", "0", "--t-rounds", "3"])
    assert code == 0
    detail, result = _result(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]
    assert any("differs from this seed's first run" in f for f in detail["failures"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "silo-paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
