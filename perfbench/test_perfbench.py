"""The benchmark's own tests, on sizes that take about a second.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys

import pytest

import run

PRINTED_METRICS = {
    "build": ("setup_s", "construct_s", "peak_rss_mb", "failed_ops"),
    "verify": ("setup_s", "verify_s", "decompose_s", "peak_rss_mb", "failed_ops"),
    "spectra": ("setup_s", "scheme_s", "trees_s", "peak_rss_mb", "failed_ops"),
}
UNITS = {"peak_rss_mb": "MB", "failed_ops": "ratio"}


def smoke(workload, trace=False, reference=None):
    out = io.StringIO()
    result = run.run_workload(workload, seed=7, seconds=0, trace=trace,
                              plans=run.SMOKE_PLANS, reference=reference, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


def metric_lines(lines):
    return {line.split()[1]: line.split() for line in lines if line.startswith("metric ")}


@pytest.mark.parametrize("workload", sorted(run.PLANS))
def test_every_metric_printed_with_unit(workload):
    result, lines = smoke(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > run.SETUP_PROBES
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    printed = metric_lines(lines)
    for name in PRINTED_METRICS[workload] + ("command_s",):
        assert printed[name][3] == UNITS.get(name, "s"), printed[name]
        assert float(printed[name][2]) >= 0
    assert float(printed["failed_ops"][2]) == 0
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", sorted(run.PLANS))
def test_traced_run_reports_every_layer(workload):
    result, _ = smoke(workload, trace=True)
    assert result["correct"], result
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    for prefix in run.EXPECTED_CALLS[workload]:
        field = "self_s" if f"{prefix}.calls" not in result["metrics"] else "calls"
        assert result["metrics"][f"{prefix}.{field}"]["value"] > 0, prefix


def test_times_are_scaled_by_the_run_calibration():
    runner = run.Runner({}, deadline=run.time.monotonic() + 60)
    assert runner.scale() == 1.0
    runner.calibrate()
    assert runner.failed == 0 and len(runner.calibration_s) == 1
    runner.calibration_s = [0.1, 0.4, 0.4]
    assert runner.scale() == run.CALIBRATION_REF_S / 0.4
    rounds = [[("construct_s", {"cmd": "construct", "q": 2, "n": 3}, {"command_s": t})] for t in (1.0, 3.0, 2.0)]
    assert run.command_times(rounds, 0.5) == {"command_s": 1.0, "construct_s": 1.0}


def test_unused_expected_entry_point_fails_traced_run(monkeypatch):
    monkeypatch.setitem(run.EXPECTED_CALLS, "build", run.EXPECTED_CALLS["build"] + ("scheme.eigentable",))
    result, lines = smoke("build", trace=True)
    assert not result["correct"] and result["failed"] == 1


def test_wrong_reference_digest_trips_failed_ops():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    reference["digests"]["2,3"] = "0" * 64
    result, lines = smoke("build", reference=reference)
    assert not result["correct"] and result["failed"] == 1
    assert float(metric_lines(lines)["failed_ops"][2]) > 0


def test_untampered_stored_basis_verifies_and_tampered_copy_fails():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    runner = run.Runner(reference, deadline=run.time.monotonic() + 120)
    results = run.prepare_stored(runner, run.SMOKE_PLANS["verify"], run.random.Random(3))
    assert runner.failed == 0
    assert not results[-1]["outputs"]["ok"]
    assert set(results[-1]["outputs"]["failed_checks"]) <= run.SJB_CHECKS
    clean = runner.run_instance({"cmd": "verify", "q": 3, "n": 2}, trace=False)
    assert clean["outputs"] == {"ok": True, "failed_checks": []}
    assert runner.failed == 0


def test_control_left_untampered_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "tamper", lambda obj, rng: "nothing")
    result, _ = smoke("verify")
    assert not result["correct"] and result["failed"] == 1


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.PLANS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
