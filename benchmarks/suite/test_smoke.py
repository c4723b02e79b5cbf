"""Smoke test of the benchmark harness itself (``run.py --smoke``).

Runs every workload shrunken (one timed and one traced run each) and
checks the harness's contract: every declared metric is emitted with its
unit and a finite value, each traced budget adds back up to its wall
time, and a tampered golden digest fails the run.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SUITE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script: pathlib.Path, *args: str, out: pathlib.Path = None):
    command = [sys.executable, str(script), "--smoke", "--seconds", "1", *args]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    proc = _run(SUITE / "run.py", out=out)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_declared_layer_metrics_match_the_harness():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert declared == list(workloads.LAYER_METRICS)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_emitted_with_unit_and_finite_value(suite):
    assert suite["correct"] is True
    for name in workloads.WORKLOADS:
        data = suite["workloads"][name]
        assert data["failed_frac"] == 0
        for metric in BENCH["end_to_end"]:
            entry = data["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0, (name, metric)
        for metric in BENCH["per_layer"]:
            assert math.isfinite(data["trace"]["per_layer"][metric["name"]]), (name, metric)


def test_traced_budget_adds_up_to_wall_time(suite):
    for name, data in suite["workloads"].items():
        budget = data["trace"]["budget"]
        assert budget["wall_s"] > 0
        total = sum(seconds for _layer, seconds in budget["lines"])
        assert total == pytest.approx(budget["wall_s"], rel=1e-9), name
        assert dict(budget["lines"])["unattributed"] == pytest.approx(budget["unattributed_s"])


def test_kernel_layers_appear_only_where_they_run(suite):
    fleet = suite["workloads"]["fleet-3k"]["trace"]["per_layer"]
    cli = suite["workloads"]["cli-60"]["trace"]["per_layer"]
    assert fleet["core.fleetprof.read_compare_s"] > 0 and fleet["core.bruteforce.run_s"] == 0
    assert cli["core.bruteforce.run_s"] > 0 and cli["core.fleetprof.read_compare_s"] == 0


def test_tampered_golden_digest_fails_the_run(tmp_path):
    copy = tmp_path / "suite"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "layers.py"):
        shutil.copy(SUITE / name, copy / name)
    (copy / "golden.json").write_text(
        json.dumps({"fleet-3k/smoke": {"368": "0000000000000000"}}), encoding="utf-8"
    )
    proc = _run(copy / "run.py", "--workload", "fleet-3k", "--seed", "368")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
