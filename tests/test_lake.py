"""The columnar result lake: encoding, compaction, stores, analytics.

The load-bearing contract throughout: every summary derived from the
lake's columnar segments is **byte-identical** (``json.dumps`` with
sorted keys) to the same summary derived by re-parsing the source
``results.jsonl``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.campaign import CharacterizationCampaign
from repro.errors import ConfigurationError
from repro.lake import (
    LAKE_SCHEMA,
    CompactionReport,
    ResultLake,
    decode_results,
    encode_results,
    fold_results_jsonl,
    load_columns,
    run_id_for_dir,
    run_summary,
    save_columns,
    summary_from_lake,
    summary_from_run_dir,
)
from repro.lake.columns import VALUE_JSON, _chip_encodable
from repro.runner import RunnerEngine, WorkUnit
from repro.runner.store import ResultStore

from conftest import TINY_GEOMETRY

CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


def _chip_value(chip_id, vendor="A", fails=((0.512, 1.0), (1.024, 3.0))):
    return {
        "chip_id": chip_id,
        "vendor": vendor,
        "interval_failures": [[c, f] for c, f in fails],
        "temperature_failures": [[45.0, f] for _, f in fails],
    }


def _rows(values, failed=()):
    rows = {}
    for i, value in enumerate(values):
        unit_id = f"u-{i:03d}"
        rows[unit_id] = {
            "unit_id": unit_id,
            "status": "ok",
            "attempts": 1,
            "elapsed_s": 0.25 * (i + 1),
            "value": value,
        }
    for unit_id in failed:
        rows[unit_id] = {
            "unit_id": unit_id,
            "status": "failed",
            "attempts": 2,
            "elapsed_s": 0.1,
            "error": {"type": "RuntimeError", "message": "boom", "traceback": "tb"},
        }
    return rows


def _campaign_run(tmp_path, name, seed=42):
    run_dir = tmp_path / name
    campaign = CharacterizationCampaign(
        chips_per_vendor=1, geometry=TINY_GEOMETRY, iterations=1, seed=seed
    )
    campaign.run(run_dir=str(run_dir), **CAMPAIGN_KW)
    return run_dir


class TestColumnsRoundtrip:
    def test_chip_values_roundtrip_exactly(self):
        rows = _rows([_chip_value(0), _chip_value(1, vendor="B")], failed=["u-009"])
        cols = encode_results(rows)
        decoded = decode_results(cols)
        assert set(decoded) == set(rows)
        for unit_id, row in rows.items():
            assert _dumps(decoded[unit_id].to_json_dict()) == _dumps(row)
        # Chip-shaped values really took the columnar path.
        assert int((cols.value_kind == VALUE_JSON).sum()) == 0

    def test_non_chip_values_fall_back_to_json(self):
        values = [
            {"free": "form"},
            [1, 2, 3],
            "text",
            7,
            # chip-ish but with an int failure count: stays JSON so the
            # int-vs-float distinction survives byte-identically.
            {
                "chip_id": 5,
                "vendor": "A",
                "interval_failures": [[0.5, 1]],
                "temperature_failures": [],
            },
        ]
        rows = _rows(values)
        cols = encode_results(rows)
        assert int((cols.value_kind == VALUE_JSON).sum()) == len(values)
        decoded = decode_results(cols)
        for unit_id, row in rows.items():
            assert _dumps(decoded[unit_id].to_json_dict()) == _dumps(row)

    def test_chip_encodable_predicate(self):
        assert _chip_encodable(_chip_value(3))
        assert not _chip_encodable({"chip_id": 3})
        assert not _chip_encodable({**_chip_value(3), "extra": 1})
        assert not _chip_encodable({**_chip_value(3), "chip_id": True})
        assert not _chip_encodable(None)

    def test_save_load_schema_guard(self, tmp_path):
        cols = encode_results(_rows([_chip_value(0)]))
        path = save_columns(cols, tmp_path / "seg.npz")
        again = load_columns(path)
        assert decode_results(again).keys() == decode_results(cols).keys()

        arrays = dict(np.load(path, allow_pickle=False))
        arrays["schema"] = np.array([LAKE_SCHEMA + 1], dtype=np.int64)
        np.savez_compressed(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ConfigurationError, match="recompact"):
            load_columns(tmp_path / "bad.npz")

        (tmp_path / "junk.npz").write_bytes(b"not a zip")
        with pytest.raises(ConfigurationError):
            load_columns(tmp_path / "junk.npz")


class TestFoldJsonl:
    def test_later_rows_win_and_corruption_is_counted(self, tmp_path):
        path = tmp_path / "results.jsonl"
        rows = [
            {"unit_id": "u-0", "status": "ok", "value": 1},
            {"unit_id": "u-1", "status": "failed",
             "error": {"type": "E", "message": "m", "traceback": "t"}},
            {"unit_id": "u-0", "status": "ok", "value": 2},  # resume re-record
        ]
        lines = [json.dumps(r, sort_keys=True) for r in rows]
        lines.insert(1, '{"neither": "unit row"}')  # interior: no unit_id
        lines.insert(2, "{broken json")  # interior corruption
        path.write_text("\n".join(lines) + '\n{"unit_id": "u-9", "st', "utf-8")
        folded, raw, skipped = fold_results_jsonl(path)
        assert raw == 3
        assert skipped == 3  # no-unit_id row + broken line + torn tail
        assert set(folded) == {"u-0", "u-1"}
        assert folded["u-0"]["value"] == 2


class TestResultLake:
    def test_compaction_matches_store_and_summary_is_byte_identical(
        self, tmp_path
    ):
        run_dir = _campaign_run(tmp_path, "round-0")
        lake = ResultLake(tmp_path / "lake")
        report = lake.compact_run_dir(run_dir)
        assert isinstance(report, CompactionReport)
        run_id = run_id_for_dir(run_dir)
        assert lake.run_ids() == [run_id]
        assert report.units > 0 and report.observations > 0

        store = ResultStore(run_dir)
        expected = store.load_results()
        actual = lake.results(run_id)
        assert set(actual) == set(expected)
        for unit_id in expected:
            assert _dumps(actual[unit_id].to_json_dict()) == _dumps(
                expected[unit_id].to_json_dict()
            )
        assert _dumps(summary_from_lake(lake, run_id)) == _dumps(
            summary_from_run_dir(run_dir)
        )

    def test_recompaction_is_idempotent(self, tmp_path):
        run_dir = _campaign_run(tmp_path, "round-0")
        lake = ResultLake(tmp_path / "lake")
        first = lake.compact_run_dir(run_dir)
        second = lake.compact_run_dir(run_dir)
        assert first.units == second.units
        assert lake.run_ids() == [run_id_for_dir(run_dir)]

    def test_unknown_run_id(self, tmp_path):
        lake = ResultLake(tmp_path / "lake")
        with pytest.raises(ConfigurationError, match="not in the lake"):
            lake.columns("nope")

    def test_non_run_dir_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        lake = ResultLake(tmp_path / "lake")
        with pytest.raises(ConfigurationError):
            lake.compact_run_dir(tmp_path / "empty")


def _worker(payload):
    if payload.get("boom"):
        raise RuntimeError("boom")
    return {"x2": payload["n"] * 2}


def _units(n, boom=()):
    return [
        WorkUnit(unit_id=f"u-{i:03d}", kind="t", payload={"n": i, "boom": i in boom})
        for i in range(n)
    ]


MANIFEST = {"fingerprint": "f" * 32, "experiment": "lake-test", "n_units": 8}


class TestSummaryFallback:
    def test_non_chip_rows_summarize_like_the_jsonl(self, tmp_path):
        """Non-chip ``ok`` values take the row-reconstruction fallback of
        ``summary_from_lake``; it must still match the JSONL summary."""
        run_dir = tmp_path / "run-a"
        report = RunnerEngine(run_dir=str(run_dir), max_retries=0).run(
            _worker, _units(8, boom={3}), MANIFEST
        )
        assert report.stats.succeeded == 7 and report.stats.failed == 1
        lake = ResultLake(tmp_path / "lake")
        lake.compact_run_dir(run_dir)
        summary = summary_from_lake(lake, run_id_for_dir(run_dir))
        assert _dumps(summary) == _dumps(summary_from_run_dir(run_dir))
        assert summary["failed_units"] == ["u-003"]
        assert summary["other_ok_units"] == [f"u-{i:03d}" for i in range(8) if i != 3]


class TestAnalytics:
    @pytest.fixture(scope="class")
    def lake(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("analytics")
        lake = ResultLake(tmp_path / "lake")
        for i, seed in enumerate((42, 43)):
            lake.compact_run_dir(_campaign_run(tmp_path, f"round-{i}", seed=seed))
        return lake

    def test_runs_report(self, lake):
        report = lake_reports()["runs"](lake)
        assert [row[0] for row in report["rows"]] == ["round-0", "round-1"]
        assert "round-0" in report["text"]

    def test_trend_report(self, lake):
        report = lake_reports()["trend"](lake, vendor=None, kind="interval")
        assert report["kind"] == "interval"
        # 2 runs x 3 vendors x 2 intervals
        assert len(report["rows"]) == 12
        for row in report["rows"]:
            assert row[0] in ("round-0", "round-1")
            assert row[3] >= 1  # chips
        assert "mean_failures" in report["text"]

    def test_contour_report(self, lake):
        report = lake_reports()["contour"](lake, kind="temperature")
        assert len(report["rows"]) == 2  # two temperatures pooled over runs
        conditions = [row[0] for row in report["rows"]]
        assert conditions == sorted(conditions)

    def test_longevity_report(self, lake):
        report = lake_reports()["longevity"](lake)
        assert len(report["rows"]) == 3  # one per vendor
        for row in report["rows"]:
            assert row[1] == 2  # both runs cover every vendor

    def test_summary_byte_identity_across_runs(self, lake, tmp_path_factory):
        for run_id in lake.run_ids():
            run_dir = lake.manifest(run_id)  # sanity: manifest exists
            assert isinstance(run_dir, dict)


def lake_reports():
    from repro.lake import REPORTS

    return REPORTS


class TestCli:
    def _repro(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )

    def test_compact_then_query(self, tmp_path):
        run_a = _campaign_run(tmp_path, "round-0", seed=42)
        run_b = _campaign_run(tmp_path, "round-1", seed=43)
        lake_dir = tmp_path / "lake"
        proc = self._repro(
            "lake", "compact", str(run_a), str(run_b), "--lake", str(lake_dir)
        )
        assert proc.returncode == 0, proc.stderr
        assert "round-0" in proc.stdout and "round-1" in proc.stdout

        proc = self._repro("lake", "query", "--lake", str(lake_dir))
        assert proc.returncode == 0, proc.stderr
        assert "round-0" in proc.stdout

        proc = self._repro(
            "lake", "query", "--lake", str(lake_dir), "--report", "trend",
            "--json",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["report"] == "trend"

        proc = self._repro(
            "lake", "query", "--lake", str(lake_dir), "--report", "summary",
            "--runs", "round-0", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        lake = ResultLake(lake_dir)
        assert proc.stdout.strip() == _dumps(summary_from_lake(lake, "round-0"))
        assert proc.stdout.strip() == _dumps(summary_from_run_dir(run_a))

    def test_summary_requires_one_run(self, tmp_path):
        run_a = _campaign_run(tmp_path, "round-0")
        lake_dir = tmp_path / "lake"
        assert self._repro(
            "lake", "compact", str(run_a), "--lake", str(lake_dir)
        ).returncode == 0
        proc = self._repro(
            "lake", "query", "--lake", str(lake_dir), "--report", "summary"
        )
        assert proc.returncode != 0
