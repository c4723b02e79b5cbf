"""Tests for the parallel campaign execution engine (`repro.runner`).

Covers the engine's contracts on toy units:

* determinism -- a process-pool run returns the serial backend's
  results, and a pooled campaign the per-chip reference summary;
* checkpoint/resume -- a run interrupted after K units relaunches from its
  run directory, executes only the remaining units, and reproduces the
  uninterrupted results;
* failure capture -- a raising work unit is retried, recorded as a
  structured failure row, and does not abort the run.

The campaign cases are named cases of the differential check that
``tests/test_differential.py`` runs on drawn campaigns.
"""

import json

import pytest

from repro.analysis.campaign import CharacterizationCampaign
from repro.errors import ConfigurationError
from repro.obs import ListEventSink, Observability, load_metrics_json
from repro.runner import (
    METRICS_NAME,
    ProcessPoolBackend,
    ProgressTracker,
    ResultStore,
    RunnerEngine,
    SerialBackend,
    UnitFailure,
    UnitResult,
    WorkUnit,
    aggregate_chip_results,
    backend_from_spec,
    build_chip_units,
    campaign_schedule,
    execute_unit,
)
from repro.runner.units import STATUS_FAILED, STATUS_OK

from conftest import TINY_GEOMETRY, assert_campaign_matches_reference

MANIFEST = {"fingerprint": "f" * 32}


def make_units(n):
    return tuple(
        WorkUnit(unit_id=f"u-{i:03d}", kind="toy", payload={"i": i}) for i in range(n)
    )


# Module-level workers: picklable for the process backend, shared-state for
# serial retry tests.
def square_worker(payload):
    return {"i": payload["i"], "sq": payload["i"] ** 2}


def failing_worker(payload):
    if payload["i"] == 1:
        raise RuntimeError(f"unit {payload['i']} is poisoned")
    return {"i": payload["i"]}


_FLAKY_CALLS = []


def flaky_worker(payload):
    _FLAKY_CALLS.append(payload["i"])
    if _FLAKY_CALLS.count(payload["i"]) == 1:
        raise RuntimeError("transient infrastructure failure")
    return {"i": payload["i"]}


_EXECUTED = []


def recording_worker(payload):
    _EXECUTED.append(payload["i"])
    return {"i": payload["i"]}


def interrupting_worker(payload):
    # BaseException bypasses in-worker retry capture (which catches
    # Exception only), so it escapes the backend mid-run like a Ctrl-C.
    if payload["i"] == 2:
        raise KeyboardInterrupt
    return {"i": payload["i"]}


class TruncatingBackend:
    """A backend that silently loses every unit after the first ``keep``.

    Models a pool that died without raising: the engine must report what
    it *observed*, not what it planned.
    """

    name = "truncating"

    def __init__(self, keep):
        self.keep = keep

    def run(self, worker, units, max_retries=1, capture_telemetry=False, should_stop=None):
        for unit in units[: self.keep]:
            yield execute_unit(worker, unit, max_retries, capture_telemetry)


class TestUnitSchema:
    def test_result_json_roundtrip(self):
        ok = UnitResult(unit_id="u", status="ok", value={"x": 1.5}, attempts=2, elapsed_s=0.25)
        assert UnitResult.from_json_dict(json.loads(json.dumps(ok.to_json_dict()))) == ok
        failed = UnitResult(
            unit_id="v",
            status="failed",
            error=UnitFailure(type="RuntimeError", message="boom", traceback="tb"),
            attempts=3,
        )
        assert UnitResult.from_json_dict(failed.to_json_dict()) == failed

    def test_schema_validation(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(unit_id="", kind="toy")
        with pytest.raises(ConfigurationError):
            UnitResult(unit_id="u", status="weird")
        with pytest.raises(ConfigurationError):
            UnitResult(unit_id="u", status="failed")  # failed without error

    def test_duplicate_unit_ids_rejected(self):
        units = make_units(2) + (WorkUnit(unit_id="u-000", kind="toy"),)
        with pytest.raises(ConfigurationError, match="duplicate"):
            RunnerEngine().run(square_worker, units, MANIFEST)


class TestExecutors:
    def test_serial_executes_in_order(self):
        results = list(SerialBackend().run(square_worker, make_units(5)))
        assert [r.value["sq"] for r in results] == [0, 1, 4, 9, 16]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_process_pool_matches_serial(self):
        units = make_units(6)
        serial = {r.unit_id: r.value for r in SerialBackend().run(square_worker, units)}
        pooled = {
            r.unit_id: r.value
            for r in ProcessPoolBackend(workers=4).run(square_worker, units)
        }
        assert pooled == serial

    def test_failure_captured_after_retries(self):
        result = execute_unit(failing_worker, WorkUnit("u-001", "toy", {"i": 1}), max_retries=2)
        assert not result.ok
        assert result.attempts == 3
        assert result.error.type == "RuntimeError"
        assert "poisoned" in result.error.message
        assert "RuntimeError" in result.error.traceback

    def test_flaky_unit_recovers_on_retry(self):
        _FLAKY_CALLS.clear()
        result = execute_unit(flaky_worker, WorkUnit("u-007", "toy", {"i": 7}), max_retries=1)
        assert result.ok
        assert result.attempts == 2

    def test_backend_spec_resolution(self):
        """The worker count alone picks the backend; an instance is kept,
        and a backend name is refused in favour of ``workers``."""
        assert isinstance(backend_from_spec(None), SerialBackend)
        assert isinstance(backend_from_spec(None, workers=1), SerialBackend)
        pool = backend_from_spec(None, workers=4)
        assert isinstance(pool, ProcessPoolBackend) and pool.workers == 4
        assert backend_from_spec(pool, workers=2) is pool
        assert SerialBackend().workers == 1
        for name in ("serial", "process", "threads"):
            with pytest.raises(ConfigurationError, match="pass workers"):
                RunnerEngine(backend=name, workers=2)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ConfigurationError):
            backend_from_spec(None, workers=-3)


def ok_ids(run_dir):
    """Ids of the units with a stored ``ok`` row: the ones a resume skips."""
    return {uid for uid, row in ResultStore(run_dir).load_results().items() if row.ok}


class TestResultStore:
    def test_append_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        with store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
            store.append(
                UnitResult("b", "failed", error=UnitFailure("E", "m", "tb"), attempts=2)
            )
        reloaded = ResultStore(tmp_path / "run").load_results()
        assert reloaded["a"].value == 1
        assert not reloaded["b"].ok
        # Failed rows are not completed: they rerun on resume.
        assert ok_ids(tmp_path / "run") == {"a"}

    def test_torn_tail_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        with store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"unit_id": "b", "status": "ok", "val')  # crash artifact
        assert ok_ids(tmp_path / "run") == {"a"}

    def test_interior_corruption_raises(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        with store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            ResultStore(tmp_path / "run").load_results()

    def test_non_object_lines_are_corrupt_or_torn(self, tmp_path):
        """Valid JSON that is not an object is a corrupt row inside the
        file (named by path:line) and a torn write at its unterminated
        end -- never an AttributeError."""
        store = ResultStore(tmp_path / "run")
        with store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]")  # unterminated: a torn tail
        assert ok_ids(tmp_path / "run") == {"a"}
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write("\n")  # now an interior line
        with pytest.raises(ConfigurationError, match=r"results\.jsonl:2: corrupt result row"):
            ResultStore(tmp_path / "run").load_results()

    def test_manifest_mismatch_rejected(self, tmp_path):
        with ResultStore(tmp_path / "run") as store:
            store.open(MANIFEST)
        other = ResultStore(tmp_path / "run")
        with pytest.raises(ConfigurationError, match="different campaign"):
            other.open({"fingerprint": "0" * 32}, resume=True)

    def test_reuse_without_resume_rejected(self, tmp_path):
        with ResultStore(tmp_path / "run") as store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
        with pytest.raises(ConfigurationError, match="resume"):
            ResultStore(tmp_path / "run").open(MANIFEST)


class TestStoreCrashInjection:
    """Simulated crashes at every vulnerable point of the store lifecycle."""

    def test_manifest_stamp_is_atomic(self, tmp_path):
        with ResultStore(tmp_path / "run") as store:
            store.open(MANIFEST)
        # The temp file used for the atomic stamp must not survive.
        assert [p.name for p in (tmp_path / "run").iterdir() if p.suffix == ".tmp"] == []
        assert json.loads(store.manifest_path.read_text())["fingerprint"] == "f" * 32

    def test_corrupt_manifest_refused_with_clear_error(self, tmp_path):
        # A crash mid-stamp under the old non-atomic write left a torn
        # JSON prefix; resume must refuse it as ConfigurationError (with
        # recovery guidance), never a raw JSONDecodeError.
        run_dir = tmp_path / "run"
        with ResultStore(run_dir) as store:
            store.open(MANIFEST)
            store.append(UnitResult("a", "ok", value=1))
        torn = store.manifest_path.read_text()[: len(store.manifest_path.read_text()) // 2]
        store.manifest_path.write_text(torn)
        with pytest.raises(ConfigurationError, match="corrupt"):
            ResultStore(run_dir).open(MANIFEST, resume=True)
        # ...and through the engine, the same refusal (not a crash).
        with pytest.raises(ConfigurationError, match="deleting the directory"):
            RunnerEngine(run_dir=str(run_dir), resume=True).run(
                square_worker, make_units(2), MANIFEST
            )

    def test_manifest_holding_non_object_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        with ResultStore(run_dir) as store:
            store.open(MANIFEST)
        store.manifest_path.write_text('"not a manifest"')
        with pytest.raises(ConfigurationError, match="manifest object"):
            ResultStore(run_dir).open(MANIFEST, resume=True)

    def test_kill_between_append_and_flush_then_resume(self, tmp_path):
        # A kill after the OS saw only part of the final row leaves a torn
        # tail; resume must rerun exactly the torn unit and reproduce the
        # uninterrupted result set.
        run_dir = str(tmp_path / "run")
        full = RunnerEngine(run_dir=run_dir).run(square_worker, make_units(4), MANIFEST)
        results_path = tmp_path / "run" / "results.jsonl"
        lines = results_path.read_text().splitlines()
        torn = "\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2]
        results_path.write_text(torn)  # no trailing newline: mid-write kill

        _EXECUTED.clear()
        resumed = RunnerEngine(run_dir=run_dir, resume=True).run(
            recording_worker, make_units(4), MANIFEST
        )
        assert _EXECUTED == [3]
        assert resumed.stats.skipped == 3 and resumed.stats.executed == 1
        assert set(resumed.results) == set(full.results)

    def test_mid_run_abort_persists_partial_results_then_resumes(self, tmp_path):
        # KeyboardInterrupt is not captured by in-worker retry, so it
        # escapes the backend mid-run: everything observed before the
        # abort must already be on disk, and a relaunch finishes the rest.
        run_dir = str(tmp_path / "run")

        with pytest.raises(KeyboardInterrupt):
            RunnerEngine(run_dir=run_dir).run(
                interrupting_worker, make_units(5), MANIFEST
            )
        persisted = ResultStore(tmp_path / "run").load_results()
        assert sorted(persisted) == ["u-000", "u-001"]
        assert all(r.ok for r in persisted.values())

        _EXECUTED.clear()
        resumed = RunnerEngine(run_dir=run_dir, resume=True).run(
            recording_worker, make_units(5), MANIFEST
        )
        assert sorted(_EXECUTED) == [2, 3, 4]
        assert resumed.stats.skipped == 2 and resumed.stats.executed == 3
        assert len(resumed.results) == 5


class TestProgress:
    def test_ewma_throughput_and_eta(self):
        now = [0.0]
        tracker = ProgressTracker(total=10, clock=lambda: now[0])
        tracker.start()
        ok = UnitResult("u", "ok", value=None)
        for _ in range(4):
            now[0] += 2.0
            tracker.update(ok)
        assert tracker.completed == 4
        assert tracker.remaining == 6
        # 4 units in the 8 s since start().
        assert tracker.throughput_units_per_s == pytest.approx(0.5)
        assert tracker.eta_seconds == pytest.approx(12.0)
        rendered = tracker.render()
        assert "[4/10]" in rendered and "0.50 units/s" in rendered

    def test_failed_and_skipped_counts(self):
        tracker = ProgressTracker(total=5, clock=lambda: 0.0)
        tracker.note_skipped(3)
        tracker.update(UnitResult("u", "failed", error=UnitFailure("E", "m", "t")))
        assert tracker.failed == 1 and tracker.skipped == 3
        assert tracker.remaining == 1  # 5 planned - 3 resumed - 1 executed
        rendered = tracker.render()
        assert "3 resumed" in rendered and "1 failed" in rendered
        assert "[3/5]" in rendered  # resumed units count toward the numerator

    def test_resume_skips_shrink_remaining_and_eta(self):
        # Regression: `remaining` (and therefore the ETA) used to ignore
        # note_skipped, so a resumed run reported the already-persisted
        # units as still outstanding and inflated the ETA.
        now = [0.0]
        tracker = ProgressTracker(total=10, clock=lambda: now[0])
        tracker.start()
        tracker.note_skipped(6)
        assert tracker.remaining == 4
        ok = UnitResult("u", "ok", value=None)
        for _ in range(2):
            now[0] += 2.0
            tracker.update(ok)
        assert tracker.remaining == 2
        assert tracker.eta_seconds == pytest.approx(4.0)
        assert "[8/10]" in tracker.render()
        for _ in range(2):
            now[0] += 2.0
            tracker.update(ok)
        assert tracker.remaining == 0
        assert tracker.eta_seconds == pytest.approx(0.0)

    def test_burst_of_rows_reads_the_rate_since_start(self):
        # A multi-chip unit stores all its rows at one instant; the rate
        # is still the units over the seconds since start(), not the
        # burst's microsecond gaps.
        now = [0.0]
        tracker = ProgressTracker(total=3000, clock=lambda: now[0])
        tracker.start()
        now[0] = 1.0
        ok = UnitResult("u", "ok", value=None)
        for _ in range(300):
            tracker.update(ok)
        assert tracker.throughput_units_per_s == pytest.approx(300.0)
        assert tracker.eta_seconds == pytest.approx(9.0)

    def test_no_rate_before_the_first_completion(self):
        tracker = ProgressTracker(total=2, clock=lambda: 5.0)
        tracker.start()
        assert tracker.throughput_units_per_s is None
        assert tracker.eta_seconds is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProgressTracker(total=-1)


class TestEngine:
    def test_failure_does_not_abort_run(self):
        report = RunnerEngine(max_retries=1).run(failing_worker, make_units(4), MANIFEST)
        assert report.stats.failed == 1
        assert report.stats.executed == 4
        assert report.stats.succeeded == 3
        assert set(report.failed_results()) == {"u-001"}
        assert set(report.ok_results()) == {"u-000", "u-002", "u-003"}
        failed = report.results["u-001"]
        assert failed.attempts == 2
        assert failed.error.type == "RuntimeError"

    def test_stats_derive_from_observed_completions(self):
        # A backend that loses units must not inflate `executed`.
        report = RunnerEngine(backend=TruncatingBackend(keep=2)).run(
            square_worker, make_units(5), MANIFEST
        )
        assert report.stats.total == 5
        assert report.stats.executed == 2
        assert report.stats.succeeded == 2
        assert report.stats.failed == 0
        assert len(report.results) == 2

    def test_resume_executes_only_missing_units(self, tmp_path):
        run_dir = str(tmp_path / "run")
        engine = RunnerEngine(run_dir=run_dir)
        first = engine.run(recording_worker, make_units(5), MANIFEST)
        assert first.stats.executed == 5 and first.stats.skipped == 0

        # Simulate a crash that lost the last three units.
        results_path = tmp_path / "run" / "results.jsonl"
        kept = results_path.read_text().splitlines()[:2]
        results_path.write_text("\n".join(kept) + "\n")

        _EXECUTED.clear()
        resumed = RunnerEngine(run_dir=run_dir, resume=True).run(
            recording_worker, make_units(5), MANIFEST
        )
        assert resumed.stats.executed == 3 and resumed.stats.skipped == 2
        assert sorted(_EXECUTED) == [2, 3, 4]
        assert {uid: r.value for uid, r in resumed.results.items()} == {
            uid: r.value for uid, r in first.results.items()
        }

    def test_resumed_failures_are_retried(self, tmp_path):
        run_dir = str(tmp_path / "run")
        report = RunnerEngine(run_dir=run_dir, max_retries=0).run(
            failing_worker, make_units(3), MANIFEST
        )
        assert set(report.failed_results()) == {"u-001"}
        # Relaunch with a healed worker: only the failed unit reruns.
        _EXECUTED.clear()
        healed = RunnerEngine(run_dir=run_dir, resume=True).run(
            recording_worker, make_units(3), MANIFEST
        )
        assert _EXECUTED == [1]
        assert healed.stats.skipped == 2
        assert all(r.ok for r in healed.results.values())

    def test_progress_callback_stream(self):
        seen = []
        engine = RunnerEngine(progress=lambda result, tracker: seen.append(tracker.render()))
        engine.run(square_worker, make_units(3), MANIFEST)
        assert len(seen) == 3
        assert seen[-1].startswith("[3/3]")


@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(
        chips_per_vendor=1, geometry=TINY_GEOMETRY, iterations=1, seed=77
    )


CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


class TestCampaignThroughRunner:
    def test_parallel_matches_serial_byte_identical(self, campaign):
        for route in (dict(), dict(workers=4)):
            assert_campaign_matches_reference(campaign, **CAMPAIGN_KW, **route)

    def test_workers_alone_run_the_pool(self, campaign, tmp_path):
        """No ``backend``: more than one worker runs the process pool, and
        the run's ``metrics.json`` says so."""
        for workers, expected in ((2, "process"), (None, "serial")):
            run_dir = tmp_path / f"run-{workers}"
            campaign.run(
                **CAMPAIGN_KW, workers=workers, run_dir=str(run_dir),
                observability=Observability(sink=ListEventSink()),
            )
            meta = load_metrics_json(run_dir / METRICS_NAME)["meta"]
            assert meta["backend"] == expected

    def test_resume_completes_only_remaining_chips(self, campaign):
        # Keep only the first chip's row: the "crash" lost two of three.
        assert_campaign_matches_reference(campaign, **CAMPAIGN_KW, stop_after=1)

    def test_single_temperature_reports_none_coefficient(self, campaign):
        summary = campaign.run(intervals_s=(0.512, 1.024), temperatures_c=(45.0,))
        assert all(
            stats.measured_temp_coefficient is None for stats in summary.vendors.values()
        )
        assert "n/a" in summary.to_text()

    def test_duplicate_temperatures_report_none_coefficient(self, campaign):
        summary = campaign.run(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 45.0))
        assert all(
            stats.measured_temp_coefficient is None for stats in summary.vendors.values()
        )

    def test_unit_ids_stable_across_plans(self):
        a = build_chip_units(2, TINY_GEOMETRY, 1, 7, (0.512,), (45.0,))
        b = build_chip_units(2, TINY_GEOMETRY, 1, 7, (0.512,), (45.0,))
        assert [u.unit_id for u in a] == [u.unit_id for u in b]
        assert len({u.unit_id for u in a}) == len(a)


class TestCampaignSchedule:
    def test_one_temperature_is_the_sweep_alone(self):
        assert campaign_schedule((0.512, 1.024), (45.0,)) == ((45.0, (0.512, 1.024)),)

    def test_later_temperatures_run_the_top_interval(self):
        assert campaign_schedule((0.512, 1.024, 2.048), (45, 55)) == (
            (45.0, (0.512, 1.024, 2.048)),
            (55.0, (2.048,)),
        )

    def test_descending_temperatures_keep_their_order(self):
        assert campaign_schedule((0.512, 1.024), (55.0, 45.0)) == (
            (55.0, (0.512, 1.024)),
            (45.0, (1.024,)),
        )

    def test_repeated_temperatures_are_separate_stages(self):
        assert campaign_schedule((0.512, 1.024), (45.0, 45.0)) == (
            (45.0, (0.512, 1.024)),
            (45.0, (1.024,)),
        )

    def test_repeated_intervals_are_each_swept(self):
        assert campaign_schedule((0.512, 1.024, 1.024), (45.0, 55.0)) == (
            (45.0, (0.512, 1.024, 1.024)),
            (55.0, (1.024,)),
        )

    @pytest.mark.parametrize(
        "intervals, temperatures",
        [((), (45.0,)), ((1.024, 0.512), (45.0,)), ((0.512,), ())],
        ids=["no-interval", "descending-intervals", "no-temperature"],
    )
    def test_refusals(self, intervals, temperatures):
        with pytest.raises(ConfigurationError):
            campaign_schedule(intervals, temperatures)


def chip_result(chip_id, vendor, intervals, temperatures, ok=True):
    """A UnitResult shaped like a measure_chip return (or a failure row)."""
    if not ok:
        return UnitResult(
            unit_id=f"chip-{chip_id:05d}",
            status=STATUS_FAILED,
            error=UnitFailure(type="RuntimeError", message="boom", traceback="tb"),
            attempts=2,
            elapsed_s=0.1,
        )
    return UnitResult(
        unit_id=f"chip-{chip_id:05d}",
        status=STATUS_OK,
        value={
            "chip_id": chip_id,
            "vendor": vendor,
            "interval_failures": [[t, float(n)] for t, n in intervals],
            "temperature_failures": [[t, float(n)] for t, n in temperatures],
        },
        attempts=1,
        elapsed_s=0.1,
    )


class TestAggregateChipResults:
    def test_failed_units_are_excluded_from_the_tables(self):
        results = [
            chip_result(0, "A", [(0.512, 3)], [(45.0, 3)]),
            chip_result(1, "A", [], [], ok=False),
            chip_result(2, "B", [(0.512, 7)], [(45.0, 7)]),
        ]
        counts, temp_counts = aggregate_chip_results(results)
        assert counts == {"A": {0.512: [3]}, "B": {0.512: [7]}}
        assert temp_counts == {"A": {45.0: [3]}, "B": {45.0: [7]}}

    def test_counts_sorted_by_chip_id_not_completion_order(self):
        results = [
            chip_result(2, "A", [(0.512, 30)], [(45.0, 30)]),
            chip_result(0, "A", [(0.512, 10)], [(45.0, 10)]),
            chip_result(1, "A", [(0.512, 20)], [(45.0, 20)]),
        ]
        counts, _ = aggregate_chip_results(results)
        assert counts["A"][0.512] == [10, 20, 30]

    def test_duplicate_temperatures_append_one_count_each(self):
        """A (45, 45) sweep measures twice at 45C; both measurements land
        in the table (legacy append semantics, pairs not a mapping)."""
        results = [
            chip_result(0, "A", [(0.512, 5)], [(45.0, 5), (45.0, 6)]),
            chip_result(1, "A", [(0.512, 9)], [(45.0, 9), (45.0, 9)]),
        ]
        _, temp_counts = aggregate_chip_results(results)
        assert temp_counts == {"A": {45.0: [5, 6, 9, 9]}}

    def test_all_failed_yields_empty_tables(self):
        results = [chip_result(i, "A", [], [], ok=False) for i in range(3)]
        assert aggregate_chip_results(results) == ({}, {})
