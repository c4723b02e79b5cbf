"""Cross-process telemetry: capture, shipping, merging, and parity.

The worker half records into an isolated layer (``obs.capture``), ships
plain dicts back on ``UnitResult.telemetry``, and the parent merges them
(counters sum, histograms merge exactly, gauges take the latest) and
replays the buffered events.  These tests pin the contracts end to end:

* histogram merge algebra -- merging per-worker histograms is
  indistinguishable from observing the concatenated stream (property
  test, including empty and single-observation edges);
* a ``--workers 4`` campaign's merged report carries the worker-side
  series (``chip.commands``, profiler counters, kernel-phase spans) with
  the same totals as the serial run of the same campaign;
* campaign summaries stay byte-identical with observability on vs off on
  the multiprocess path (a named case of the check
  ``tests/test_differential.py`` draws);
* the transport itself: ``capture`` isolation, ``execute_unit``
  attachment, result-equality/JSON neutrality, engine-side merge and
  event replay, and the durable ``metrics.json`` at run end.
"""

import dataclasses
import json
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.campaign import CharacterizationCampaign
from repro.errors import ConfigurationError
from repro.obs import ListEventSink, Observability
from repro.obs.metrics import Histogram
from repro.runner import METRICS_NAME, RunnerEngine, WorkUnit
from repro.runner.executors import execute_unit

from conftest import TINY_GEOMETRY, assert_campaign_matches_reference

MANIFEST = {"fingerprint": "f" * 32}
CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))

#: Series whose *values* are wall-clock (host-speed) and therefore differ
#: run to run; their structure (kind, labels, observation count) is still
#: deterministic.
WALL_CLOCK_NAMES = ("runner.unit_seconds", "runner.run_seconds")


def _is_wall_clock(name: str) -> bool:
    return name.startswith("span.") or name in WALL_CLOCK_NAMES


# ----------------------------------------------------------------------
# Histogram merge algebra (hypothesis property test)
# ----------------------------------------------------------------------
observations = st.floats(
    min_value=-10.0, max_value=3600.0, allow_nan=False, allow_infinity=False
)


class TestHistogramMergeAlgebra:
    @given(streams=st.lists(st.lists(observations, max_size=25), max_size=6))
    # A near-constant stream: a stddev taken from sum_sq cancels here.
    @example(streams=[[220.67481761475665] * 2, [220.67481761475665, 220.671875]])
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_observing_concatenated_stream(self, streams):
        # One histogram per "worker" stream, folded into a parent ...
        merged = Histogram()
        for stream in streams:
            part = Histogram()
            for value in stream:
                part.observe(value)
            merged.merge(part)
        # ... must match a single histogram observing everything itself.
        reference = Histogram()
        for value in (v for stream in streams for v in stream):
            reference.observe(value)

        assert merged.count == reference.count
        assert merged.min == reference.min
        assert merged.max == reference.max
        assert merged.bucket_counts == reference.bucket_counts
        # Sums are float additions in a different order: exact up to ulp.
        assert merged.total == pytest.approx(reference.total, rel=1e-12, abs=1e-12)
        assert merged.sum_sq == pytest.approx(reference.sum_sq, rel=1e-12, abs=1e-12)
        if reference.count:
            assert merged.mean == pytest.approx(reference.mean, rel=1e-12, abs=1e-12)
            assert merged.stddev == pytest.approx(
                reference.stddev, rel=1e-9, abs=1e-9
            )
            for q in (0.0, 0.5, 0.95, 1.0):
                assert merged.percentile(q) == pytest.approx(
                    reference.percentile(q), rel=1e-12, abs=1e-12
                )
        else:
            assert merged.mean is None and merged.stddev is None
            assert merged.percentile(0.5) is None

    def test_empty_merge_is_identity(self):
        hist = Histogram()
        hist.observe(0.3)
        hist.merge(Histogram())
        assert (hist.count, hist.total, hist.min, hist.max) == (1, 0.3, 0.3, 0.3)

    def test_single_observation_each_side(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert (a.count, a.total, a.min, a.max) == (2, 4.0, 1.0, 3.0)
        assert a.mean == pytest.approx(2.0)
        assert a.stddev == pytest.approx(1.0)

    def test_mismatched_bounds_refused(self):
        with pytest.raises(ConfigurationError, match="bucket bounds"):
            Histogram(bounds=(1.0, 2.0)).merge(Histogram())

    def test_rows_without_m2_fall_back_to_sum_sq(self):
        from repro.obs import MetricsRegistry

        source = MetricsRegistry()
        for value in (1.0, 2.0, 4.0):
            source.histogram("h").observe(value)
        (row,) = source.snapshot()
        del row["m2"]
        sink = MetricsRegistry()
        sink.merge_snapshot([row])
        (merged,) = sink.snapshot()
        assert merged["stddev"] == pytest.approx(row["stddev"], rel=1e-12)
        assert merged["m2"] == pytest.approx(source.snapshot()[0]["m2"], rel=1e-12)

    def test_snapshot_roundtrip_is_exact(self):
        """Rehydrating a snapshot row rebuilds the histogram bit-for-bit
        (the cross-process wire format loses nothing)."""
        from repro.obs import MetricsRegistry

        source = MetricsRegistry()
        for value in (0.0001, 0.042, 7.5, 2000.0):
            source.histogram("h", phase="x").observe(value)
        sink = MetricsRegistry()
        sink.merge_snapshot(source.snapshot())
        assert sink.snapshot() == source.snapshot()


# ----------------------------------------------------------------------
# capture(): the worker-side recording context
# ----------------------------------------------------------------------
class TestCapture:
    def test_isolates_and_restores_process_default(self):
        assert not obs.enabled()
        before = obs.get()
        with obs.capture() as layer:
            assert obs.enabled()  # force-enabled inside
            assert obs.get() is layer
            assert obs.get() is not before
            obs.counter("captured.things", 2)
            obs.emit("captured.note", detail="x")
        assert not obs.enabled()
        assert obs.get() is before
        rows = {r["name"]: r for r in layer.snapshot()}
        assert rows["captured.things"]["value"] == 2.0
        (event,) = layer.sink.events
        assert event["event"] == "captured.note"
        assert event["detail"] == "x"
        assert isinstance(event["ts"], float)  # BufferedEventSink stamps ts

    def test_restores_enabled_layer_untouched(self):
        obs.reset()
        obs.enable()
        try:
            obs.counter("outer.count")
            with obs.capture():
                obs.counter("inner.count")
            names = {r["name"] for r in obs.snapshot()}
            assert names == {"outer.count"}  # inner stayed isolated
            assert obs.enabled()
        finally:
            obs.disable()
            obs.reset()

    def test_restores_on_exception(self):
        before = obs.get()
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("worker died")
        assert obs.get() is before
        assert not obs.enabled()

    def test_concurrent_captures_stay_in_their_own_threads(self):
        """Two threads capture at once, interleaved as two in-thread
        service jobs can be: A enters, B enters, A records and exits, B
        records and exits.  Each layer holds its own thread's series only,
        a thread outside any capture records nothing meanwhile, and the
        process default comes back as it was."""
        before = obs.get()
        steps = {name: threading.Event() for name in ("a_in", "b_in", "main", "a_out")}
        layers, errors = {}, []

        def worker(name, wait_for, then, finish_after):
            try:
                if wait_for:
                    steps[wait_for].wait(5)
                with obs.capture() as layer:
                    layers[name] = layer
                    steps[then].set()
                    steps[finish_after].wait(5)
                    obs.counter(f"{name}.count")
                    assert obs.get() is layer and obs.enabled()
                if name == "a":
                    steps["a_out"].set()
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("a", None, "a_in", "main")),
            threading.Thread(target=worker, args=("b", "a_in", "b_in", "a_out")),
        ]
        for thread in threads:
            thread.start()
        assert steps["b_in"].wait(5)
        # Both captures are open; this thread is in neither.
        assert not obs.enabled() and obs.get() is before
        obs.counter("main.count")
        steps["main"].set()
        for thread in threads:
            thread.join(5)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert [r["name"] for r in layers["a"].snapshot()] == ["a.count"]
        assert [r["name"] for r in layers["b"].snapshot()] == ["b.count"]
        leaked = {r["name"] for r in obs.snapshot()}
        assert not leaked & {"a.count", "b.count", "main.count"}
        assert not obs.enabled() and obs.get() is before

    def test_many_threads_capturing_at_once(self):
        """More threads than cores enter and leave captures with a tiny
        switch interval: every layer holds exactly its own thread's count,
        and once all have left nothing records (a lost update of the
        open-capture count would leave the layer enabled)."""
        results, errors = [], []

        def worker(n):
            try:
                for _ in range(50):
                    with obs.capture() as layer:
                        obs.counter("worker.count", n)
                    (row,) = layer.snapshot()
                    results.append(row["value"] == n)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(results) == 8 * 50 and all(results)
        assert not obs.enabled()


# ----------------------------------------------------------------------
# execute_unit(): telemetry attachment and result neutrality
# ----------------------------------------------------------------------
def telemetry_worker(payload):
    obs.counter("worker.widgets", payload["i"] + 1)
    obs.observe("worker.latency", 0.25, status="ok")
    obs.emit("worker.note", i=payload["i"])
    return {"i": payload["i"]}


class TestExecuteUnitTelemetry:
    def test_attaches_metrics_and_events(self):
        unit = WorkUnit("u-0", "toy", {"i": 1})
        result = execute_unit(telemetry_worker, unit, capture_telemetry=True)
        assert result.ok
        names = {r["name"]: r for r in result.telemetry["metrics"]}
        assert names["worker.widgets"]["value"] == 2.0
        assert names["worker.latency"]["count"] == 1
        (event,) = result.telemetry["events"]
        assert event["event"] == "worker.note" and event["i"] == 1
        # Plain picklable data only: must survive the pool boundary.
        json.dumps(result.telemetry)

    def test_no_capture_leaves_telemetry_none(self):
        unit = WorkUnit("u-0", "toy", {"i": 1})
        result = execute_unit(telemetry_worker, unit)
        assert result.telemetry is None

    def test_telemetry_excluded_from_equality_and_json(self):
        unit = WorkUnit("u-0", "toy", {"i": 1})
        captured = execute_unit(telemetry_worker, unit, capture_telemetry=True)
        stripped = dataclasses.replace(captured, telemetry=None)
        assert captured == stripped  # compare=False
        assert "telemetry" not in captured.to_json_dict()
        assert captured.to_json_dict() == stripped.to_json_dict()


# ----------------------------------------------------------------------
# Engine-side merge and replay
# ----------------------------------------------------------------------
class TestEngineMerge:
    def units(self, n=3):
        return tuple(WorkUnit(f"u-{i}", "toy", {"i": i}) for i in range(n))

    def test_worker_metrics_merge_into_injected_layer(self):
        layer = Observability(sink=ListEventSink())
        engine = RunnerEngine(observability=layer)
        engine.run(telemetry_worker, self.units(), MANIFEST)
        rows = {r["name"]: r for r in layer.snapshot()}
        # Counters summed across units: (0+1) + (1+1) + (2+1).
        assert rows["worker.widgets"]["value"] == 6.0
        hist = rows["worker.latency"]
        assert hist["count"] == 3
        assert hist["total"] == pytest.approx(0.75)
        assert hist["labels"] == {"status": "ok"}

    def test_worker_events_replayed_with_unit_attribution(self):
        layer = Observability(sink=ListEventSink())
        engine = RunnerEngine(observability=layer)
        engine.run(telemetry_worker, self.units(), MANIFEST)
        notes = [e for e in layer.sink.events if e["event"] == "worker.note"]
        assert len(notes) == 3
        for note in notes:
            assert note["unit_id"] == f"u-{note['i']}"
            # The worker's wall-clock stamp rides along on replay.
            assert isinstance(note["ts"], float)
        # Replayed rows interleave with the engine's own unit rows.
        kinds = [e["event"] for e in layer.sink.events]
        assert kinds.count("runner.unit") == 3

    def test_metrics_json_written_at_run_end(self, tmp_path):
        layer = Observability(sink=ListEventSink())
        run_dir = tmp_path / "run"
        engine = RunnerEngine(run_dir=str(run_dir), observability=layer)
        report = engine.run(telemetry_worker, self.units(), MANIFEST)
        payload = obs.load_metrics_json(run_dir / METRICS_NAME)
        assert payload["meta"]["total"] == 3
        assert payload["meta"]["succeeded"] == report.stats.succeeded
        assert payload["meta"]["backend"] == "serial"
        names = {r["name"] for r in payload["series"]}
        assert "worker.widgets" in names
        assert "runner.units" in names

    def test_no_metrics_json_without_observability(self, tmp_path):
        run_dir = tmp_path / "run"
        engine = RunnerEngine(run_dir=str(run_dir))
        engine.run(telemetry_worker, self.units(), MANIFEST)
        assert not (run_dir / METRICS_NAME).exists()


# ----------------------------------------------------------------------
# Serial vs multiprocess parity (the headline acceptance criterion)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(
        chips_per_vendor=1, geometry=TINY_GEOMETRY, iterations=1, seed=42
    )


def _run_with_metrics(campaign, **kwargs):
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        campaign.run(**CAMPAIGN_KW, **kwargs)
        return obs.snapshot()
    finally:
        obs.disable()
        obs.reset()


def _series_index(snapshot):
    return {
        (r["name"], tuple(sorted(r["labels"].items()))): r for r in snapshot
    }


class TestMultiprocessParity:
    def test_merged_report_matches_serial(self, campaign):
        # One unit size for both runs: the computed default differs with
        # the worker count, and so would the series structure.
        serial_snap = _run_with_metrics(campaign, backend="serial", chips_per_unit=1)
        pool_snap = _run_with_metrics(
            campaign, backend=None, workers=4, chips_per_unit=1
        )
        serial_idx, pool_idx = _series_index(serial_snap), _series_index(pool_snap)
        # Identical series structure: every (name, labels) pair exists in
        # both runs -- the pool run lost no worker-side series.
        assert set(serial_idx) == set(pool_idx)

        # The worker-side series: bulk kernel counters and phase spans.
        assert any(name == "chip.commands" for name, _ in serial_idx)
        assert any(name == "profiler.new_cells" for name, _ in serial_idx)
        assert any(name == "span.kernel.read_compare" for name, _ in serial_idx)

        for key, serial_row in serial_idx.items():
            pool_row = pool_idx[key]
            name = key[0]
            assert pool_row["kind"] == serial_row["kind"]
            if _is_wall_clock(name):
                # Wall-clock values vary; observation counts must not.
                if serial_row["kind"] == "histogram":
                    assert pool_row["count"] == serial_row["count"]
                continue
            if serial_row["kind"] == "histogram":
                # Sim-domain histograms merge exactly (ulp-level float
                # tolerance: worker snapshots fold in completion order).
                assert pool_row["count"] == serial_row["count"]
                assert pool_row["buckets"] == serial_row["buckets"]
                assert pool_row["min"] == serial_row["min"]
                assert pool_row["max"] == serial_row["max"]
                assert pool_row["total"] == pytest.approx(
                    serial_row["total"], rel=1e-12
                )
            else:
                assert pool_row["value"] == pytest.approx(
                    serial_row["value"], rel=1e-12
                )

    def test_multiprocess_summary_byte_identical_obs_on_vs_off(self, campaign):
        assert_campaign_matches_reference(
            campaign, **CAMPAIGN_KW, backend=None, workers=2, observed=True
        )
