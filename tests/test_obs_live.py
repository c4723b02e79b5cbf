"""The live observability plane, trace correlation, and ``repro top``.

Covers the online half of :mod:`repro.obs` end to end:

* :class:`~repro.obs.context.TraceContext` propagation -- ids on span
  events, engine self-rooting, worker adoption, one correlated tree per
  run -- plus the nested ``capture``/``enable`` sink-restore regression;
* exporter/analyzer edges: chrome-trace worker lanes, metrics.json
  schema refusal, empty run dirs, torn-tail-only event logs, and
  ``--compare`` across disjoint metric sets;
* :class:`~repro.obs.live.LivePlane` unit behavior (service gauges, unit
  latency read from the job's registry, completed-fold monotonicity,
  OpenMetrics rendering);
* the dashboard's exposition parser and pure frame renderer, and one
  ``repro top`` frame fetched from a running service;
* the full service integration: ``GET /metrics`` mid-run passes the
  exposition grammar with queue-depth / request-latency / kernel-phase
  series, extended healthz, per-job live metrics, trace ids from the
  HTTP submission landing in the run dir's events, and campaign
  summaries staying byte-identical with the live plane mounted.
"""

import io
import json
import time

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import ListEventSink, Observability, TraceContext
from repro.obs.analyze import compare_runs, load_run
from repro.obs.export import to_chrome_trace, write_metrics_json
from repro.obs.live import LivePlane
from repro.obs.top import parse_openmetrics, render_frame, run_top
from repro.runner import RunnerEngine, WorkUnit
from repro.service import ServiceClient, ServiceConfig, ServiceThread

MANIFEST = {"fingerprint": "f" * 32}


def run_checker(text: str, tmp_path) -> None:
    """Validate an exposition body with the repo's promtext checker."""
    import subprocess
    import sys

    path = tmp_path / "metrics.txt"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "scripts/check_promtext.py", str(path)],
        capture_output=True,
        text=True,
        cwd=None,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# TraceContext + tracer ids
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_new_ids_are_well_formed_and_distinct(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert len(a.trace_id) == 32 and int(a.trace_id, 16) >= 0
        assert a.trace_id != b.trace_id

    def test_json_roundtrip(self):
        ctx = TraceContext.new().child("a" * 16)
        assert TraceContext.from_json_dict(ctx.to_json_dict()) == ctx

    def test_malformed_wire_forms_return_none(self):
        assert TraceContext.from_json_dict(None) is None
        assert TraceContext.from_json_dict({}) is None
        assert TraceContext.from_json_dict({"trace_id": 42}) is None

    def test_span_events_carry_ids_only_when_context_set(self):
        layer = Observability(sink=ListEventSink())
        with layer.span("bare"):
            pass
        layer.tracer.context = TraceContext.new()
        with layer.span("traced") as handle:
            pass
        bare, traced = layer.sink.events
        assert "trace_id" not in bare and "span_id" not in bare
        assert traced["trace_id"] == layer.tracer.context.trace_id
        assert traced["span_id"] == handle.span_id

    def test_nested_spans_parent_to_enclosing_span(self):
        layer = Observability(sink=ListEventSink())
        layer.tracer.context = TraceContext.new()
        with layer.span("outer") as outer:
            with layer.span("inner"):
                pass
        inner_event, outer_event = layer.sink.events  # inner closes first
        assert inner_event["parent_id"] == outer.span_id
        assert inner_event["trace_id"] == outer_event["trace_id"]

    def test_engine_self_roots_and_correlates_one_tree(self):
        layer = Observability(sink=ListEventSink())
        engine = RunnerEngine(observability=layer)
        units = tuple(WorkUnit(f"u-{i}", "toy", {"i": i}) for i in range(2))
        engine.run(lambda payload: payload, units, MANIFEST)
        spans = [e for e in layer.sink.events if e["event"] == "span"]
        trace_ids = {e["trace_id"] for e in spans}
        assert len(trace_ids) == 1  # one tree per run
        assert layer.tracer.context is None  # self-rooted context removed
        run_span = next(e for e in spans if e["name"] == "runner.run")
        unit_spans = [e for e in spans if e["name"] == "unit.execute"]
        assert len(unit_spans) == 2
        assert all(e["parent_id"] == run_span["span_id"] for e in unit_spans)

    def test_preseeded_context_survives_the_run(self):
        layer = Observability(sink=ListEventSink())
        layer.tracer.context = TraceContext(trace_id="ab" * 16)
        engine = RunnerEngine(observability=layer)
        engine.run(lambda payload: payload, (WorkUnit("u-0", "toy", {}),), MANIFEST)
        spans = [e for e in layer.sink.events if e["event"] == "span"]
        assert {e["trace_id"] for e in spans} == {"ab" * 16}
        assert layer.tracer.context is not None  # caller's context kept


# ----------------------------------------------------------------------
# capture() nested-enable regression
# ----------------------------------------------------------------------
class TestCaptureNestedEnable:
    def test_nested_enable_restores_buffered_sink(self, tmp_path):
        """``obs.enable(events_path=...)`` inside ``capture`` used to clobber
        the capture layer's buffer with a JSONL sink, breaking the
        telemetry shipment's ``layer.sink.events`` read."""
        with obs.capture() as layer:
            obs.enable(events_path=tmp_path / "events.jsonl")
            obs.emit("inner.note", i=1)
        # The shipment read still works: the buffer saw the event ...
        assert [e["event"] for e in layer.sink.events] == ["inner.note"]
        # ... and so did the nested file sink (teed, then closed on exit).
        logged = (tmp_path / "events.jsonl").read_text().splitlines()
        assert json.loads(logged[0])["event"] == "inner.note"
        assert not obs.enabled()
        assert layer.sink is not obs.get().sink


# ----------------------------------------------------------------------
# Exporter / analyzer edges
# ----------------------------------------------------------------------
class TestChromeTraceLanes:
    def test_worker_rows_get_synthetic_pid_lanes(self):
        events = [
            {"event": "span", "name": "runner.run", "ts": 10.0, "elapsed_s": 5.0},
            {
                "event": "span",
                "name": "unit.execute",
                "ts": 9.0,
                "elapsed_s": 2.0,
                "unit_id": "u-0",
                "worker_pid": 4242,
                "trace_id": "ab" * 16,
                "span_id": "cd" * 8,
            },
        ]
        trace = to_chrome_trace(events)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        assert by_name["runner.run"]["pid"] == 1
        assert by_name["unit.execute"]["pid"] == 2
        assert by_name["unit.execute"]["args"]["trace_id"] == "ab" * 16
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "worker 4242") in names

    def test_parent_only_trace_has_single_pid(self):
        trace = to_chrome_trace(
            [{"event": "span", "name": "s", "ts": 1.0, "elapsed_s": 0.5}]
        )
        assert {e["pid"] for e in trace["traceEvents"]} == {1}


class TestAnalyzerEdges:
    def test_empty_run_dir_refused_with_guidance(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a run directory"):
            load_run(tmp_path)

    def test_metrics_schema_mismatch_refused_with_guidance(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps({"schema": 999, "meta": {}, "series": []}), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="schema 999"):
            obs.load_metrics_json(path)

    def test_written_metrics_json_reads_back(self, tmp_path):
        path = write_metrics_json([], tmp_path / "metrics.json")
        assert obs.load_metrics_json(path)["series"] == []

    def _run_dir(self, tmp_path, name, counters):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "results.jsonl").write_text(
            json.dumps({"unit_id": "u-0", "status": "ok", "elapsed_s": 0.5}) + "\n",
            encoding="utf-8",
        )
        series = [
            {"kind": "counter", "name": n, "labels": {}, "value": v}
            for n, v in counters.items()
        ]
        write_metrics_json(series, run_dir / "metrics.json")
        return run_dir

    def test_events_with_only_torn_tails(self, tmp_path):
        run_dir = self._run_dir(tmp_path, "torn", {})
        (run_dir / "events.jsonl").write_text(
            '{"event": "runner.sta\n{"truncat', encoding="utf-8"
        )
        run = load_run(run_dir)
        assert run.events == []
        assert run.skipped_lines == 2

    def test_compare_across_disjoint_metric_sets(self, tmp_path):
        run_a = load_run(self._run_dir(tmp_path, "a", {"only.in.a": 1.0}))
        run_b = load_run(self._run_dir(tmp_path, "b", {"only.in.b": 2.0}))
        report = compare_runs(run_a, run_b)
        assert "only.in.a" in report and "only.in.b" in report


# ----------------------------------------------------------------------
# LivePlane units
# ----------------------------------------------------------------------
class TestLivePlane:
    def test_request_feed_renders_as_openmetrics(self, tmp_path):
        plane = LivePlane()
        plane.note_request("GET", "/v1/jobs", 200, 0.01)
        plane.note_request("GET", "/v1/jobs", 200, 0.02)
        text = plane.render_openmetrics()
        assert 'service_requests_total{method="GET",route="/v1/jobs",status="200"} 2' in text
        assert "service_request_seconds_count" in text
        run_checker(text, tmp_path)

    def test_service_gauges_render_the_latest_value(self):
        plane = LivePlane()
        plane.set_service_gauges(queue_depth=3)
        plane.set_service_gauges(queue_depth=1)
        text = plane.render_openmetrics()
        assert "service_queue_depth 1" in text
        assert "service_queue_depth 3" not in text

    def test_unregister_folds_job_counters_monotonically(self):
        plane = LivePlane()
        layer = Observability()
        layer.counter("chip.commands", 5)
        plane.register_job("job-1", "acme", layer)
        assert "chip_commands_total 5" in plane.render_openmetrics()
        plane.unregister_job("job-1")
        # Finished job's series persist in the completed fold.
        assert "chip_commands_total 5" in plane.render_openmetrics()
        assert plane.job_metrics("job-1") is None

    def test_job_rates_read_from_registered_layer(self):
        plane = LivePlane()
        layer = Observability()
        plane.register_job("job-1", "acme", layer)
        assert plane.job_metrics("job-1")["rates"] == {
            "unit_p50_s": None,
            "unit_p99_s": None,
        }
        for latency in (0.2, 0.4, 0.6, 0.8):
            layer.observe("runner.unit_seconds", latency, status="ok")
        # A failed unit's latency is not an ok unit's latency.
        layer.observe("runner.unit_seconds", 9.9, status="failed")
        live = plane.job_metrics("job-1")
        assert live["tenant"] == "acme"
        assert set(live) == {"job_id", "tenant", "snapshot", "rates"}
        (ok,) = [
            row
            for row in live["snapshot"]
            if row["name"] == "runner.unit_seconds" and row["labels"] == {"status": "ok"}
        ]
        # The same bucket estimator /metrics and render_report read.
        assert live["rates"] == {"unit_p50_s": ok["p50"], "unit_p99_s": ok["p99"]}
        assert 0.4 <= live["rates"]["unit_p50_s"] <= 0.6
        assert live["rates"]["unit_p99_s"] == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Dashboard parsing / rendering
# ----------------------------------------------------------------------
class TestTop:
    def test_parse_openmetrics_roundtrip(self):
        plane = LivePlane()
        plane.note_request("GET", "/v1/jobs", 200, 0.01)
        plane.set_service_gauges(queue_depth=2)
        samples = parse_openmetrics(plane.render_openmetrics())
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["service_queue_depth"] == [({}, 2.0)]
        ((labels, value),) = by_name["service_requests_total"]
        assert labels == {"method": "GET", "route": "/v1/jobs", "status": "200"}
        assert value == 1.0

    def test_render_frame_lists_jobs_and_phases(self):
        health = {
            "status": "ok",
            "queued": 1,
            "running": 1,
            "pool": {"workers_busy": 2, "workers_total": 4},
            "ledger_lag_s": 0.25,
        }
        jobs = [
            {
                "job_id": "job-000001",
                "tenant": "acme",
                "state": "running",
                "progress": {"completed": 2, "total": 6, "throughput_units_per_s": 3.5},
            }
        ]
        live = {"job-000001": {"rates": {"unit_p50_s": 0.2, "unit_p99_s": 0.9}}}
        samples = [
            ("span_kernel_vrt_sum", {}, 0.5),
            ("span_kernel_vrt_count", {}, 10.0),
            ("service_queue_depth", {}, 1.0),
        ]
        frame = render_frame(health, jobs, live, samples)
        assert "acme" in frame and "job-000001" in frame
        assert "2/6" in frame and "3.50" in frame
        assert "200.0ms" in frame and "900.0ms" in frame
        assert "vrt" in frame and "10" in frame
        assert "pool 2/4" in frame and "shm" not in frame
        assert "queued 1" in frame

    def test_render_frame_empty_service(self):
        frame = render_frame({"status": "ok"}, [], {}, [])
        assert "(no jobs)" in frame


# ----------------------------------------------------------------------
# Full service integration
# ----------------------------------------------------------------------
FLEET_SPEC = {
    "chips_per_vendor": 2,
    "iterations": 1,
    "chips_per_unit": 2,
    "intervals_s": [0.512],
    "temperatures_c": [45.0],
}


@pytest.mark.slow
class TestServiceLivePlane:
    def test_live_metrics_trace_and_identity(self, tmp_path):
        root = tmp_path / "service"
        with ServiceThread(
            ServiceConfig(root=root, port=0, pool_workers=2, max_running=1)
        ) as svc:
            client = ServiceClient(svc.host, svc.port)

            health = client.healthz()
            assert health.status == "ok"
            assert health.pool_workers_total == 2 and "shm" not in health

            job = client.submit("acme", FLEET_SPEC, trace_id="ab" * 16)
            job_id = job["job_id"]
            assert job["trace_id"] == "ab" * 16

            # Scrape /metrics while the job is in flight.
            mid_flight = None
            live = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                record = client.job(job_id)
                if record["state"] == "running":
                    mid_flight = client.metrics_text()
                    probe = client.job_metrics(job_id)
                    if probe.get("live"):
                        live = probe
                        break
                if record["state"] in ("done", "failed"):
                    break
                time.sleep(0.02)
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "done", record.get("error")

            assert mid_flight is not None, "never observed the job running"
            run_checker(mid_flight, tmp_path)
            assert "service_queue_depth" in mid_flight
            assert "service_request_seconds" in mid_flight
            if live is not None:
                assert live["trace_id"] == "ab" * 16
                assert set(live["rates"]) == {"unit_p50_s", "unit_p99_s"}
                assert "series" not in live

            final = client.metrics_text()
            run_checker(final, tmp_path)
            # Kernel-phase histograms from the fleet megakernel reached
            # the plane (live while running, completed-fold after).
            assert "span_kernel_read_compare" in final
            assert "service_pool_workers_total" in final and "shm" not in final

            # Finished job: metrics endpoint degrades to a shell.
            done_live = client.job_metrics(job_id)
            assert done_live["live"] is False
            assert done_live["state"] == "done"

            summary = client.result(job_id)
            run_dir = root / "acme" / job_id

        # Trace correlation: every span in the run dir's event log (and
        # its chrome-trace export) carries the submission's trace id.
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
            if line.strip()
        ]
        spans = [e for e in events if e.get("event") == "span"]
        assert spans and {e.get("trace_id") for e in spans} == {"ab" * 16}
        worker_spans = [e for e in spans if "worker_pid" in e]
        assert worker_spans, "no worker-origin spans recorded"
        trace = to_chrome_trace(events)
        worker_lanes = {
            e["pid"] for e in trace["traceEvents"] if e.get("pid", 1) != 1
        }
        assert worker_lanes, "chrome trace has no worker lane"

        # Byte-identity: the same spec on the serial backend (no pool, no
        # worker telemetry shipping) yields the identical summary JSON
        # even with the live plane mounted on both services.
        second_root = tmp_path / "replay"
        with ServiceThread(
            ServiceConfig(root=second_root, port=0, pool_workers=0, max_running=1)
        ) as svc:
            client = ServiceClient(svc.host, svc.port)
            job2 = client.submit("acme", FLEET_SPEC)
            client.wait(job2["job_id"], timeout=120)
            replay = client.result(job2["job_id"])
        assert json.dumps(replay, sort_keys=True) == json.dumps(
            summary, sort_keys=True
        )

    def test_top_renders_the_job_row(self, tmp_path):
        with ServiceThread(
            ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0)
        ) as svc:
            client = ServiceClient(svc.host, svc.port)
            job_id = client.submit("acme", FLEET_SPEC)["job_id"]
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "done", record.get("error")
            out = io.StringIO()
            assert run_top(svc.host, svc.port, once=True, stream=out) == 0
        frame = out.getvalue()
        progress = record["progress"]
        (row,) = [line for line in frame.splitlines() if job_id in line]
        # UNITS/S is the record's own progress rate; P50/P99 are read only
        # for running jobs.
        assert row.split() == [
            "acme",
            job_id,
            "done",
            f"{progress['completed']}/{progress['total']}",
            f"{progress['throughput_units_per_s']:.2f}",
            "-",
            "-",
        ]
        assert "/v1/jobs" in frame  # the request table rendered too

    def test_request_latency_recorded_per_route(self, tmp_path):
        with ServiceThread(
            ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0)
        ) as svc:
            client = ServiceClient(svc.host, svc.port)
            client.healthz()
            client.jobs()
            with pytest.raises(Exception):
                client.job("job-999999")
            text = client.metrics_text()
        samples = parse_openmetrics(text)
        requests = {
            (labels["route"], labels["status"]): value
            for name, labels, value in samples
            if name == "service_requests_total"
        }
        assert requests[("/v1/healthz", "200")] == 1.0
        assert requests[("/v1/jobs", "200")] == 1.0
        assert requests[("/v1/jobs/{id}", "404")] == 1.0
