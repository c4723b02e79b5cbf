"""Exporters and the offline run-dir analyzer (``python -m repro obs``).

Covers the consumer half of the telemetry pipeline:

* OpenMetrics/Prometheus text exposition -- types, cumulative buckets,
  name/label sanitization, determinism, and a grammar check;
* Chrome trace-event JSON -- span slices, instants, per-unit lanes,
  timestamp rebasing, ``json`` round-trip;
* durable ``metrics.json`` write/load (atomic, corruption-rejecting);
* the analyzer -- loading partial/resumed run dirs, latency stats,
  failure breakdown, summaries, comparison, and exports;
* the CLI -- summary/compare/export on a real run directory produced via
  checkpoint/resume with metrics enabled.
"""

import json
import re

import pytest

from repro import obs
from repro.__main__ import main
from repro.analysis.campaign import CharacterizationCampaign
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    load_metrics_json,
    to_chrome_trace,
    to_openmetrics,
    write_metrics_json,
)
from repro.obs import analyze

from conftest import TINY_GEOMETRY

CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))

#: One Prometheus text-format sample line: name{labels} value
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?([0-9.e+\-]+|NaN|\+Inf|-Inf)$"
)


def check_promtext(text: str) -> int:
    """Tiny exposition-format lint: every line is a comment or a sample,
    and the document ends with the OpenMetrics EOF marker.  Returns the
    number of sample lines."""
    lines = text.splitlines()
    assert lines and lines[-1] == "# EOF"
    samples = 0
    for line in lines[:-1]:
        if line.startswith("#"):
            assert re.match(r"^# (TYPE|HELP|UNIT) ", line), line
            continue
        assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
        samples += 1
    return samples


def sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("chip.commands", command="write_pattern").inc(7)
    reg.counter("chip.commands", command="wait").inc(3)
    reg.gauge("runner.queue_depth").set(2)
    for value in (0.0002, 0.04, 0.04, 7.0):
        reg.histogram("unit.seconds", status="ok").observe(value)
    return reg.snapshot()


class TestOpenMetrics:
    def test_exposition_grammar_and_types(self):
        text = to_openmetrics(sample_snapshot())
        assert check_promtext(text) > 0
        assert "# TYPE chip_commands counter" in text
        assert "# TYPE runner_queue_depth gauge" in text
        assert "# TYPE unit_seconds histogram" in text
        assert 'chip_commands_total{command="write_pattern"} 7' in text
        assert "runner_queue_depth 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_openmetrics(sample_snapshot())
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("unit_seconds_bucket")
        ]
        assert buckets == sorted(buckets)  # monotone nondecreasing
        assert buckets[-1] == 4  # +Inf bucket equals the count
        assert 'unit_seconds_bucket{status="ok",le="+Inf"} 4' in text
        assert 'unit_seconds_count{status="ok"} 4' in text
        assert 'unit_seconds_sum{status="ok"} ' in text

    def test_type_line_emitted_once_per_name(self):
        text = to_openmetrics(sample_snapshot())
        assert text.count("# TYPE chip_commands counter") == 1

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", note='say "hi"\nback\\slash').inc()
        text = to_openmetrics(reg.snapshot())
        assert check_promtext(text) == 1
        assert '\\"hi\\"' in text and "\\n" in text and "\\\\slash" in text

    def test_deterministic_output(self):
        assert to_openmetrics(sample_snapshot()) == to_openmetrics(sample_snapshot())

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigurationError, match="unknown metric kind"):
            to_openmetrics([{"kind": "summary", "name": "x", "labels": {}}])


class TestChromeTrace:
    EVENTS = [
        {"event": "runner.start", "ts": 100.0, "seq": 0, "backend": "serial"},
        {
            "event": "span",
            "name": "profiler.run",
            "ts": 103.0,
            "elapsed_s": 2.5,
            "seq": 1,
            "unit_id": "u-0",
            "chip_id": 4,
        },
        {"event": "runner.unit", "ts": 103.1, "seq": 2, "unit_id": "u-0"},
    ]

    def test_spans_become_complete_slices(self):
        trace = to_chrome_trace(self.EVENTS)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        (span,) = slices
        assert span["name"] == "profiler.run"
        assert span["dur"] == pytest.approx(2.5e6)
        # Starts at ts - elapsed_s = 100.5, rebased against min start 100.0.
        assert span["ts"] == pytest.approx(0.5e6)
        assert span["args"]["chip_id"] == 4
        assert "seq" not in span["args"] and "ts" not in span["args"]

    def test_lanes_per_unit_with_metadata(self):
        trace = to_chrome_trace(self.EVENTS)
        meta = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(meta) == {"run", "u-0"}
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        by_name = {e["name"]: e for e in instants}
        assert by_name["runner.start"]["tid"] == meta["run"]
        assert by_name["runner.unit"]["tid"] == meta["u-0"]

    def test_earliest_start_rebased_to_zero(self):
        trace = to_chrome_trace(self.EVENTS)
        starts = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert min(starts) == pytest.approx(0.0)

    def test_json_roundtrip_and_empty_input(self):
        trace = json.loads(json.dumps(to_chrome_trace(self.EVENTS)))
        assert trace["displayTimeUnit"] == "ms"
        assert to_chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestMetricsJson:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.json"
        snapshot = sample_snapshot()
        write_metrics_json(snapshot, path, meta={"backend": "serial"})
        payload = load_metrics_json(path)
        assert payload["series"] == snapshot
        assert payload["meta"] == {"backend": "serial"}
        assert payload["schema"] == 1
        assert not path.with_name("metrics.json.tmp").exists()

    def test_load_rejects_corruption(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_metrics_json(path)
        path.write_text('{"no_series": true}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="metrics snapshot"):
            load_metrics_json(path)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_metrics_json(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Analyzer on synthetic run directories
# ----------------------------------------------------------------------
def make_run_dir(tmp_path, name="run", results=(), events=None, metrics=None,
                 manifest=None):
    run_dir = tmp_path / name
    run_dir.mkdir(parents=True, exist_ok=True)
    with (run_dir / analyze.RESULTS_NAME).open("w", encoding="utf-8") as handle:
        for row in results:
            handle.write(json.dumps(row) + "\n")
    if events is not None:
        with (run_dir / analyze.EVENTS_NAME).open("w", encoding="utf-8") as handle:
            for row in events:
                handle.write(json.dumps(row) + "\n")
    if metrics is not None:
        write_metrics_json(metrics, run_dir / analyze.METRICS_NAME)
    if manifest is not None:
        (run_dir / analyze.MANIFEST_NAME).write_text(
            json.dumps(manifest), encoding="utf-8"
        )
    return run_dir


RESULT_ROWS = [
    {"unit_id": "u-0", "status": "ok", "elapsed_s": 0.1, "attempts": 1},
    {"unit_id": "u-1", "status": "failed", "elapsed_s": 0.4, "attempts": 2,
     "error": {"type": "ValueError"}},
    {"unit_id": "u-2", "status": "failed", "elapsed_s": 0.2, "attempts": 2,
     "error": {"type": "KeyError"}},
    # Resume re-records u-1; the later row wins.
    {"unit_id": "u-1", "status": "ok", "elapsed_s": 0.3, "attempts": 1},
]

EVENT_ROWS = [
    {"event": "runner.start", "ts": 10.0, "seq": 0},
    {"event": "profiler.iteration", "ts": 10.2, "seq": 1, "chip_id": 0,
     "new_cells": 5},
    {"event": "profiler.iteration", "ts": 10.6, "seq": 2, "chip_id": 0,
     "new_cells": 2},
    {"event": "span", "name": "profiler.run", "ts": 10.9, "elapsed_s": 0.7,
     "seq": 3, "unit_id": "u-0"},
    {"event": "runner.unit", "ts": 11.0, "seq": 4, "unit_id": "u-0"},
    {"event": "runner.unit", "ts": 12.0, "seq": 5, "unit_id": "u-1"},
    {"event": "runner.unit", "ts": 13.0, "seq": 6, "unit_id": "u-2"},
]


class TestAnalyzer:
    def test_load_requires_results(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigurationError, match="not a run directory"):
            analyze.load_run(tmp_path / "empty")

    def test_later_rows_win_and_rerecords_counted(self, tmp_path):
        run = analyze.load_run(make_run_dir(tmp_path, results=RESULT_ROWS))
        assert len(run.result_rows) == 4
        assert len(run.results) == 3
        assert run.results["u-1"]["status"] == "ok"
        # u-1 recovered on resume; only u-2 is still failed.
        assert analyze.failure_breakdown(run) == {"KeyError": ["u-2"]}

    def test_torn_lines_skipped_and_reported(self, tmp_path):
        run_dir = make_run_dir(tmp_path, results=RESULT_ROWS)
        with (run_dir / analyze.RESULTS_NAME).open("a", encoding="utf-8") as handle:
            handle.write('{"unit_id": "u-9", "status"')  # torn tail
        run = analyze.load_run(run_dir)
        assert run.skipped_lines == 1
        assert "u-9" not in run.results
        assert "skipped 1 unparseable" in analyze.summarize_run(run)

    def test_percentile_exact_interpolation(self):
        assert analyze.percentile([], 0.5) is None
        assert analyze.percentile([3.0], 0.95) == 3.0
        assert analyze.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert analyze.percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_latency_throughput_timeline_views(self, tmp_path):
        run = analyze.load_run(
            make_run_dir(tmp_path, results=RESULT_ROWS, events=EVENT_ROWS)
        )
        stats = analyze.unit_latency_stats(run)
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx((0.1 + 0.3 + 0.2) / 3)
        assert stats["max"] == pytest.approx(0.3)
        # 3 runner.unit events in the 3 s from runner.start to the last.
        assert analyze.throughput_units_per_s(run) == pytest.approx(1.0)
        (timeline,) = analyze.chip_timelines(run)
        assert timeline["chip_id"] == 0
        assert timeline["iterations"] == 2
        assert timeline["new_cells"] == 7
        (slowest,) = analyze.slowest_spans(run, top=1)
        assert slowest["name"] == "profiler.run"

    def test_throughput_counts_from_runner_start(self, tmp_path):
        # A multi-chip unit logs its rows in one burst: 300 units logged
        # at 1 s after the start read 300 units/s.
        events = [{"event": "runner.start", "ts": 0.0, "seq": 0}] + [
            {"event": "runner.unit", "ts": 1.0, "seq": i + 1, "unit_id": f"u-{i}"}
            for i in range(300)
        ]
        run = analyze.load_run(make_run_dir(tmp_path, events=events))
        assert analyze.throughput_units_per_s(run) == pytest.approx(300.0)

    def test_throughput_sums_the_segments_of_a_resumed_run(self, tmp_path):
        # 2 units in 4 s, then a resume: 4 units in 1 s -> 6 units / 5 s.
        events = [
            {"event": "runner.start", "ts": 0.0},
            {"event": "runner.unit", "ts": 2.0},
            {"event": "runner.unit", "ts": 4.0},
            {"event": "runner.start", "ts": 100.0},
        ] + [{"event": "runner.unit", "ts": 101.0}] * 4
        run = analyze.load_run(make_run_dir(tmp_path, events=events))
        assert analyze.throughput_units_per_s(run) == pytest.approx(6 / 5)
        no_units = [{"event": "runner.start", "ts": 0.0}]
        run = analyze.load_run(make_run_dir(tmp_path, "idle", events=no_units))
        assert analyze.throughput_units_per_s(run) is None

    def test_summary_text(self, tmp_path):
        run = analyze.load_run(
            make_run_dir(
                tmp_path,
                results=RESULT_ROWS,
                events=EVENT_ROWS,
                metrics=sample_snapshot(),
                manifest={"fingerprint": "a" * 32, "kind": "campaign",
                          "n_units": 3},
            )
        )
        text = analyze.summarize_run(run)
        assert "3 recorded | 2 ok | 1 failed" in text
        assert "1 re-recorded across resumes" in text
        assert "unit latency" in text and "p95" in text
        assert "KeyError: 1 units (u-2)" in text
        assert "chip timeline (1 chips)" in text
        assert "series in metrics.json" in text

    def test_summary_without_telemetry_files(self, tmp_path):
        run = analyze.load_run(make_run_dir(tmp_path, results=RESULT_ROWS))
        text = analyze.summarize_run(run)
        assert "no metrics.json" in text

    def test_compare_runs(self, tmp_path):
        manifest = {"fingerprint": "a" * 32}
        run_a = analyze.load_run(
            make_run_dir(tmp_path, "a", results=RESULT_ROWS, events=EVENT_ROWS,
                         metrics=sample_snapshot(), manifest=manifest)
        )
        run_b = analyze.load_run(
            make_run_dir(tmp_path, "b", results=RESULT_ROWS, events=EVENT_ROWS,
                         metrics=sample_snapshot(), manifest=manifest)
        )
        text = analyze.compare_runs(run_a, run_b)
        assert "campaign fingerprints: identical" in text
        assert "chip.commands: 10 -> 10 (+0.0%)" in text
        run_c = analyze.load_run(
            make_run_dir(tmp_path, "c", results=RESULT_ROWS,
                         manifest={"fingerprint": "b" * 32})
        )
        assert "DIFFERENT" in analyze.compare_runs(run_a, run_c)

    def test_export_run_errors_guide_the_user(self, tmp_path):
        run = analyze.load_run(make_run_dir(tmp_path, results=RESULT_ROWS))
        with pytest.raises(ConfigurationError, match="--metrics"):
            analyze.export_run(run, "prometheus")
        with pytest.raises(ConfigurationError, match="--metrics"):
            analyze.export_run(run, "chrome-trace")
        with pytest.raises(ConfigurationError, match="unknown export format"):
            analyze.export_run(run, "csv")
        # HTML degrades gracefully without telemetry files.
        name, content = analyze.export_run(run, "html")
        assert name == "summary.html"
        assert "No metrics.json recorded" in content


# ----------------------------------------------------------------------
# CLI on a real checkpoint/resume run directory
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def resumed_run_dir(tmp_path_factory):
    """A run dir produced with --metrics, interrupted and resumed."""
    run_dir = tmp_path_factory.mktemp("obs-cli") / "run"
    campaign = CharacterizationCampaign(
        chips_per_vendor=1, geometry=TINY_GEOMETRY, iterations=1, seed=42
    )
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        campaign.run(run_dir=str(run_dir), **CAMPAIGN_KW)
        # Resume: everything is satisfied, but the engine still appends a
        # fresh runner.start/finish pair and re-stamps metrics.json.
        campaign.run(run_dir=str(run_dir), resume=True, **CAMPAIGN_KW)
    finally:
        obs.disable()
        obs.reset()
    return run_dir


class TestObsCli:
    def test_event_log_spans_the_resume(self, resumed_run_dir):
        rows = [
            json.loads(line)
            for line in (resumed_run_dir / analyze.EVENTS_NAME)
            .read_text()
            .splitlines()
        ]
        starts = [r for r in rows if r["event"] == "runner.start"]
        assert len(starts) == 2
        assert starts[1]["skipped"] == 3  # second attach resumed everything
        seqs = [r["seq"] for r in rows]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_summary(self, resumed_run_dir, capsys):
        assert main(["obs", str(resumed_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "3 recorded | 3 ok" in out
        assert "series in metrics.json" in out

    def test_export_prometheus(self, resumed_run_dir, capsys):
        assert main(["obs", str(resumed_run_dir), "--export", "prometheus"]) == 0
        out_path = resumed_run_dir / "metrics.prom"
        assert str(out_path) in capsys.readouterr().out
        text = out_path.read_text(encoding="utf-8")
        assert check_promtext(text) > 0
        assert "chip_commands_total" in text

    def test_export_chrome_trace(self, resumed_run_dir, capsys):
        assert main(["obs", str(resumed_run_dir), "--export", "chrome-trace"]) == 0
        capsys.readouterr()
        trace = json.loads(
            (resumed_run_dir / "trace.json").read_text(encoding="utf-8")
        )
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "runner.run" in names  # the engine's top-level span
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_export_html_to_custom_path(self, resumed_run_dir, tmp_path, capsys):
        out = tmp_path / "report" / "summary.html"
        assert main(
            ["obs", str(resumed_run_dir), "--export", "html", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert "<h1>Run summary</h1>" in out.read_text(encoding="utf-8")

    def test_compare(self, resumed_run_dir, capsys):
        assert main(
            ["obs", "--compare", str(resumed_run_dir), str(resumed_run_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "run comparison" in out
        assert "campaign fingerprints: identical" in out

    def test_no_run_dir_is_a_usage_error(self, capsys):
        assert main(["obs"]) == 2
        assert "pass a run directory" in capsys.readouterr().err
