"""Offline run-directory analyzer: make recorded telemetry usable.

The consumer half of cross-process telemetry (``python -m repro obs``).
Where the live layer records, this module *reads*: given a run directory
produced by the runner engine --

::

    <run_dir>/
        manifest.json    # campaign fingerprint + configuration
        results.jsonl    # one UnitResult row per completion (append-only)
        events.jsonl     # run event log (spans, unit rows, iterations)
        metrics.json     # merged metric snapshot written at run end

-- it produces a run summary (unit throughput and latency percentiles,
retry and failure breakdown, slowest spans, per-chip profiling timeline),
run-over-run comparison for regression checks, and Prometheus /
Chrome-trace / HTML exports.

Everything here is tolerant of partial runs: ``events.jsonl`` and
``metrics.json`` only exist when the run recorded with ``--metrics``,
lines that are not JSON objects are skipped and counted, and resumed runs
-- which append a second ``runner.start`` and re-record units whose
earlier row was ``failed`` -- analyze with later-row-wins semantics,
exactly like the result store's resume path.
"""

from __future__ import annotations

import html as html_mod
import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..jsonfiles import JsonlRows, read_json
from ..runner.store import EVENTS_NAME, MANIFEST_NAME, METRICS_NAME, RESULTS_NAME
from .export import load_metrics_json, to_chrome_trace, to_openmetrics

#: ``--export`` format -> default output file name inside the run dir.
EXPORT_FORMATS = {
    "prometheus": "metrics.prom",
    "chrome-trace": "trace.json",
    "html": "summary.html",
}


@dataclass
class RunData:
    """Everything read back from one run directory."""

    run_dir: pathlib.Path
    manifest: Dict[str, Any] = field(default_factory=dict)
    #: Raw result rows in append order (re-recorded units appear twice).
    result_rows: List[Dict[str, Any]] = field(default_factory=list)
    #: unit_id -> final row (later rows win, matching resume semantics).
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Parsed ``metrics.json`` payload, or ``None`` when the run did not
    #: record metrics.
    metrics: Optional[Dict[str, Any]] = None
    #: Unparseable JSONL lines skipped while loading (crash artifacts).
    skipped_lines: int = 0


def load_run(run_dir: Union[str, os.PathLike]) -> RunData:
    """Load a run directory for analysis.

    Requires ``results.jsonl`` (the one file every durable run has); the
    manifest, event log, and metric snapshot are picked up when present.
    """
    run_dir = pathlib.Path(run_dir)
    results_path = run_dir / RESULTS_NAME
    if not results_path.exists():
        raise ConfigurationError(
            f"{run_dir} is not a run directory (no {RESULTS_NAME}); point the "
            "analyzer at a --run-dir produced by `python -m repro campaign`"
        )
    run = RunData(run_dir=run_dir)
    results = JsonlRows(results_path)
    run.result_rows = list(results)
    for row in run.result_rows:
        unit_id = str(row.get("unit_id", ""))
        if unit_id:
            run.results[unit_id] = row

    manifest_path = run_dir / MANIFEST_NAME
    if manifest_path.exists():
        try:
            run.manifest = read_json(manifest_path)
        except ConfigurationError:
            run.skipped_lines += 1

    events = JsonlRows(run_dir / EVENTS_NAME)
    run.events = list(events)
    run.skipped_lines += results.skipped + events.skipped

    metrics_path = run_dir / METRICS_NAME
    if metrics_path.exists():
        run.metrics = load_metrics_json(metrics_path)
    return run


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact linear-interpolated percentile of a small sample (q in [0,1])."""
    if not values:
        return None
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 100.0:
        return f"{value:.0f}s"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def _fmt_delta(a: Optional[float], b: Optional[float]) -> str:
    if a is None or b is None:
        return "-"
    if a == 0.0:
        return "-" if b == 0.0 else "+inf"
    # Normalize by |baseline| so the sign always means "b grew" / "b
    # shrank": with a plain ``/ a`` a negative baseline flips the sign
    # (a=-10 -> b=-5 is an increase, but (b-a)/a reads -50%).
    change = (b - a) / abs(a) * 100.0
    return f"{change:+.1f}%"


# ----------------------------------------------------------------------
# Derived views
# ----------------------------------------------------------------------
def unit_latency_stats(run: RunData) -> Dict[str, Optional[float]]:
    """Latency distribution over the final row of every *timed* unit.

    Rows without an ``elapsed_s`` field (hand-written fixtures, foreign
    producers) are excluded and counted under ``untimed`` -- folding them
    in as ``0.0`` would silently drag every percentile and the mean
    toward zero.
    """
    elapsed: List[float] = []
    untimed = 0
    for row in run.results.values():
        value = row.get("elapsed_s")
        if value is None:
            untimed += 1
        else:
            elapsed.append(float(value))
    if not elapsed:
        return {"count": 0, "untimed": untimed}
    return {
        "count": len(elapsed),
        "untimed": untimed,
        "mean": sum(elapsed) / len(elapsed),
        "p50": percentile(elapsed, 0.50),
        "p95": percentile(elapsed, 0.95),
        "p99": percentile(elapsed, 0.99),
        "max": max(elapsed),
    }


def failure_breakdown(run: RunData) -> Dict[str, List[str]]:
    """error type -> sorted unit ids still failed at their final row."""
    breakdown: Dict[str, List[str]] = {}
    for unit_id, row in sorted(run.results.items()):
        if row.get("status") == "failed":
            error = row.get("error") or {}
            breakdown.setdefault(str(error.get("type", "unknown")), []).append(unit_id)
    return breakdown


def throughput_units_per_s(run: RunData) -> Optional[float]:
    """The engine tracker's rate, read back from the log.

    ``runner.unit`` events over the seconds from their ``runner.start`` to
    the last of them, both summed over every start segment of a resumed
    run.  A multi-chip unit logs its chips microseconds apart, so the
    spacing of the events says nothing about the rate; only the time since
    the start does.
    """
    segments: List[List[float]] = []  # [start ts, last unit ts, units]
    for event in run.events:
        if "ts" not in event:
            continue
        if event.get("event") == "runner.start":
            ts = float(event["ts"])
            segments.append([ts, ts, 0])
        elif event.get("event") == "runner.unit" and segments:
            segments[-1][1] = float(event["ts"])
            segments[-1][2] += 1
    units = sum(segment[2] for segment in segments)
    seconds = sum(segment[1] - segment[0] for segment in segments)
    return units / seconds if units and seconds > 0.0 else None


def slowest_spans(run: RunData, top: int = 5) -> List[Dict[str, Any]]:
    spans = [e for e in run.events if e.get("event") == "span" and "elapsed_s" in e]
    spans.sort(key=lambda e: (-float(e["elapsed_s"]), str(e.get("name"))))
    return spans[:top]


def chip_timelines(run: RunData) -> List[Dict[str, Any]]:
    """Per-chip profiling progress from ``profiler.iteration`` events."""
    by_chip: Dict[Any, Dict[str, Any]] = {}
    for event in run.events:
        if event.get("event") != "profiler.iteration":
            continue
        chip = event.get("chip_id")
        entry = by_chip.setdefault(
            chip,
            {"chip_id": chip, "iterations": 0, "new_cells": 0, "first_ts": None, "last_ts": None},
        )
        entry["iterations"] += 1
        entry["new_cells"] += int(event.get("new_cells", 0))
        ts = event.get("ts")
        if ts is not None:
            ts = float(ts)
            entry["first_ts"] = ts if entry["first_ts"] is None else min(entry["first_ts"], ts)
            entry["last_ts"] = ts if entry["last_ts"] is None else max(entry["last_ts"], ts)
    return sorted(by_chip.values(), key=lambda e: (e["chip_id"] is None, e["chip_id"]))


def counter_totals(run: RunData) -> Dict[str, float]:
    """metric name -> total across label sets, for counters in metrics.json."""
    totals: Dict[str, float] = {}
    for row in (run.metrics or {}).get("series", []):
        if row.get("kind") == "counter":
            name = str(row.get("name"))
            totals[name] = totals.get(name, 0.0) + float(row.get("value", 0.0))
    return totals


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def summarize_run(run: RunData, timeline_limit: int = 20) -> str:
    """Render the run summary the ``python -m repro obs <run_dir>`` prints."""
    lines: List[str] = [f"== run summary: {run.run_dir} =="]

    manifest = run.manifest
    if manifest:
        fingerprint = str(manifest.get("fingerprint", ""))[:12]
        lines.append(
            f"campaign     : {manifest.get('kind', 'unknown')}"
            + (f" (fingerprint {fingerprint}...)" if fingerprint else "")
        )
        if "n_units" in manifest:
            lines.append(f"planned      : {manifest['n_units']} units")

    ok = sum(1 for r in run.results.values() if r.get("status") == "ok")
    failed = len(run.results) - ok
    rerecorded = len(run.result_rows) - len(run.results)
    executions = sum(int(r.get("attempts", 1)) for r in run.result_rows)
    retries = executions - len(run.result_rows)
    lines.append(
        f"units        : {len(run.results)} recorded | {ok} ok | {failed} failed"
        + (f" | {rerecorded} re-recorded across resumes" if rerecorded else "")
    )
    lines.append(
        f"attempts     : {executions} executions | {retries} in-worker retries"
    )

    stats = unit_latency_stats(run)
    if stats.get("count"):
        untimed = stats.get("untimed") or 0
        lines.append(
            "unit latency : "
            f"mean {_fmt_seconds(stats['mean'])} | p50 {_fmt_seconds(stats['p50'])} | "
            f"p95 {_fmt_seconds(stats['p95'])} | p99 {_fmt_seconds(stats['p99'])} | "
            f"max {_fmt_seconds(stats['max'])}"
            + (f" | {untimed} untimed rows skipped" if untimed else "")
        )
    rate = throughput_units_per_s(run)
    if rate is not None:
        lines.append(f"throughput   : {rate:.2f} units/s (runner.unit events since runner.start)")

    breakdown = failure_breakdown(run)
    if breakdown:
        lines.append("failures     :")
        for error_type, unit_ids in sorted(breakdown.items()):
            shown = ", ".join(unit_ids[:5]) + (", ..." if len(unit_ids) > 5 else "")
            lines.append(f"  {error_type}: {len(unit_ids)} units ({shown})")

    spans = slowest_spans(run)
    if spans:
        lines.append("slowest spans:")
        for span in spans:
            attrs = [
                f"{k}={span[k]}"
                for k in ("unit_id", "chip_id", "mechanism", "backend")
                if span.get(k) is not None
            ]
            suffix = f" ({', '.join(attrs)})" if attrs else ""
            lines.append(
                f"  {span.get('name')}: {_fmt_seconds(float(span['elapsed_s']))}{suffix}"
            )

    timelines = chip_timelines(run)
    if timelines:
        lines.append(f"chip timeline ({len(timelines)} chips):")
        for entry in timelines[:timeline_limit]:
            window = (
                _fmt_seconds(entry["last_ts"] - entry["first_ts"])
                if entry["first_ts"] is not None and entry["last_ts"] is not None
                else "-"
            )
            lines.append(
                f"  chip {entry['chip_id']}: {entry['iterations']} iterations, "
                f"{entry['new_cells']} cells discovered, {window} window"
            )
        if len(timelines) > timeline_limit:
            lines.append(f"  ... {len(timelines) - timeline_limit} more chips")

    if run.metrics is not None:
        series = run.metrics.get("series", [])
        totals = counter_totals(run)
        highlights = [
            f"{name} {totals[name]:g}"
            for name in ("chip.commands", "profiler.iterations", "runner.units")
            if name in totals
        ]
        lines.append(
            f"metrics      : {len(series)} series in {METRICS_NAME}"
            + (f" ({'; '.join(highlights)})" if highlights else "")
        )
    else:
        lines.append(
            f"metrics      : no {METRICS_NAME} (run with --metrics to record one)"
        )
    if run.skipped_lines:
        lines.append(f"warnings     : skipped {run.skipped_lines} unparseable lines")
    return "\n".join(lines)


def _run_labels(count: int) -> List[str]:
    """Short run labels: A, B, C, ... then R26, R27, ... past the alphabet."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [alphabet[i] if i < len(alphabet) else f"R{i}" for i in range(count)]


def compare_runs(run_a: RunData, run_b: RunData, *more: RunData) -> str:
    """Run-over-run comparison for regression checks (A = baseline).

    Accepts any number of runs beyond the first two; every delta is
    reported against run A, so a longitudinal sweep reads as "how far has
    each later round drifted from the baseline round".  With exactly two
    runs the output is the classic A-vs-B report.
    """
    runs = [run_a, run_b, *more]
    labels = _run_labels(len(runs))
    lines = ["== run comparison =="]
    lines.extend(f"{label}: {run.run_dir}" for label, run in zip(labels, runs))

    fingerprints = [str(run.manifest.get("fingerprint", "")) for run in runs]
    if all(fingerprints):
        verdict = "identical" if len(set(fingerprints)) == 1 else "DIFFERENT"
        lines.append(f"campaign fingerprints: {verdict}")

    ok_counts = [
        sum(1 for r in run.results.values() if r.get("status") == "ok")
        for run in runs
    ]
    lines.append(
        "units ok     : "
        + " | ".join(
            f"{label} {ok}/{len(run.results)}"
            for label, ok, run in zip(labels, ok_counts, runs)
        )
    )

    stats = [unit_latency_stats(run) for run in runs]
    if all(s.get("count") for s in stats):
        lines.append(f"unit latency : {' -> '.join(labels)} (delta)")
        for key in ("mean", "p50", "p95", "p99", "max"):
            values = [s[key] for s in stats]
            deltas = ", ".join(_fmt_delta(values[0], v) for v in values[1:])
            lines.append(
                f"  {key:<4}: {' -> '.join(_fmt_seconds(v) for v in values)} "
                f"({deltas})"
            )
    rates = [throughput_units_per_s(run) for run in runs]
    if all(rate is not None for rate in rates):
        deltas = ", ".join(_fmt_delta(rates[0], rate) for rate in rates[1:])
        lines.append(
            f"throughput   : {' -> '.join(f'{rate:.2f}' for rate in rates)} "
            f"units/s ({deltas})"
        )

    totals = [counter_totals(run) for run in runs]
    shared = sorted(set.intersection(*(set(t) for t in totals)))
    if shared:
        lines.append(f"counters     : {' -> '.join(labels)} (delta)")
        for name in shared:
            values = [t[name] for t in totals]
            deltas = ", ".join(_fmt_delta(values[0], v) for v in values[1:])
            lines.append(
                f"  {name}: {' -> '.join(f'{v:g}' for v in values)} ({deltas})"
            )
    for label, own in zip(labels, totals):
        others = set().union(*(set(t) for t in totals if t is not own))
        only = sorted(set(own) - others)
        if only:
            lines.append(f"counters only in {label}: {', '.join(only)}")
    return "\n".join(lines)


def _fmt_series_number(value: Any) -> str:
    """``%g`` for numbers, ``-`` for a missing field in a partial series.

    A hand-edited or truncated ``metrics.json`` can carry series rows
    without ``value``/``total``; the HTML export must render them as
    gaps, not crash on ``f"{None:g}"``.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:g}"
    return "-"


def to_html(run: RunData) -> str:
    """Self-contained HTML rendering of the run summary + metric series."""
    summary = html_mod.escape(summarize_run(run))
    rows: List[str] = []
    for series in (run.metrics or {}).get("series", []):
        labels = ",".join(f"{k}={v}" for k, v in sorted(series.get("labels", {}).items()))
        if series.get("kind") == "histogram":
            value = (
                f"count={series.get('count')} "
                f"total={_fmt_series_number(series.get('total'))} "
                f"p50={series.get('p50')} p95={series.get('p95')} p99={series.get('p99')}"
            )
        else:
            value = _fmt_series_number(series.get("value"))
        rows.append(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>".format(
                html_mod.escape(str(series.get("kind"))),
                html_mod.escape(str(series.get("name"))),
                html_mod.escape(labels or "-"),
                html_mod.escape(value),
            )
        )
    metrics_table = (
        "<table><thead><tr><th>kind</th><th>name</th><th>labels</th>"
        "<th>value</th></tr></thead><tbody>" + "\n".join(rows) + "</tbody></table>"
        if rows
        else "<p>No metrics.json recorded for this run.</p>"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro run summary: {html_mod.escape(str(run.run_dir))}</title>
<style>
body {{ font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem; }}
pre {{ background: #f6f8fa; padding: 1rem; border-radius: 6px; }}
table {{ border-collapse: collapse; margin-top: 1rem; }}
th, td {{ border: 1px solid #d0d7de; padding: 0.25rem 0.6rem; text-align: left; }}
th {{ background: #f6f8fa; }}
</style>
</head>
<body>
<h1>Run summary</h1>
<pre>{summary}</pre>
<h2>Metric series</h2>
{metrics_table}
</body>
</html>
"""


def comparison_html(runs: Sequence[RunData]) -> str:
    """Self-contained HTML rendering of an N-run comparison.

    The text report from :func:`compare_runs` is embedded verbatim, and
    the shared counters get a proper table -- one column per run plus a
    delta-vs-baseline column -- so a longitudinal sweep across many
    compacted rounds reads at a glance.
    """
    if len(runs) < 2:
        raise ConfigurationError("comparison_html needs at least two runs")
    labels = _run_labels(len(runs))
    report = html_mod.escape(compare_runs(runs[0], runs[1], *runs[2:]))
    totals = [counter_totals(run) for run in runs]
    names = sorted(set().union(*(set(t) for t in totals)))
    rows: List[str] = []
    for name in names:
        values = [t.get(name) for t in totals]
        cells = "".join(
            f"<td>{html_mod.escape(_fmt_series_number(v))}</td>" for v in values
        )
        delta = _fmt_delta(values[0], values[-1])
        rows.append(
            f"<tr><td>{html_mod.escape(name)}</td>{cells}"
            f"<td>{html_mod.escape(delta)}</td></tr>"
        )
    header = "".join(f"<th>{label}</th>" for label in labels)
    counters_table = (
        f"<table><thead><tr><th>counter</th>{header}"
        f"<th>{labels[0]}&rarr;{labels[-1]}</th></tr></thead><tbody>"
        + "\n".join(rows)
        + "</tbody></table>"
        if rows
        else "<p>No shared counters recorded across these runs.</p>"
    )
    run_list = "".join(
        f"<li><code>{html_mod.escape(label)}</code>: "
        f"{html_mod.escape(str(run.run_dir))}</li>"
        for label, run in zip(labels, runs)
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro run comparison ({len(runs)} runs)</title>
<style>
body {{ font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem; }}
pre {{ background: #f6f8fa; padding: 1rem; border-radius: 6px; }}
table {{ border-collapse: collapse; margin-top: 1rem; }}
th, td {{ border: 1px solid #d0d7de; padding: 0.25rem 0.6rem; text-align: left; }}
th {{ background: #f6f8fa; }}
</style>
</head>
<body>
<h1>Run comparison</h1>
<ul>{run_list}</ul>
<pre>{report}</pre>
<h2>Counters</h2>
{counters_table}
</body>
</html>
"""


def export_run(run: RunData, fmt: str) -> Tuple[str, str]:
    """Produce one export: returns (default file name, file contents)."""
    if fmt == "prometheus":
        if run.metrics is None:
            raise ConfigurationError(
                f"{run.run_dir} has no {METRICS_NAME}; re-run the campaign with "
                "--metrics to record a metric snapshot"
            )
        return EXPORT_FORMATS[fmt], to_openmetrics(run.metrics.get("series", []))
    if fmt == "chrome-trace":
        if not run.events:
            raise ConfigurationError(
                f"{run.run_dir} has no {EVENTS_NAME}; re-run the campaign with "
                "--metrics to record the event log"
            )
        trace = to_chrome_trace(run.events)
        return EXPORT_FORMATS[fmt], json.dumps(trace, indent=2, sort_keys=True) + "\n"
    if fmt == "html":
        return EXPORT_FORMATS[fmt], to_html(run)
    raise ConfigurationError(
        f"unknown export format {fmt!r}; expected one of {', '.join(EXPORT_FORMATS)}"
    )
