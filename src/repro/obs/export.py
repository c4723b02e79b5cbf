"""Exporters: turn recorded telemetry into standard interchange formats.

Three consumers of the observability layer's data, all pure functions of
already-recorded state (exporting can never perturb a run):

``to_openmetrics``
    Prometheus / OpenMetrics text exposition of a metrics snapshot
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` rows).  Counters
    render as ``<name>_total``, histograms as cumulative ``_bucket`` series
    plus ``_sum``/``_count``, and metric/label names are sanitized to the
    Prometheus grammar.
``to_chrome_trace``
    Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``)
    rendered from event-log rows: ``span`` events become complete ("X")
    slices on one lane per work unit, everything else becomes instant
    events, and worker-side timestamps are preserved so the trace shows
    the real cross-process concurrency of a campaign.
``write_metrics_json`` / ``load_metrics_json``
    The durable ``metrics.json`` the runner engine drops next to
    ``results.jsonl`` at run end -- the merged (parent + all workers)
    snapshot, which the offline analyzer and the Prometheus export read
    back.
"""

from __future__ import annotations

import os
import pathlib
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..jsonfiles import read_json, write_json

#: Schema stamp inside ``metrics.json`` so future readers can dispatch.
METRICS_JSON_SCHEMA = 1

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def prometheus_name(name: str) -> str:
    """Sanitize a metric name (``chip.commands`` -> ``chip_commands``)."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not sanitized or not _NAME_OK.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _label_name(name: str) -> str:
    sanitized = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    if not sanitized or not _LABEL_OK.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _label_value(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, Any], extra: Optional[Mapping[str, str]] = None) -> str:
    pairs = [(_label_name(k), _label_value(v)) for k, v in sorted(labels.items())]
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _number(value: Any) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_openmetrics(snapshot: Sequence[Mapping[str, Any]]) -> str:
    """Render snapshot rows as Prometheus/OpenMetrics text exposition.

    The snapshot's deterministic (name, labels) ordering carries straight
    through, so equal snapshots produce byte-equal expositions.  The
    output ends with the OpenMetrics ``# EOF`` terminator, which
    Prometheus' classic text parser also tolerates.
    """
    lines: List[str] = []
    typed: set = set()
    for row in snapshot:
        kind = row["kind"]
        name = prometheus_name(row["name"])
        labels = row.get("labels", {})
        if kind == "counter":
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}_total{_labels_text(labels)} {_number(row['value'])}")
        elif kind == "gauge":
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_labels_text(labels)} {_number(row['value'])}")
        elif kind == "histogram":
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} histogram")
            bounds = row.get("bucket_le") or []
            buckets = row.get("buckets") or []
            cumulative = 0
            for bound, count in zip(bounds, buckets):
                cumulative += int(count)
                lines.append(
                    f"{name}_bucket"
                    f"{_labels_text(labels, extra={'le': _number(bound)})} {cumulative}"
                )
            lines.append(
                f"{name}_bucket{_labels_text(labels, extra={'le': '+Inf'})} "
                f"{int(row['count'])}"
            )
            lines.append(f"{name}_sum{_labels_text(labels)} {_number(row['total'])}")
            lines.append(f"{name}_count{_labels_text(labels)} {int(row['count'])}")
        else:
            raise ConfigurationError(f"cannot export unknown metric kind {kind!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


#: Synthetic process id of the coordinating (parent) process in Chrome
#: traces; worker processes get 2, 3, ... in order of first appearance.
_PARENT_PID = 1


def to_chrome_trace(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Render event-log rows as a Chrome trace-event JSON object.

    ``span`` rows (as emitted by :class:`~repro.obs.tracing.Tracer`) carry
    their *end* wall-clock ``ts`` and ``elapsed_s``; they become complete
    ("X") slices starting at ``ts - elapsed_s``.  Every other row becomes
    an instant ("i") event.

    Lanes mirror the real process topology: rows that carry a
    ``worker_pid`` (stamped by the engine's telemetry replay) land on a
    synthetic per-worker ``pid`` lane -- one process group per pool
    worker, labelled ``worker <os pid>`` -- while parent-side rows stay on
    the coordinator's lane (pid 1).  Within each process group, rows are
    laid out on one thread lane per work unit (``unit_id``), with
    runner-level rows on the ``run`` lane.  Trace-context ids
    (``trace_id`` / ``span_id`` / ``parent_id``) ride through into each
    event's ``args`` untouched, so a correlated tree can be reconstructed
    from the exported file alone.  All timestamps are rebased to the
    earliest start so the trace opens at t=0.  Load the result in
    Perfetto or ``chrome://tracing``.
    """
    rows = [dict(row) for row in events if row.get("event")]
    starts: List[float] = []
    for row in rows:
        ts = float(row.get("ts", 0.0))
        if row["event"] == "span":
            ts -= float(row.get("elapsed_s", 0.0))
        starts.append(ts)
    base = min(starts) if starts else 0.0

    pids: Dict[Any, int] = {}
    lanes: Dict[tuple, int] = {}
    trace_events: List[Dict[str, Any]] = []

    def process(row: Mapping[str, Any]) -> int:
        worker_pid = row.get("worker_pid")
        if worker_pid is None:
            return _PARENT_PID
        if worker_pid not in pids:
            pids[worker_pid] = _PARENT_PID + 1 + len(pids)
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[worker_pid],
                    "tid": 0,
                    "args": {"name": f"worker {worker_pid}"},
                }
            )
        return pids[worker_pid]

    def lane(pid: int, row: Mapping[str, Any]) -> int:
        key = (pid, str(row.get("unit_id", "run")))
        if key not in lanes:
            lanes[key] = len(lanes)
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": lanes[key],
                    "args": {"name": key[1]},
                }
            )
        return lanes[key]

    for row, start in sorted(
        zip(rows, starts), key=lambda pair: (pair[1], str(pair[0].get("event")))
    ):
        args = {
            k: v
            for k, v in row.items()
            if k not in ("event", "ts", "seq", "name", "elapsed_s")
        }
        pid = process(row)
        if row["event"] == "span":
            trace_events.append(
                {
                    "name": str(row.get("name", "span")),
                    "cat": "span",
                    "ph": "X",
                    "ts": (start - base) * 1e6,
                    "dur": float(row.get("elapsed_s", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": lane(pid, row),
                    "args": args,
                }
            )
        else:
            trace_events.append(
                {
                    "name": str(row["event"]),
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": (start - base) * 1e6,
                    "pid": pid,
                    "tid": lane(pid, row),
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_metrics_json(
    snapshot: Sequence[Mapping[str, Any]],
    path: Union[str, os.PathLike],
    meta: Optional[Mapping[str, Any]] = None,
) -> pathlib.Path:
    """Write a snapshot as ``metrics.json`` (:func:`~repro.jsonfiles.write_json`)."""
    payload = {
        "schema": METRICS_JSON_SCHEMA,
        "meta": dict(meta) if meta else {},
        "series": [dict(row) for row in snapshot],
    }
    return write_json(path, payload)


def load_metrics_json(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read a ``metrics.json`` back; refuses corruption with a clear error.

    A schema-version mismatch is refused with guidance (rather than a
    downstream ``KeyError``): snapshots written by a different tool
    version must be regenerated, not half-parsed.
    """
    try:
        payload = read_json(path)
    except ConfigurationError as exc:
        raise ConfigurationError(f"cannot read metrics snapshot: {exc}") from exc
    if "series" not in payload:
        raise ConfigurationError(f"{path} does not hold a metrics snapshot")
    schema = payload.get("schema")
    if schema != METRICS_JSON_SCHEMA:
        raise ConfigurationError(
            f"{path} has metrics.json schema {schema!r}, this version reads "
            f"schema {METRICS_JSON_SCHEMA}; re-run the campaign with "
            "--metrics (or `python -m repro serve`) to regenerate it"
        )
    return payload
