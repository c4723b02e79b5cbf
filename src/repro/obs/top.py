"""``python -m repro top``: a live terminal dashboard for the service.

Stdlib-only (ANSI escapes, no curses dependency beyond a terminal that
understands ``ESC[2J``): polls the service's ``/v1/healthz``,
``/v1/jobs``, ``/v1/jobs/{id}/metrics``, and ``/metrics`` endpoints and
redraws one composite frame per interval --

* service header: queue depth, running jobs, pool saturation, ledger lag;
* per-tenant job table: state, progress and throughput from the job
  record's ``progress`` (the engine's tracker), live p50/p99 unit
  latency from the per-job metrics (the job's registry);
* kernel-phase breakdown: mean duration and call count of the
  megakernel's ``span.kernel.*`` phase histograms, aggregated across
  every running (and completed) job from the OpenMetrics exposition;
* request table: per-route request counts and mean latency.

Everything below :func:`run_top` is a pure function of fetched payloads,
so tests render frames without a terminal; ``--once`` prints a single
frame and exits (the scriptable / CI mode).
"""

from __future__ import annotations

import re
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple

__all__ = ["parse_openmetrics", "render_frame", "run_top"]

#: One exposition sample: ``(metric_name, labels, value)``.
Sample = Tuple[str, Dict[str, str], float]

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\S+)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def parse_openmetrics(text: str) -> List[Sample]:
    """Parse a text exposition into samples; tolerant of anything it
    does not understand (comments, ``# EOF``, exotic lines are skipped)."""
    samples: List[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, label_text, raw_value = match.groups()
        try:
            value = float(raw_value)
        except ValueError:
            continue
        labels: Dict[str, str] = {}
        if label_text:
            for pair in _LABEL_RE.finditer(label_text):
                labels[pair.group(1)] = (
                    pair.group(2)
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
        samples.append((name, labels, value))
    return samples


def _histogram_means(
    samples: Sequence[Sample], prefix: str, label: Optional[str] = None
) -> List[Tuple[str, int, float]]:
    """``(key, count, mean_seconds)`` rows for every ``<prefix>*`` histogram,
    keyed by the name remainder (or by ``label``'s value when given)."""
    sums: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for name, labels, value in samples:
        if not name.startswith(prefix):
            continue
        if name.endswith("_sum"):
            table, key = sums, name[len(prefix) : -len("_sum")]
        elif name.endswith("_count"):
            table, key = counts, name[len(prefix) : -len("_count")]
        else:
            continue
        if label is not None:
            key = labels.get(label, key)
        table[key] = table.get(key, 0.0) + value
    rows: List[Tuple[str, int, float]] = []
    for key in sorted(counts):
        count = counts[key]
        mean = (sums.get(key, 0.0) / count) if count else 0.0
        rows.append((key, int(count), mean))
    return rows


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_frame(
    health: Mapping[str, Any],
    jobs: Sequence[Mapping[str, Any]],
    job_metrics: Mapping[str, Mapping[str, Any]],
    samples: Sequence[Sample],
    now: Optional[float] = None,
    color: bool = False,
) -> str:
    """One dashboard frame as plain text (pure function of the payloads)."""
    bold, reset = (_BOLD, _RESET) if color else ("", "")
    pool = health.get("pool") or {}
    lag = health.get("ledger_lag_s")
    lines = [
        f"{bold}repro top{reset} - status {health.get('status', '?')}"
        + (f" - {time.strftime('%H:%M:%S', time.localtime(now))}" if now else ""),
        (
            f"queued {health.get('queued', 0)}  running {health.get('running', 0)}  "
            f"pool {pool.get('workers_busy', 0)}/{pool.get('workers_total', 0)}  "
            f"ledger lag {_fmt_seconds(lag)}"
        ),
        "",
        f"{bold}{'TENANT':<12} {'JOB':<12} {'STATE':<12} {'PROGRESS':<12} "
        f"{'UNITS/S':>8} {'P50':>8} {'P99':>8}{reset}",
    ]
    for record in sorted(jobs, key=lambda r: (r.get("tenant", ""), r.get("job_id", ""))):
        job_id = str(record.get("job_id", "?"))
        progress = record.get("progress") or {}
        done = progress.get("completed")
        total = progress.get("total")
        progress_text = f"{done}/{total}" if done is not None else "-"
        rate = progress.get("throughput_units_per_s")
        rates = (job_metrics.get(job_id) or {}).get("rates") or {}
        lines.append(
            f"{str(record.get('tenant', '?')):<12} {job_id:<12} "
            f"{str(record.get('state', '?')):<12} {progress_text:<12} "
            f"{(f'{rate:.2f}' if rate is not None else '-'):>8} "
            f"{_fmt_seconds(rates.get('unit_p50_s')):>8} "
            f"{_fmt_seconds(rates.get('unit_p99_s')):>8}"
        )
    if not jobs:
        lines.append("(no jobs)")
    phases = _histogram_means(samples, "span_kernel_")
    if phases:
        lines += ["", f"{bold}{'KERNEL PHASE':<20} {'CALLS':>8} {'MEAN':>10}{reset}"]
        for phase, count, mean in phases:
            lines.append(f"{phase:<20} {count:>8} {_fmt_seconds(mean):>10}")
    requests = _histogram_means(samples, "service_request_seconds", label="route")
    if requests:
        lines += ["", f"{bold}{'ROUTE':<28} {'REQS':>8} {'MEAN':>10}{reset}"]
        for route, count, mean in requests:
            lines.append(f"{route:<28} {count:>8} {_fmt_seconds(mean):>10}")
    return "\n".join(lines) + "\n"


def _fetch_frame(client) -> str:
    health = client.healthz()
    jobs = client.jobs()
    live: Dict[str, Mapping[str, Any]] = {}
    for record in jobs:
        if record.get("state") == "running":
            try:
                live[str(record["job_id"])] = client.job_metrics(record["job_id"])
            except Exception:  # noqa: BLE001 - job may finish mid-poll
                continue
    samples = parse_openmetrics(client.metrics_text())
    return render_frame(health, jobs, live, samples, now=time.time(), color=True)


def run_top(
    host: str = "127.0.0.1",
    port: int = 8787,
    interval_s: float = 1.0,
    once: bool = False,
    stream: Optional[TextIO] = None,
) -> int:
    """Poll the service and redraw until interrupted (0 on clean exit)."""
    from ..service.client import ServiceClient

    out = stream if stream is not None else sys.stdout
    client = ServiceClient(host, port)
    while True:
        try:
            frame = _fetch_frame(client)
        except Exception as exc:  # noqa: BLE001 - keep polling
            if once:
                print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
                return 1
            frame = f"repro top - waiting for {host}:{port} ({exc})\n"
        if once:
            out.write(frame)
            return 0
        out.write(_CLEAR + frame)
        out.flush()
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
