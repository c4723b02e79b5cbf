"""Cross-run analytics over the columnar lake.

Two layers live here:

**Canonical summaries** -- :func:`run_summary` reduces one run's final
results to a deterministic JSON object (unit counts, failed ids, per-
vendor failure-count tables in chip order).  :func:`summary_from_run_dir`
derives it by re-parsing the source JSONL; :func:`summary_from_lake`
derives it straight from the columnar arrays (vectorized, no JSON in the
hot path).  The project invariant is that the two are *byte-identical*
(``json.dumps(..., sort_keys=True)``) -- the lake may be faster, never
different.

**Cross-run reports** -- longitudinal failure trends, vendor × condition
contour tables, and profile-longevity drift summaries spanning every
compacted run, the derived artifacts a REAPER-style deployment watches
over months of characterization rounds.  Each report is a plain dict
(``headers``/``rows`` plus a rendered ``text`` table) so it serves JSON
APIs and terminals alike.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..runner.campaign import aggregate_chip_results
from ..runner.store import RESULTS_NAME
from ..runner.units import UnitResult
from .columns import KIND_CODE, VALUE_JSON, RunColumns, _chip_encodable, decode_results
from .store import ResultLake, fold_results_jsonl

#: Version stamp carried by every canonical summary.
SUMMARY_SCHEMA = 1

_KIND_KEYS = {"interval": "interval_failures", "temperature": "temperature_failures"}


# ----------------------------------------------------------------------
# Canonical per-run summaries (the byte-identity surface)
# ----------------------------------------------------------------------
def run_summary(results: Mapping[str, UnitResult]) -> Dict[str, Any]:
    """Reduce one run's final results to the canonical summary object.

    Results are consumed in sorted ``unit_id`` order so the summary is
    independent of completion order, and the count tables inherit
    :func:`aggregate_chip_results`' chip-ascending ordering.  ``ok``
    values that are not chip measurements (foreign work-unit kinds) are
    listed under ``other_ok_units`` instead of entering the tables.
    """
    ordered = [results[uid] for uid in sorted(results)]
    chip_ok = [r for r in ordered if r.ok and _chip_encodable(r.value)]
    other_ok = sorted(
        uid for uid, r in results.items() if r.ok and not _chip_encodable(r.value)
    )
    interval_counts, temperature_counts = aggregate_chip_results(chip_ok)
    vendors: Dict[str, Any] = {}
    for vendor in sorted(set(interval_counts) | set(temperature_counts)):
        vendors[vendor] = {
            "interval_failures": {
                repr(cond): counts
                for cond, counts in sorted(interval_counts.get(vendor, {}).items())
            },
            "temperature_failures": {
                repr(cond): counts
                for cond, counts in sorted(temperature_counts.get(vendor, {}).items())
            },
        }
    failed = sorted(uid for uid, r in results.items() if not r.ok)
    return {
        "schema": SUMMARY_SCHEMA,
        "units": len(results),
        "ok": len(results) - len(failed),
        "failed": len(failed),
        "failed_units": failed,
        "other_ok_units": other_ok,
        "vendors": vendors,
    }


def summary_from_run_dir(run_dir) -> Dict[str, Any]:
    """Canonical summary straight from a run directory's ``results.jsonl``."""
    rows, _, _ = fold_results_jsonl(pathlib.Path(run_dir) / RESULTS_NAME)
    return run_summary(
        {uid: UnitResult.from_json_dict(row) for uid, row in rows.items()}
    )


def summary_from_lake(lake: ResultLake, run_id: str) -> Dict[str, Any]:
    """Canonical summary from the columnar segment, vectorized.

    Byte-identical to :func:`summary_from_run_dir` over the same logical
    run.  Falls back to the exact row-reconstruction path when the run
    carries non-chip-shaped ``ok`` values -- correctness never depends on
    the fast path applying.
    """
    cols = lake.columns(run_id)
    ok_mask = cols.status == 0
    if bool(np.any((cols.value_kind == VALUE_JSON) & ok_mask)):
        return run_summary(decode_results(cols))

    failed = sorted(cols.unit_id[~ok_mask].tolist())
    vendors: Dict[str, Any] = {
        str(v): {"interval_failures": {}, "temperature_failures": {}}
        for v in cols.vendors.tolist()
    }
    if cols.n_observations:
        # aggregate_chip_results orders chips by ascending chip_id with a
        # stable sort over unit_id order -- exactly reproduced here: the
        # segment stores units (and their observation rows) unit_id-sorted,
        # and the stable argsort below reorders observation rows by chip.
        order = np.argsort(cols.obs_chip_id(), kind="stable")
        vend = cols.obs_vendor_idx()[order]
        kind = cols.obs_kind[order]
        cond = cols.obs_condition[order]
        fail = cols.obs_failures[order].astype(np.int64)
        for vendor_index, vendor in enumerate(cols.vendors.tolist()):
            tables = vendors[str(vendor)]
            vendor_mask = vend == vendor_index
            for kind_name, key in _KIND_KEYS.items():
                mask = vendor_mask & (kind == KIND_CODE[kind_name])
                conds = cond[mask]
                counts = fail[mask]
                tables[key] = {
                    repr(float(c)): counts[conds == c].tolist()
                    for c in np.unique(conds).tolist()
                }
    # The aggregate path only materializes a vendor once it sees at least
    # one failure pair, so a vendor whose chips all reported empty lists
    # (or whose units all failed) must not appear here either.
    if cols.n_observations:
        seen = set(cols.vendors[np.unique(cols.obs_vendor_idx())].tolist())
    else:
        seen = set()
    vendors = {v: t for v, t in sorted(vendors.items()) if v in seen}
    n_units = cols.n_units
    return {
        "schema": SUMMARY_SCHEMA,
        "units": n_units,
        "ok": n_units - len(failed),
        "failed": len(failed),
        "failed_units": [str(u) for u in failed],
        # The fast path only applies when every ok value is chip-encoded.
        "other_ok_units": [],
        "vendors": vendors,
    }


# ----------------------------------------------------------------------
# Cross-run reports
# ----------------------------------------------------------------------
def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table (right-aligned numbers, left-aligned text)."""
    rendered = [[_cell(x) for x in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rendered)) if rendered else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells, pad=" "):
        return "  ".join(str(c).ljust(w, pad) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line([""] * len(headers), pad="-")]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _selected_runs(lake: ResultLake, run_ids: Optional[Sequence[str]]) -> List[str]:
    known = lake.run_ids()
    if run_ids is None:
        return known
    missing = sorted(set(run_ids) - set(known))
    if missing:
        raise ConfigurationError(
            f"runs not in the lake: {', '.join(missing)} "
            f"(known: {', '.join(known) or '<empty lake>'})"
        )
    return list(run_ids)


def _kind_code(kind: str) -> int:
    if kind not in KIND_CODE:
        raise ConfigurationError(
            f"unknown observation kind {kind!r}: use 'interval' or 'temperature'"
        )
    return KIND_CODE[kind]


def _capacity_bits(manifest: Mapping[str, Any]) -> Optional[int]:
    capacity = manifest.get("capacity_bits")
    if isinstance(capacity, (int, float)) and capacity > 0:
        return int(capacity)
    return None


def _mean_by_condition(
    cols: RunColumns, kind_code: int, vendor_index: int
) -> Dict[float, Tuple[int, float]]:
    """``condition -> (n_observations, mean_failures)`` for one vendor."""
    mask = (cols.obs_kind == kind_code) & (cols.obs_vendor_idx() == vendor_index)
    conds = cols.obs_condition[mask]
    fails = cols.obs_failures[mask]
    out: Dict[float, Tuple[int, float]] = {}
    for c in np.unique(conds).tolist():
        sel = fails[conds == c]
        out[float(c)] = (int(sel.size), float(sel.mean()))
    return out


def trend_report(
    lake: ResultLake,
    run_ids: Optional[Sequence[str]] = None,
    vendor: Optional[str] = None,
    kind: str = "interval",
) -> Dict[str, Any]:
    """Longitudinal failure trend: one row per (run, vendor, condition).

    ``failure_rate`` is failures per bit when the run's manifest recorded
    ``capacity_bits``; older runs render ``-``.
    """
    code = _kind_code(kind)
    headers = ["run", "vendor", kind, "chips", "mean_failures", "failure_rate"]
    rows: List[List[Any]] = []
    for run_id in _selected_runs(lake, run_ids):
        cols = lake.columns(run_id)
        capacity = _capacity_bits(lake.manifest(run_id))
        for vendor_index, vendor_name in enumerate(cols.vendors.tolist()):
            if vendor is not None and str(vendor_name) != vendor:
                continue
            for cond, (n, mean) in sorted(
                _mean_by_condition(cols, code, vendor_index).items()
            ):
                rate = mean / capacity if capacity else None
                rows.append([run_id, str(vendor_name), cond, n, mean, rate])
    return {
        "report": "trend",
        "kind": kind,
        "headers": headers,
        "rows": rows,
        "text": ascii_table(headers, rows),
    }


def contour_report(
    lake: ResultLake,
    run_ids: Optional[Sequence[str]] = None,
    kind: str = "temperature",
) -> Dict[str, Any]:
    """Vendor × condition contour: mean failures pooled across runs.

    The REAPER-style view of the characterization grid -- how failure
    counts scale with temperature (or refresh interval) per vendor, with
    every selected run's chips pooled into one population.
    """
    code = _kind_code(kind)
    pooled: Dict[str, Dict[float, List[float]]] = {}
    for run_id in _selected_runs(lake, run_ids):
        cols = lake.columns(run_id)
        for vendor_index, vendor_name in enumerate(cols.vendors.tolist()):
            cells = pooled.setdefault(str(vendor_name), {})
            mask = (cols.obs_kind == code) & (cols.obs_vendor_idx() == vendor_index)
            conds = cols.obs_condition[mask]
            fails = cols.obs_failures[mask]
            for c in np.unique(conds).tolist():
                cells.setdefault(float(c), []).extend(fails[conds == c].tolist())
    vendors = sorted(pooled)
    conditions = sorted({c for cells in pooled.values() for c in cells})
    headers = [kind] + vendors
    rows: List[List[Any]] = []
    for c in conditions:
        row: List[Any] = [c]
        for v in vendors:
            samples = pooled[v].get(c)
            row.append(float(np.mean(samples)) if samples else None)
        rows.append(row)
    return {
        "report": "contour",
        "kind": kind,
        "headers": headers,
        "rows": rows,
        "text": ascii_table(headers, rows),
    }


def longevity_report(
    lake: ResultLake,
    run_ids: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Profile-longevity drift: per vendor, how the failure population
    moved across characterization rounds.

    For each vendor the report tracks the mean failure count at the most
    aggressive profiled condition (the longest refresh interval, REAPER's
    reach-profiling point) across the selected runs in order: first and
    last round means, the relative drift between them, and the largest
    single round-to-round step.  Stable numbers mean an old profile still
    covers the population; a large drift is the signal to re-profile.
    """
    selected = _selected_runs(lake, run_ids)
    code = _kind_code("interval")
    series: Dict[str, List[Tuple[str, float, float]]] = {}
    for run_id in selected:
        cols = lake.columns(run_id)
        for vendor_index, vendor_name in enumerate(cols.vendors.tolist()):
            by_cond = _mean_by_condition(cols, code, vendor_index)
            if not by_cond:
                continue
            top = max(by_cond)
            series.setdefault(str(vendor_name), []).append(
                (run_id, top, by_cond[top][1])
            )
    headers = [
        "vendor",
        "runs",
        "interval",
        "first_mean",
        "last_mean",
        "drift",
        "max_step",
    ]
    rows: List[List[Any]] = []
    for vendor in sorted(series):
        points = series[vendor]
        means = [m for _, _, m in points]
        first, last = means[0], means[-1]
        drift = (last - first) / abs(first) if first else None
        steps = [abs(b - a) for a, b in zip(means, means[1:])]
        rows.append(
            [
                vendor,
                len(points),
                max(top for _, top, _ in points),
                first,
                last,
                drift,
                max(steps) if steps else None,
            ]
        )
    return {
        "report": "longevity",
        "headers": headers,
        "rows": rows,
        "text": ascii_table(headers, rows),
    }


def runs_report(lake: ResultLake, run_ids: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Catalog inventory: one row per compacted run."""
    headers = ["run", "units", "observations", "events", "status", "kind"]
    rows: List[List[Any]] = []
    for run_id in _selected_runs(lake, run_ids):
        entry = lake.entry(run_id)
        manifest = entry.get("manifest") or {}
        rows.append(
            [
                run_id,
                entry.get("units", 0),
                entry.get("observations", 0),
                entry.get("events", 0),
                manifest.get("status") or None,
                manifest.get("kind") or None,
            ]
        )
    return {
        "report": "runs",
        "headers": headers,
        "rows": rows,
        "text": ascii_table(headers, rows),
    }


#: CLI-facing registry: ``python -m repro lake query --report <name>``.
REPORTS = {
    "runs": runs_report,
    "trend": trend_report,
    "contour": contour_report,
    "longevity": longevity_report,
}
