"""Columnar result-lake benchmark: lake queries vs re-parsing JSONL.

Synthesizes a campaign-scale run directory -- ``--rows`` chip-measurement
result rows (default 100k) plus a resume-style tail of re-recorded units,
exactly the shape ``python -m repro campaign`` appends -- compacts it
into a :class:`repro.lake.ResultLake`, and then times the same canonical
run summary computed two ways:

* **jsonl**: :func:`repro.lake.summary_from_run_dir` -- stream-parse the
  source ``results.jsonl``, fold later-rows-win, aggregate.
* **lake**: :func:`repro.lake.summary_from_lake` -- load the columnar
  npz segment and aggregate vectorized.

The two summaries must be **byte-identical** (``json.dumps`` with sorted
keys) every round; the script exits non-zero on divergence or when the
lake speedup falls below ``--min-speedup``.

Emits ``BENCH_result_lake.json`` at the repository root plus a
human-readable report under ``benchmarks/results/``.

Run standalone (CI uses ``--rounds 2 --min-speedup 10.0``)::

    PYTHONPATH=src python benchmarks/bench_result_lake.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import shutil
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lake import (  # noqa: E402
    ResultLake,
    summary_from_lake,
    summary_from_run_dir,
)
from benchutil import host_stamp, output_paths  # noqa: E402

SEED = 368
VENDORS = ("A", "B", "C")
INTERVALS_S = (0.512, 1.024, 2.048)
TEMPERATURES_C = (45.0, 55.0)
RESUME_FRACTION = 0.01  # re-recorded units, exercising later-rows-win
FAILED_FRACTION = 0.002
DEFAULT_OUT = REPO_ROOT / "BENCH_result_lake.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "result_lake.txt"


def synthesize_run_dir(run_dir: pathlib.Path, rows: int) -> int:
    """Write a campaign-shaped ``results.jsonl`` with ``rows`` raw rows."""
    rng = random.Random(SEED)
    run_dir.mkdir(parents=True)

    def chip_row(index: int) -> dict:
        if rng.random() < FAILED_FRACTION:
            return {
                "unit_id": f"chip-{index:07d}",
                "status": "failed",
                "attempts": 2,
                "elapsed_s": rng.random() * 0.05,
                "error": {
                    "type": "MeasurementError",
                    "message": f"chip {index} did not settle",
                    "traceback": "Traceback (most recent call last): ...",
                },
            }
        value = {
            "chip_id": index,
            "vendor": VENDORS[index % len(VENDORS)],
            "interval_failures": [
                [interval, float(rng.randint(0, 40) * (1 + k))]
                for k, interval in enumerate(INTERVALS_S)
            ],
            "temperature_failures": [
                [temp, float(rng.randint(0, 60))] for temp in TEMPERATURES_C
            ],
        }
        return {
            "unit_id": f"chip-{index:07d}",
            "status": "ok",
            "attempts": 1,
            "elapsed_s": 0.001 + rng.random() * 0.2,
            "value": value,
        }

    resumed = int(rows * RESUME_FRACTION)
    fresh = rows - resumed
    with open(run_dir / "results.jsonl", "w", encoding="utf-8") as handle:
        for index in range(fresh):
            handle.write(json.dumps(chip_row(index), sort_keys=True) + "\n")
        for _ in range(resumed):  # resume tail: later rows win
            handle.write(
                json.dumps(chip_row(rng.randrange(fresh)), sort_keys=True) + "\n"
            )
    (run_dir / "manifest.json").write_text(
        json.dumps(
            {
                "fingerprint": "bench" * 8,
                "status": "complete",
                "kind": "bench-result-lake",
                "n_units": fresh,
                "capacity_bits": 67108864,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return rows


def run_benchmark(run_dir: pathlib.Path, lake: ResultLake, run_id: str, rounds: int):
    """Best-of-``rounds`` per path, identity-checked every round."""
    best = {"jsonl": float("inf"), "lake": float("inf")}
    identical = True
    for _ in range(rounds):
        start = time.perf_counter()
        from_jsonl = summary_from_run_dir(run_dir)
        best["jsonl"] = min(best["jsonl"], time.perf_counter() - start)

        start = time.perf_counter()
        from_lake = summary_from_lake(lake, run_id)
        best["lake"] = min(best["lake"], time.perf_counter() - start)

        identical = identical and (
            json.dumps(from_jsonl, sort_keys=True)
            == json.dumps(from_lake, sort_keys=True)
        )
    return best["jsonl"], best["lake"], identical, from_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000, help="raw result rows to synthesize")
    parser.add_argument("--rounds", type=int, default=3, help="timing rounds per path (best-of)")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=f"JSON output path (default {DEFAULT_OUT.name} at the repository root); "
        "the text report goes beside it",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if lake/jsonl speedup falls below this",
    )
    args = parser.parse_args(argv)
    out_path, report_path = output_paths(args.out, DEFAULT_OUT, REPORT_PATH)

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_result_lake_"))
    try:
        run_dir = workdir / "run"
        synthesize_run_dir(run_dir, args.rows)
        jsonl_bytes = (run_dir / "results.jsonl").stat().st_size

        lake = ResultLake(workdir / "lake")
        compact_start = time.perf_counter()
        report = lake.compact_run_dir(run_dir)
        compact_s = time.perf_counter() - compact_start
        segment_bytes = lake.segment_path(report.run_id).stat().st_size

        jsonl_s, lake_s, identical, summary = run_benchmark(
            run_dir, lake, report.run_id, args.rounds
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    speedup = jsonl_s / lake_s

    result = {
        "benchmark": "result_lake",
        "config": {
            "rows": args.rows,
            "units": report.units,
            "observations": report.observations,
            "vendors": list(VENDORS),
            "intervals_s": list(INTERVALS_S),
            "temperatures_c": list(TEMPERATURES_C),
            "resume_fraction": RESUME_FRACTION,
            "failed_fraction": FAILED_FRACTION,
            "rounds": args.rounds,
            "seed": SEED,
        },
        "jsonl": {
            "seconds": jsonl_s,
            "rows_per_s": args.rows / jsonl_s,
            "bytes": jsonl_bytes,
        },
        "lake": {
            "seconds": lake_s,
            "rows_per_s": args.rows / lake_s,
            "bytes": segment_bytes,
            "compaction_seconds": compact_s,
        },
        "speedup": speedup,
        "compression_ratio": jsonl_bytes / segment_bytes,
        "byte_identical": identical,
        "summary_units": summary["units"],
        "host": host_stamp(),
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    report_text = "\n".join(
        [
            "Columnar result lake: summary queries vs re-parsing JSONL",
            f"  workload    : {args.rows:,} result rows "
            f"({report.units:,} units, {report.observations:,} observations)",
            f"  jsonl       : {jsonl_s:.3f}s  ({args.rows / jsonl_s:,.0f} rows/s, "
            f"{jsonl_bytes / 1e6:.1f} MB)",
            f"  lake        : {lake_s:.3f}s  ({args.rows / lake_s:,.0f} rows/s, "
            f"{segment_bytes / 1e6:.1f} MB, compacted in {compact_s:.3f}s)",
            f"  speedup     : {speedup:.2f}x",
            f"  compression : {jsonl_bytes / segment_bytes:.2f}x",
            f"  byte-identical summaries: {identical}",
            f"  json        : {out_path}",
        ]
    )
    report_path.parent.mkdir(exist_ok=True)
    report_path.write_text(report_text + "\n")
    print(report_text)

    if not identical:
        print(
            "FAIL: lake summary differs from the JSONL-derived summary",
            file=sys.stderr,
        )
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
