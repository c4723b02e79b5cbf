"""Fleet-batched campaign benchmark: the per-chip walk vs the fused kernel.

Times the paper-scale 369-chip characterization campaign (3 vendors x 123
chips, the ``bench_campaign_368_chips`` configuration) end to end through
the process-pool backend in three arms:

``per-chip``
    The per-chip reference walk: one pool round-trip and one
    :func:`repro.runner.measure_chip` call (``BruteForceProfiler``, one
    read at a time) per chip, driven through
    :class:`repro.runner.RunnerEngine` with
    :func:`repro.runner.build_chip_units`, since campaigns no longer take
    this route.
``fleet``
    ``CharacterizationCampaign.run`` with chips shipped to workers in
    chunks of ``--chips-per-unit``, each chunk evaluated by
    :func:`repro.runner.measure_fleet` (one chamber settle replayed
    across members, then the condition-grid kernel
    :meth:`repro.core.fleetprof.FleetProfiler.run_grid`: block-drawn DPD
    and read uniforms, one Chernoff-cut evaluation per group of repeated
    reads).
``default``
    ``CharacterizationCampaign.run`` with the unit size it computes itself
    (:func:`repro.runner.default_chips_per_unit`).

All three must produce byte-identical ``CampaignSummary`` objects; the
script exits non-zero on divergence or when the fleet arm's speedup over
the per-chip walk falls below ``--min-speedup``.

Emits ``BENCH_fleet_campaign.json`` at the repository root plus a
human-readable report under ``benchmarks/results/``.

Run standalone (CI uses ``--rounds 1 --min-speedup 2.0``)::

    PYTHONPATH=src python benchmarks/bench_fleet_campaign.py
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from benchutil import host_stamp, output_paths  # noqa: E402
from repro.analysis.campaign import CharacterizationCampaign  # noqa: E402
from repro.dram.geometry import ChipGeometry  # noqa: E402
from repro.dram.vendor import VENDORS  # noqa: E402
from repro.runner import (  # noqa: E402
    RunnerEngine,
    build_chip_units,
    campaign_fingerprint,
    default_chips_per_unit,
    measure_chip,
)

GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)
CHIPS_PER_VENDOR = 123  # 3 x 123 = 369, the smallest symmetric population >= 368
SEED = 368
ITERATIONS = 2
INTERVALS_S = (0.512, 1.024, 2.048)
TEMPERATURES_C = (45.0, 55.0)
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", 0)) or (os.cpu_count() or 1)
DEFAULT_OUT = REPO_ROOT / "BENCH_fleet_campaign.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "fleet_campaign.txt"
BACKEND = "process" if WORKERS > 1 else "serial"
GRID = dict(
    chips_per_vendor=CHIPS_PER_VENDOR,
    geometry=GEOMETRY,
    iterations=ITERATIONS,
    seed=SEED,
    intervals_s=INTERVALS_S,
    temperatures_c=TEMPERATURES_C,
)


def run_campaign(chips_per_unit=None, **kwargs):
    campaign = CharacterizationCampaign(
        chips_per_vendor=CHIPS_PER_VENDOR,
        geometry=GEOMETRY,
        iterations=ITERATIONS,
        seed=SEED,
    )
    return campaign.run(
        intervals_s=INTERVALS_S,
        temperatures_c=TEMPERATURES_C,
        backend=BACKEND,
        workers=WORKERS,
        chips_per_unit=chips_per_unit,
        **kwargs,
    )


def run_per_chip():
    """The per-chip walk: every chip one ``measure_chip`` unit through
    the engine.  The rows land in a scratch run directory, which a
    campaign then resumes -- measuring nothing -- for the summary."""
    manifest = {
        "fingerprint": campaign_fingerprint(vendor_names=tuple(VENDORS), **GRID)
    }
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = str(pathlib.Path(scratch) / "run")
        start = time.perf_counter()
        RunnerEngine(backend=BACKEND, workers=WORKERS, run_dir=run_dir).run(
            measure_chip, build_chip_units(**GRID), manifest
        )
        seconds = time.perf_counter() - start
        summary = run_campaign(run_dir=run_dir, resume=True)
    return seconds, summary


def run_benchmark(rounds: int, chips_per_unit: int):
    """Best-of-``rounds`` wall time per arm, identity-checked every round.

    Rounds are interleaved across arms so CPU frequency or load drift
    cannot bias one arm.  Every chip's measurement is a pure function of
    ``(seed, chip_id)``, so there is no cross-round state to warm up --
    each campaign run pays its full cost, which is exactly what the
    dispatch layer being measured amortizes.  The per-chip arm's time
    covers the engine run only, not the summary that resumes its rows.
    """
    best = {name: float("inf") for name in ("per_chip", "fleet", "default")}
    equivalent = True
    for _ in range(rounds):
        seconds, reference = run_per_chip()
        best["per_chip"] = min(best["per_chip"], seconds)
        for name, cpu in (("fleet", chips_per_unit), ("default", None)):
            start = time.perf_counter()
            summary = run_campaign(cpu)
            best[name] = min(best[name], time.perf_counter() - start)
            equivalent = equivalent and summary == reference
    return best, equivalent, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2, help="timing rounds per mode (best-of)")
    parser.add_argument(
        "--chips-per-unit", type=int, default=32, dest="chips_per_unit",
        help="fleet chunk size for the batched mode",
    )
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
        help="exit non-zero if the fleet arm's speedup over the per-chip walk falls below this",
    )
    args = parser.parse_args(argv)
    out_path, report_path = output_paths(args.out, DEFAULT_OUT, REPORT_PATH)

    n_chips = 3 * CHIPS_PER_VENDOR
    best, equivalent, summary = run_benchmark(args.rounds, args.chips_per_unit)
    per_chip_s, fleet_s, default_s = best["per_chip"], best["fleet"], best["default"]
    speedup = per_chip_s / fleet_s
    default_unit = default_chips_per_unit(
        GEOMETRY.capacity_bits, n_chips, WORKERS if BACKEND == "process" else 1
    )

    result = {
        "benchmark": "fleet_campaign",
        "host": host_stamp(workers=WORKERS),
        "config": {
            "chips": n_chips,
            "chips_per_vendor": CHIPS_PER_VENDOR,
            "capacity_gigabits": GEOMETRY.capacity_gigabits,
            "intervals_s": list(INTERVALS_S),
            "temperatures_c": list(TEMPERATURES_C),
            "iterations": ITERATIONS,
            "seed": SEED,
            "workers": WORKERS,
            "chips_per_unit": args.chips_per_unit,
            "default_chips_per_unit": default_unit,
            "rounds": args.rounds,
        },
        "per_chip": {
            "seconds": per_chip_s,
            "chips_per_s": n_chips / per_chip_s,
        },
        "fleet": {
            "seconds": fleet_s,
            "chips_per_s": n_chips / fleet_s,
        },
        "default": {
            "seconds": default_s,
            "chips_per_s": n_chips / default_s,
        },
        "speedup": speedup,
        "default_speedup": per_chip_s / default_s,
        "equivalent": equivalent,
        "measured_chips": summary.n_chips,
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    out = out_path.resolve()
    shown = out.relative_to(REPO_ROOT) if out.is_relative_to(REPO_ROOT) else out

    report = "\n".join(
        [
            "Fleet-batched campaign: the per-chip walk vs the fused kernel",
            f"  workload    : {n_chips} chips (3 vendors x {CHIPS_PER_VENDOR}), "
            f"{GEOMETRY.capacity_gigabits:g} Gbit each, "
            f"{len(INTERVALS_S)} intervals + {len(TEMPERATURES_C) - 1} extra temperature",
            f"  execution   : {WORKERS} workers, best of {args.rounds} rounds",
            f"  per-chip    : {per_chip_s:.3f}s  ({n_chips / per_chip_s:,.1f} chips/s)  "
            "measure_chip, one chip per unit",
            f"  fleet       : {fleet_s:.3f}s  ({n_chips / fleet_s:,.1f} chips/s)  "
            f"chunks of {args.chips_per_unit}",
            f"  default     : {default_s:.3f}s  ({n_chips / default_s:,.1f} chips/s)  "
            f"computed unit size {default_unit}",
            f"  speedup     : {speedup:.2f}x fleet, {per_chip_s / default_s:.2f}x default",
            f"  byte-identical summaries: {equivalent}",
            f"  json        : {shown}",
        ]
    )
    report_path.parent.mkdir(exist_ok=True)
    report_path.write_text(report + "\n")
    print(report)

    if not equivalent:
        print("FAIL: a kernel campaign summary differs from the per-chip summary", file=sys.stderr)
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
