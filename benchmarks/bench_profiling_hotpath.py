"""Profiling hot-path benchmark: reference walk vs the grid kernel route.

Times the paper's standard profiling workload -- a 16-iteration pass over
the 12 standard patterns (Algorithm 1 at the Figure 9/10 configuration) on
a 2 Gbit chip -- once as :meth:`BruteForceProfiler.walk` on a chip with the
reference failure evaluation (``fast_path=False``, the oracle) and once as
:meth:`BruteForceProfiler.run` on a production chip, which profiles it on
the grid kernel (a one-condition ``run_grid`` on a one-chip fleet), then
verifies the two runs produced *byte-identical* profiles.  Emits
``BENCH_profiling_hotpath.json`` at the repository root, stamped with the
measuring host, so the performance trajectory is machine-readable, plus a
human-readable report under ``benchmarks/results/``.

Run standalone (CI uses ``--rounds 1 --min-speedup 2.0``)::

    PYTHONPATH=src python benchmarks/bench_profiling_hotpath.py

Exits non-zero if the profiles diverge or the measured speedup falls below
``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.conditions import Conditions  # noqa: E402
from repro.core import BruteForceProfiler  # noqa: E402
from repro.dram.chip import SimulatedDRAMChip  # noqa: E402
from repro.dram.geometry import ChipGeometry  # noqa: E402
from repro.patterns import STANDARD_PATTERNS  # noqa: E402
from benchutil import host_stamp, output_paths  # noqa: E402

GEOMETRY = ChipGeometry.from_capacity_gigabits(2.0)
CONDITIONS = Conditions(trefi=1.024, temperature=45.0)
ITERATIONS = 16
SEED = 7
DEFAULT_OUT = REPO_ROOT / "BENCH_profiling_hotpath.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "profiling_hotpath.txt"


def run_benchmark(rounds: int):
    """Best-of-``rounds`` steady-state wall time per arm.

    Both arms run against a persistent chip with the same (seed, chip_id),
    so they evaluate exactly the same simulated hardware and every round's
    profile is comparable across arms -- the function asserts byte-identity
    for every round, warmup included, and returns the combined verdict.

    The timed region is one whole profiling call, profile building
    included.  One untimed warmup run per arm first absorbs lazy one-time
    model initialization (each deterministic pattern's first-write
    alignment draw) that would otherwise be charged to the first round.
    Rounds are interleaved reference/kernel so slow CPU frequency or load
    drift cannot bias one arm.
    """
    profiler = BruteForceProfiler(patterns=STANDARD_PATTERNS, iterations=ITERATIONS)
    arms = {
        "reference": (profiler.walk, SimulatedDRAMChip(geometry=GEOMETRY, seed=SEED, fast_path=False)),
        "kernel": (profiler.run, SimulatedDRAMChip(geometry=GEOMETRY, seed=SEED)),
    }
    warm = {name: route(chip, CONDITIONS) for name, (route, chip) in arms.items()}
    equivalent = warm["reference"].to_json() == warm["kernel"].to_json()
    best = {name: float("inf") for name in arms}
    profiles = {}
    for _ in range(rounds):
        for name, (route, chip) in arms.items():
            start = time.perf_counter()
            profiles[name] = route(chip, CONDITIONS)
            best[name] = min(best[name], time.perf_counter() - start)
        equivalent = equivalent and profiles["reference"].to_json() == profiles["kernel"].to_json()
    return best["reference"], best["kernel"], equivalent, profiles["reference"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3, help="timing rounds per arm (best-of)")
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
        help="exit non-zero if the kernel's speedup over the reference falls below this",
    )
    args = parser.parse_args(argv)
    out_path, report_path = output_paths(args.out, DEFAULT_OUT, REPORT_PATH)

    passes = ITERATIONS * len(STANDARD_PATTERNS)
    ref_seconds, kernel_seconds, equivalent, ref_profile = run_benchmark(args.rounds)
    speedup = ref_seconds / kernel_seconds

    result = {
        "benchmark": "profiling_hotpath",
        "config": {
            "capacity_gigabits": GEOMETRY.capacity_gigabits,
            "weak_cells": int(
                SimulatedDRAMChip(geometry=GEOMETRY, seed=SEED).weak_cell_count
            ),
            "patterns": len(STANDARD_PATTERNS),
            "iterations": ITERATIONS,
            "trefi_s": CONDITIONS.trefi,
            "temperature_c": CONDITIONS.temperature,
            "rounds": args.rounds,
            "seed": SEED,
        },
        "reference": {
            "seconds": ref_seconds,
            "passes_per_s": passes / ref_seconds,
        },
        "kernel": {
            "seconds": kernel_seconds,
            "passes_per_s": passes / kernel_seconds,
        },
        "speedup": speedup,
        "equivalent": equivalent,
        "failing_cells": len(ref_profile),
        "host": host_stamp(),
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    report = "\n".join(
        [
            "Profiling hot path: reference walk vs grid kernel route",
            f"  workload    : {ITERATIONS} iterations x {len(STANDARD_PATTERNS)} patterns "
            f"({passes} passes), {GEOMETRY.capacity_gigabits:g} Gbit chip, "
            f"trefi={CONDITIONS.trefi}s",
            f"  reference   : {ref_seconds:.3f}s  ({passes / ref_seconds:,.0f} passes/s)",
            f"  kernel      : {kernel_seconds:.3f}s  ({passes / kernel_seconds:,.0f} passes/s)",
            f"  speedup     : {speedup:.2f}x",
            f"  byte-identical profiles: {equivalent}",
            f"  json        : {out_path}",
        ]
    )
    report_path.parent.mkdir(exist_ok=True)
    report_path.write_text(report + "\n")
    print(report)

    if not equivalent:
        print("FAIL: kernel-route profile differs from the reference profile", file=sys.stderr)
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
