"""Campaign driver: decompose a characterization campaign into work units.

The paper's campaign is embarrassingly parallel at the chip: every chip's
measurement sequence (interval sweep at the base temperature, then the
temperature-scaling points at the top interval) touches only that chip's
own thermally controlled environment.  This module makes that explicit:

``build_chip_units``
    One :class:`~repro.runner.units.WorkUnit` per chip, with a stable
    ``chip-NNNNN`` id and a plain-JSON payload describing everything the
    measurement needs.

``measure_chip``
    The per-chip reference walk.  It rebuilds the chip's world from the
    payload -- a single-chip :class:`~repro.infra.testbed.TestBed` whose
    weak-cell population, VRT process, and placement offset are all keyed
    by ``(seed, chip_id)`` via :func:`repro.rng.derive` -- so the result is
    a pure function of the payload: independent of which process runs it,
    in what order, or how many times the campaign was resumed.  Campaigns
    do not run it; tests and the benchmark's oracle re-measure stored rows
    with it.

``fleet_dispatch`` / ``measure_fleet``
    How campaigns execute: the per-chip units travel to workers in units
    of several chips (:func:`default_chips_per_unit` sizes them), each
    measured by the fused condition-grid kernel and expanded back to
    per-chip rows equal to :func:`measure_chip`'s.

``aggregate_chip_results``
    Folds ok results (sorted by chip id, so completion order is erased)
    back into the per-vendor failure-count tables the campaign summary is
    computed from.

The driver knows nothing about executors or stores; `analysis.campaign`
composes it with :class:`~repro.runner.engine.RunnerEngine`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import rng as rng_mod
from ..conditions import Conditions
from ..core.bruteforce import BruteForceProfiler
from ..core.fleetprof import FleetProfiler
from ..dram.fleet import ChipFleet
from ..dram.geometry import ChipGeometry
from ..dram.vendor import VENDORS, vendor_by_name
from ..errors import ConfigurationError
from ..infra.testbed import TestBed
from .engine import UnitDispatch
from .units import STATUS_FAILED, STATUS_OK, UnitResult, WorkUnit

#: Kind tag on every per-chip measurement unit.
CHIP_UNIT_KIND = "chip-measurement"

#: Kind tag on every fleet (chunk-of-chips) measurement unit.
FLEET_UNIT_KIND = "fleet-measurement"

#: Headroom factor between the largest profiled interval and the chip's
#: supported maximum, matching the legacy in-process campaign.
TREFI_HEADROOM = 1.05

#: vendor -> interval -> failure counts in ascending chip order.
CountTable = Dict[str, Dict[float, List[int]]]

#: Most chip capacity one computed work unit batches: chips of this size
#: or larger travel one per unit (DESIGN.md "Work-plane dispatch" has the
#: measurements that chose it).
UNIT_CAPACITY_BITS = 2**28


def campaign_fingerprint(
    chips_per_vendor: int,
    geometry: ChipGeometry,
    iterations: int,
    seed: int,
    intervals_s: Sequence[float],
    temperatures_c: Sequence[float],
    vendor_names: Sequence[str],
) -> str:
    """Stable identity of one campaign configuration.

    Guards a run directory: resuming with any changed knob produces a
    different fingerprint and the store refuses the mix.
    """
    return rng_mod.fingerprint(
        seed,
        "campaign",
        chips_per_vendor,
        geometry.banks,
        geometry.rows_per_bank,
        geometry.bits_per_row,
        iterations,
        "intervals",
        *(repr(float(t)) for t in intervals_s),
        "temperatures",
        *(repr(float(t)) for t in temperatures_c),
        "vendors",
        *vendor_names,
    )


def default_chips_per_unit(capacity_bits: int, n_chips: int, workers: int) -> int:
    """The campaign's unit size when none is given.

    Chips batch up to :data:`UNIT_CAPACITY_BITS` of capacity per unit, so
    a worker never holds more than one large population at a time, but
    never into fewer units than ``workers`` (the pool width, 1 for serial
    execution), so no worker idles for want of a unit.
    """
    if capacity_bits <= 0 or n_chips <= 0 or workers <= 0:
        raise ConfigurationError(
            "capacity_bits, n_chips and workers must be positive, got "
            f"{capacity_bits!r}, {n_chips!r}, {workers!r}"
        )
    per_worker = -(-n_chips // workers)
    return max(1, min(UNIT_CAPACITY_BITS // capacity_bits, per_worker))


def build_chip_units(
    chips_per_vendor: int,
    geometry: ChipGeometry,
    iterations: int,
    seed: int,
    intervals_s: Sequence[float],
    temperatures_c: Sequence[float],
    vendor_names: Optional[Sequence[str]] = None,
) -> Tuple[WorkUnit, ...]:
    """One work unit per chip, ids and chip numbering matching a full bed.

    Chip ids run sequentially across vendors in declaration order, exactly
    like :meth:`repro.infra.testbed.TestBed.build`, so a unit's chip is
    statistically identical to the one the legacy shared-bed campaign would
    have racked in the same slot.
    """
    if chips_per_vendor <= 0:
        raise ConfigurationError("chips_per_vendor must be positive")
    names = tuple(vendor_names) if vendor_names is not None else tuple(VENDORS)
    units: List[WorkUnit] = []
    chip_id = 0
    for vendor_name in names:
        vendor_by_name(vendor_name)  # fail fast on unknown vendors
        for _ in range(chips_per_vendor):
            units.append(
                WorkUnit(
                    unit_id=f"chip-{chip_id:05d}",
                    kind=CHIP_UNIT_KIND,
                    payload={
                        "chip_id": chip_id,
                        "vendor": vendor_name,
                        "seed": int(seed),
                        "iterations": int(iterations),
                        "geometry": {
                            "banks": geometry.banks,
                            "rows_per_bank": geometry.rows_per_bank,
                            "bits_per_row": geometry.bits_per_row,
                        },
                        "intervals_s": [float(t) for t in intervals_s],
                        "temperatures_c": [float(t) for t in temperatures_c],
                    },
                )
            )
            chip_id += 1
    return tuple(units)


def measure_chip(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure one chip's full campaign contribution on the per-chip walk.

    Runs the interval sweep at the base temperature, then the remaining
    temperatures at the top interval, inside this chip's own single-chip
    testbed.  Returns plain JSON: ordered ``[condition, failure_count]``
    pairs (pairs, not a mapping, so duplicate temperatures keep their
    legacy append semantics).

    Every profile runs on :meth:`BruteForceProfiler.walk`, the command
    loop, never on the grid kernel it checks.  A payload carrying
    ``"fast_path": False`` measures on the reference failure evaluator
    instead -- the oracle tests and the benchmark check stored rows
    against.
    """
    geometry = ChipGeometry(**{k: int(v) for k, v in payload["geometry"].items()})
    intervals = [float(t) for t in payload["intervals_s"]]
    temperatures = [float(t) for t in payload["temperatures_c"]]
    chip_id = int(payload["chip_id"])
    bed = TestBed.build_members(
        [(chip_id, vendor_by_name(str(payload["vendor"])))],
        geometry=geometry,
        seed=int(payload["seed"]),
        max_trefi_s=max(intervals) * TREFI_HEADROOM,
        fast_path=bool(payload.get("fast_path", True)),
    )
    chip = bed.chips[0]
    profiler = BruteForceProfiler(iterations=int(payload["iterations"]))

    base_temp = temperatures[0]
    bed.set_ambient(base_temp)
    interval_failures: List[List[float]] = []
    for trefi in intervals:
        profile = profiler.walk(chip, Conditions(trefi=trefi, temperature=base_temp))
        interval_failures.append([trefi, float(len(profile))])

    top = max(intervals)
    top_count = next(count for trefi, count in interval_failures if trefi == top)
    temperature_failures: List[List[float]] = [[base_temp, top_count]]
    for temperature in temperatures[1:]:
        bed.set_ambient(temperature)
        profile = profiler.walk(chip, Conditions(trefi=top, temperature=temperature))
        temperature_failures.append([temperature, float(len(profile))])

    return {
        "chip_id": chip_id,
        "vendor": str(payload["vendor"]),
        "interval_failures": interval_failures,
        "temperature_failures": temperature_failures,
    }


def build_fleet_units(
    units: Sequence[WorkUnit], chips_per_unit: int
) -> Tuple[WorkUnit, ...]:
    """Pack consecutive per-chip units into fleet transport chunks.

    Each chunk is a :data:`FLEET_UNIT_KIND` unit whose payload carries the
    member units verbatim (``{"members": [{"unit_id", "payload"}, ...]}``),
    so :func:`expand_fleet_result` can reconstruct exactly the per-chip
    results :func:`measure_chip` would have produced.  Chunk ids are derived
    from the member ids but are *transient* -- they never reach the result
    store (the engine expands chunks back to per-chip rows before
    persisting), so any chunk size can resume any run directory.
    """
    if chips_per_unit <= 0:
        raise ConfigurationError(
            f"chips_per_unit must be positive, got {chips_per_unit!r}"
        )
    units = tuple(units)
    for unit in units:
        if unit.kind != CHIP_UNIT_KIND:
            raise ConfigurationError(
                f"fleet chunks are built from {CHIP_UNIT_KIND!r} units; "
                f"got kind {unit.kind!r}"
            )
    chunks: List[WorkUnit] = []
    for start in range(0, len(units), chips_per_unit):
        chunk = units[start : start + chips_per_unit]
        chunks.append(
            WorkUnit(
                unit_id=f"fleet-{chunk[0].unit_id}-{chunk[-1].unit_id}",
                kind=FLEET_UNIT_KIND,
                payload={
                    "members": [
                        {"unit_id": u.unit_id, "payload": dict(u.payload)}
                        for u in chunk
                    ]
                },
            )
        )
    return tuple(chunks)


def _shared_fleet_config(members: Sequence[Mapping[str, Any]]) -> Mapping[str, Any]:
    """The chunk's shared measurement configuration, homogeneity-checked.

    Every key a fleet evaluates *together* (seed, iterations, geometry,
    intervals, temperatures) must agree across members -- a mixed chunk
    would silently measure chips under the wrong schedule.
    """
    first = members[0]["payload"]
    shared_keys = ("seed", "iterations", "geometry", "intervals_s", "temperatures_c")
    for member in members[1:]:
        payload = member["payload"]
        for key in shared_keys:
            if payload.get(key) != first.get(key):
                raise ConfigurationError(
                    f"fleet chunk members disagree on {key!r}: "
                    f"{payload.get(key)!r} vs {first.get(key)!r}"
                )
    return first


def measure_fleet(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Measure one chunk of chips fleet-fused (worker function).

    Runs exactly :func:`measure_chip`'s schedule -- the interval sweep at
    the base temperature, then the remaining temperatures at the top
    interval -- on every member chip at once, racked in one
    :meth:`~repro.infra.testbed.TestBed.build_members` bed (one clock, one
    chamber settled once per temperature) and measured by
    :class:`~repro.core.fleetprof.FleetProfiler`: the base-temperature
    interval sweep is one :meth:`~repro.core.fleetprof.FleetProfiler.run_grid`
    pass, and each remaining temperature point another.  Returns
    ``{"chips": [{"unit_id", "value"}, ...]}`` in member order, where each
    ``value`` is byte-identical to the member's :func:`measure_chip`
    return.  Every member chip draws its own weak-cell population here,
    from its ``(seed, chip_id)`` stream.
    """
    members = list(payload["members"])
    if not members:
        raise ConfigurationError("a fleet unit needs at least one member chip")
    first = _shared_fleet_config(members)
    geometry = ChipGeometry(**{k: int(v) for k, v in first["geometry"].items()})
    intervals = [float(t) for t in first["intervals_s"]]
    temperatures = [float(t) for t in first["temperatures_c"]]
    chip_ids = [int(m["payload"]["chip_id"]) for m in members]

    bed = TestBed.build_members(
        [
            (chip_id, vendor_by_name(str(m["payload"]["vendor"])))
            for chip_id, m in zip(chip_ids, members)
        ],
        geometry=geometry,
        seed=int(first["seed"]),
        max_trefi_s=max(intervals) * TREFI_HEADROOM,
    )
    fleet = ChipFleet(bed.chips)
    profiler = FleetProfiler(iterations=int(first["iterations"]))

    base_temp = temperatures[0]
    bed.set_ambient(base_temp)
    interval_failures: List[List[List[float]]] = [[] for _ in members]
    grid = [Conditions(trefi=t, temperature=base_temp) for t in intervals]
    for ci, results in enumerate(profiler.run_grid(fleet, grid)):
        for i, result in enumerate(results):
            interval_failures[i].append([intervals[ci], float(len(result))])

    top = max(intervals)
    temperature_failures: List[List[List[float]]] = []
    for rows in interval_failures:
        top_count = next(count for trefi, count in rows if trefi == top)
        temperature_failures.append([[base_temp, top_count]])
    for temperature in temperatures[1:]:
        bed.set_ambient(temperature)
        (results,) = profiler.run_grid(
            fleet, [Conditions(trefi=top, temperature=temperature)]
        )
        for i, result in enumerate(results):
            temperature_failures[i].append([temperature, float(len(result))])

    return {
        "chips": [
            {
                "unit_id": member["unit_id"],
                "value": {
                    "chip_id": chip_ids[i],
                    "vendor": str(member["payload"]["vendor"]),
                    "interval_failures": interval_failures[i],
                    "temperature_failures": temperature_failures[i],
                },
            }
            for i, member in enumerate(members)
        ]
    }


def expand_fleet_result(
    unit: WorkUnit, result: UnitResult
) -> Tuple[UnitResult, ...]:
    """Convert one fleet chunk's result into per-chip results.

    An ok chunk yields one ok row per member carrying exactly the value
    :func:`measure_chip` would have produced; a failed chunk yields one
    failed row per member sharing the chunk's :class:`UnitFailure` (every
    member chip is unmeasured -- the retry already happened in-worker).
    ``elapsed_s`` is split evenly across members; it is bookkeeping only
    and never participates in aggregation.
    """
    members = list(unit.payload["members"])
    elapsed = result.elapsed_s / len(members) if members else 0.0
    if not result.ok:
        return tuple(
            UnitResult(
                unit_id=str(member["unit_id"]),
                status=STATUS_FAILED,
                error=result.error,
                attempts=result.attempts,
                elapsed_s=elapsed,
            )
            for member in members
        )
    chips = list(result.value["chips"]) if isinstance(result.value, Mapping) else None
    if chips is None or [str(c["unit_id"]) for c in chips] != [
        str(m["unit_id"]) for m in members
    ]:
        raise ConfigurationError(
            f"fleet result for {unit.unit_id!r} does not cover its members "
            "exactly; the worker and the chunk payload disagree"
        )
    return tuple(
        UnitResult(
            unit_id=str(chip["unit_id"]),
            status=STATUS_OK,
            value=chip["value"],
            attempts=result.attempts,
            elapsed_s=elapsed,
        )
        for chip in chips
    )


def fleet_dispatch(chips_per_unit: int) -> UnitDispatch:
    """A :class:`~repro.runner.engine.UnitDispatch` that ships chips to
    workers in fleet chunks of ``chips_per_unit``, each measured by
    :func:`measure_fleet` -- the route every campaign takes."""
    if chips_per_unit <= 0:
        raise ConfigurationError(
            f"chips_per_unit must be positive, got {chips_per_unit!r}"
        )

    def group(pending: Tuple[WorkUnit, ...]) -> Tuple[WorkUnit, ...]:
        return build_fleet_units(pending, chips_per_unit)

    return UnitDispatch(worker=measure_fleet, group=group, expand=expand_fleet_result)


def aggregate_chip_results(
    results: Iterable[UnitResult],
) -> Tuple[CountTable, CountTable]:
    """Fold ok unit results into (interval, temperature) count tables.

    Results are sorted by chip id first, so the tables -- and everything
    derived from them -- are identical for any completion order and for any
    serial/parallel/resumed execution mix.
    """
    ordered = sorted(
        (r.value for r in results if r.ok), key=lambda value: int(value["chip_id"])
    )
    interval_counts: CountTable = {}
    temperature_counts: CountTable = {}
    for value in ordered:
        vendor = str(value["vendor"])
        for trefi, count in value["interval_failures"]:
            interval_counts.setdefault(vendor, {}).setdefault(float(trefi), []).append(
                int(count)
            )
        for temperature, count in value["temperature_failures"]:
            temperature_counts.setdefault(vendor, {}).setdefault(
                float(temperature), []
            ).append(int(count))
    return interval_counts, temperature_counts
