"""Population-scale characterization campaigns.

The paper's credibility rests on characterizing 368 chips across three
vendors.  :class:`CharacterizationCampaign` packages that workflow at any
population size: decompose the population into independent per-chip work
units, execute them through the :mod:`repro.runner` engine (in-process,
or across a process pool when ``workers`` is more than one), and
aggregate per-vendor statistics -- the measured BER curves, the empirical
Eq-1 temperature coefficients, and the spread across chips -- into a
single summary report.

Passing ``run_dir`` makes the run durable: completed chips stream into a
JSONL result store, and relaunching with ``resume=True`` executes only the
chips that are missing.  Serial, parallel, and resumed runs of the same
configuration produce identical summaries -- every chip's measurement is a
pure function of ``(seed, chip_id)`` and aggregation erases completion
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import rng as rng_mod
from ..dram.geometry import ChipGeometry
# No campaign calls it: benchmarks/suite/layers.py wraps this name as its
# ``dram.shm.sample`` layer, so the name stays until repro.dram.shm goes.
from ..dram.shm import build_population_samples  # noqa: F401
from ..dram.vendor import VENDORS, vendor_by_name
from ..errors import ConfigurationError
from ..runner import (
    Backend,
    ProgressCallback,
    RunnerEngine,
    aggregate_chip_results,
    build_chip_units,
    campaign_fingerprint,
    campaign_schedule,
    default_chips_per_unit,
    fleet_dispatch,
    measure_chip,
)
from .characterization import DEFAULT_CHAR_GEOMETRY
from .report import ascii_table


@dataclass(frozen=True)
class VendorStatistics:
    """Aggregated measurements for one vendor's chip population."""

    vendor: str
    n_chips: int
    #: trefi_s -> (mean BER, std BER across chips)
    ber_by_interval: Dict[float, Tuple[float, float]]
    #: Empirical Eq-1 coefficient from the multi-temperature measurement.
    measured_temp_coefficient: Optional[float]
    model_temp_coefficient: float

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON form; float map keys become their ``repr`` strings
        so the round trip through :meth:`from_json_dict` is lossless."""
        return {
            "vendor": self.vendor,
            "n_chips": self.n_chips,
            "ber_by_interval": {
                repr(float(trefi)): [mean, std]
                for trefi, (mean, std) in sorted(self.ber_by_interval.items())
            },
            "measured_temp_coefficient": self.measured_temp_coefficient,
            "model_temp_coefficient": self.model_temp_coefficient,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "VendorStatistics":
        measured = data.get("measured_temp_coefficient")
        return cls(
            vendor=str(data["vendor"]),
            n_chips=int(data["n_chips"]),  # type: ignore[arg-type]
            ber_by_interval={
                float(trefi): (float(pair[0]), float(pair[1]))
                for trefi, pair in data["ber_by_interval"].items()  # type: ignore[union-attr]
            },
            measured_temp_coefficient=(
                None if measured is None else float(measured)  # type: ignore[arg-type]
            ),
            model_temp_coefficient=float(data["model_temp_coefficient"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class CampaignSummary:
    """Everything a campaign measured."""

    n_chips: int
    intervals_s: Tuple[float, ...]
    temperatures_c: Tuple[float, ...]
    vendors: Dict[str, VendorStatistics]
    #: Unit ids whose chips could not be measured (retries exhausted).
    failed_units: Tuple[str, ...] = field(default=())

    def to_text(self) -> str:
        rows: List[List] = []
        for stats in self.vendors.values():
            for trefi, (mean, std) in sorted(stats.ber_by_interval.items()):
                rows.append([stats.vendor, trefi * 1e3, mean, std])
        table = ascii_table(
            ["vendor", "tREFI (ms)", "BER mean", "BER std"],
            rows,
            title=f"Campaign over {self.n_chips} chips",
        )
        lines = [table, "Temperature coefficients (Eq 1):"]
        for stats in self.vendors.values():
            measured = (
                f"{stats.measured_temp_coefficient:.3f}"
                if stats.measured_temp_coefficient is not None
                else "n/a"
            )
            lines.append(
                f"  vendor {stats.vendor}: measured k={measured} "
                f"(model k={stats.model_temp_coefficient:.2f})"
            )
        if self.failed_units:
            lines.append(
                f"Unmeasured chips ({len(self.failed_units)}): "
                + ", ".join(self.failed_units)
            )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        """Wire/ledger form of the summary: plain JSON, fully ordered.

        ``json.dumps(summary.to_json_dict(), sort_keys=True)`` is the
        service's result payload; because the dict is built from sorted
        components, two equal summaries serialize to identical bytes --
        the property the service's byte-identity tests pin.
        """
        return {
            "n_chips": self.n_chips,
            "intervals_s": [float(t) for t in self.intervals_s],
            "temperatures_c": [float(t) for t in self.temperatures_c],
            "vendors": {
                name: stats.to_json_dict()
                for name, stats in sorted(self.vendors.items())
            },
            "failed_units": list(self.failed_units),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "CampaignSummary":
        return cls(
            n_chips=int(data["n_chips"]),  # type: ignore[arg-type]
            intervals_s=tuple(float(t) for t in data["intervals_s"]),  # type: ignore[union-attr]
            temperatures_c=tuple(float(t) for t in data["temperatures_c"]),  # type: ignore[union-attr]
            vendors={
                str(name): VendorStatistics.from_json_dict(stats)
                for name, stats in data["vendors"].items()  # type: ignore[union-attr]
            },
            failed_units=tuple(str(u) for u in data["failed_units"]),  # type: ignore[union-attr]
        )


class CharacterizationCampaign:
    """Runs a multi-chip, multi-vendor characterization campaign.

    Parameters
    ----------
    chips_per_vendor:
        Population size per vendor (the paper used ~123 per vendor; any
        size works, statistics tighten with more chips).
    geometry:
        Simulated chip capacity.
    iterations:
        Brute-force iterations per measurement point.
    """

    def __init__(
        self,
        chips_per_vendor: int = 2,
        geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
        iterations: int = 2,
        seed: int = rng_mod.DEFAULT_SEED,
    ) -> None:
        if chips_per_vendor <= 0:
            raise ConfigurationError("chips_per_vendor must be positive")
        if iterations <= 0:
            raise ConfigurationError(f"iterations must be positive, got {iterations!r}")
        self.chips_per_vendor = chips_per_vendor
        self.geometry = geometry
        self.iterations = iterations
        self.seed = seed

    def run(
        self,
        intervals_s: Sequence[float] = (0.512, 1.024, 2.048),
        temperatures_c: Sequence[float] = (45.0, 55.0),
        *,
        backend: Optional[Backend] = None,
        workers: Optional[int] = None,
        run_dir: Optional[str] = None,
        resume: bool = False,
        max_retries: int = 1,
        progress: Optional[ProgressCallback] = None,
        chips_per_unit: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        observability: Optional[object] = None,
    ) -> CampaignSummary:
        """Measure BER curves and temperature scaling across the population.

        The first temperature hosts the interval sweep; the remaining
        temperatures measure the failure-rate scaling at the largest
        interval, from which the empirical Eq-1 coefficient is fitted.
        Fitting needs at least two *distinct* temperatures; with fewer, the
        summary reports ``measured_temp_coefficient=None`` instead of
        attempting a degenerate fit.

        Execution goes through :class:`repro.runner.RunnerEngine`:
        ``workers > 1`` runs a process pool of that width and anything
        less runs in-process, unless ``backend`` hands in a backend
        instance (the service's shared pool);
        ``run_dir``/``resume`` make the run durable and restartable,
        ``max_retries`` bounds per-chip re-attempts before a failure row is
        recorded, and ``progress`` observes every completed chip.

        Every chip is measured by the fused condition-grid kernel: chips
        travel to workers in units of ``chips_per_unit``, each unit one
        :func:`repro.runner.measure_fleet` call that evaluates the whole
        condition grid fused
        (:meth:`repro.core.fleetprof.FleetProfiler.count_grid`).
        ``chips_per_unit=None`` computes the unit size from the chip
        capacity and the backend's worker count
        (:func:`repro.runner.default_chips_per_unit`): large chips travel
        one per unit, small chips batch, never into fewer units than
        workers.  Every unit draws its chips' weak-cell populations in the
        worker.  Every stored row equals :func:`repro.runner.measure_chip`
        on its chip (the per-chip reference walk), the result store holds
        one row per chip, and the campaign fingerprint ignores the unit
        size -- any unit size resumes any run directory.

        ``should_stop`` plugs a cooperative-cancellation probe into the
        engine (graceful SIGINT/SIGTERM, the service's cancel endpoint):
        in-flight chips drain and persist, the manifest is marked
        interrupted, and the partial summary covers exactly the measured
        chips.  ``observability`` injects an explicit
        :class:`repro.obs.Observability` instance for per-run telemetry
        scoping (the service gives every job its own).
        """
        campaign_schedule(intervals_s, temperatures_c)
        # The configuration, stated once: it builds the units, fingerprints
        # the campaign and is recorded in the manifest.
        config = {
            "chips_per_vendor": self.chips_per_vendor,
            "iterations": self.iterations,
            "seed": self.seed,
            "intervals_s": [float(t) for t in intervals_s],
            "temperatures_c": [float(t) for t in temperatures_c],
            "vendors": list(VENDORS),
        }
        units = build_chip_units(geometry=self.geometry, **config)
        manifest = dict(
            config,
            kind="characterization-campaign",
            fingerprint=campaign_fingerprint(geometry=self.geometry, **config),
            n_units=len(units),
            # Not part of the fingerprint (older run dirs lack it): the
            # lake's analytics layer uses it to turn raw failure counts
            # into per-bit failure rates.
            capacity_bits=int(self.geometry.capacity_bits),
        )
        engine = RunnerEngine(
            backend=backend,
            workers=workers,
            run_dir=run_dir,
            resume=resume,
            max_retries=max_retries,
            progress=progress,
            observability=observability,  # type: ignore[arg-type]
            should_stop=should_stop,
        )
        if chips_per_unit is None:
            chips_per_unit = default_chips_per_unit(
                self.geometry.capacity_bits, len(units), engine.backend.workers
            )
        # fleet_dispatch refuses a non-positive unit size before the run
        # directory is opened.
        report = engine.run(
            measure_chip, units, manifest, dispatch=fleet_dispatch(chips_per_unit)
        )
        counts, temp_counts = aggregate_chip_results(report.results.values())
        chips_by_vendor = Counter(
            str(r.value["vendor"]) for r in report.results.values() if r.ok
        )

        # The Eq-1 fit is only meaningful across distinct temperatures.
        fit_temperatures = len({float(t) for t in temperatures_c}) >= 2

        capacity = self.geometry.capacity_bits
        vendors: Dict[str, VendorStatistics] = {}
        measured_chips = 0
        for vendor_name, by_interval in counts.items():
            ber = {
                trefi: (
                    float(np.mean(values)) / capacity,
                    float(np.std(values)) / capacity,
                )
                for trefi, values in by_interval.items()
            }
            n_chips = chips_by_vendor[vendor_name]
            measured_chips += n_chips
            coefficient = (
                self._fit_temp_coefficient(temp_counts[vendor_name])
                if fit_temperatures
                else None
            )
            vendors[vendor_name] = VendorStatistics(
                vendor=vendor_name,
                n_chips=n_chips,
                ber_by_interval=ber,
                measured_temp_coefficient=coefficient,
                model_temp_coefficient=vendor_by_name(vendor_name).failure_rate_temp_coeff,
            )
        return CampaignSummary(
            n_chips=measured_chips,
            intervals_s=tuple(intervals_s),
            temperatures_c=tuple(temperatures_c),
            vendors=vendors,
            failed_units=tuple(sorted(report.failed_results())),
        )

    @staticmethod
    def _fit_temp_coefficient(by_temperature: Dict[float, List[int]]) -> Optional[float]:
        """ln(failures) vs temperature regression -> Eq-1 coefficient."""
        points = [
            (temp, float(np.mean(values)))
            for temp, values in sorted(by_temperature.items())
            if np.mean(values) > 0
        ]
        if len(points) < 2:
            return None
        temps = np.array([p[0] for p in points])
        lns = np.log(np.array([p[1] for p in points]))
        slope, _ = np.polyfit(temps, lns, 1)
        return float(slope)
