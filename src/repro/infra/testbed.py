"""The full testing infrastructure: chamber + chips + shared clock.

Equivalent of the paper's Section 4 setup: a thermally controlled chamber
hosting many chips, all driven from one simulated clock.  Temperature
changes go through the chamber's PID settle (costing simulated time and
leaving sub-0.25 degC residual error), and each chip sees the chamber
temperature plus a small fixed placement offset -- the physical noise
sources behind the paper's footnote about imperfect contours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .. import rng as rng_mod
from ..clock import SimClock
from ..conditions import Conditions
from ..dram.chip import DEFAULT_GEOMETRY, SimulatedDRAMChip
from ..dram.geometry import ChipGeometry
from ..dram.vendor import VENDORS, VendorModel
from ..errors import ConfigurationError
from .chamber import ThermalChamber


class TestBed:
    """A chamber full of chips, operated as one instrument."""

    def __init__(
        self,
        chamber: Optional[ThermalChamber] = None,
        clock: Optional[SimClock] = None,
        seed: int = rng_mod.DEFAULT_SEED,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.chamber = chamber if chamber is not None else ThermalChamber(clock=self.clock, seed=seed)
        if self.chamber.clock is not self.clock:
            raise ConfigurationError("chamber and testbed must share one clock")
        self.chips: List[SimulatedDRAMChip] = []
        self._placement_rng = rng_mod.derive(seed, "placement")
        self._placement_offsets: List[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        chips_per_vendor: int = 2,
        vendors: Optional[Sequence[VendorModel]] = None,
        geometry: ChipGeometry = DEFAULT_GEOMETRY,
        seed: int = rng_mod.DEFAULT_SEED,
        max_trefi_s: float = 2.6,
        max_temperature_c: float = 60.0,
    ) -> "TestBed":
        """Populate a testbed with chips from each vendor.

        ``max_temperature_c`` defaults above the chamber range (40-55 degC)
        so chips never reject a temperature the chamber can legally reach.
        """
        bed = cls(seed=seed)
        chosen = list(vendors) if vendors is not None else list(VENDORS.values())
        chip_id = 0
        for vendor in chosen:
            for _ in range(chips_per_vendor):
                bed.add_chip(
                    SimulatedDRAMChip(
                        vendor=vendor,
                        geometry=geometry,
                        seed=seed,
                        chip_id=chip_id,
                        clock=bed.clock,
                        max_trefi_s=max_trefi_s,
                        max_temperature_c=max_temperature_c,
                    )
                )
                chip_id += 1
        return bed

    @classmethod
    def build_single(
        cls,
        chip_id: int,
        vendor: VendorModel,
        geometry: ChipGeometry = DEFAULT_GEOMETRY,
        seed: int = rng_mod.DEFAULT_SEED,
        max_trefi_s: float = 2.6,
        max_temperature_c: float = 60.0,
        fast_path: bool = True,
        sample=None,
    ) -> "TestBed":
        """Build a one-chip testbed for the chip with global id ``chip_id``.

        The chip is identical to the one a full :meth:`build` would create
        under the same (seed, chip_id), and its placement offset comes from
        :meth:`placement_offset`, so the construction is independent of any
        other chip -- the basis for decomposing a campaign into per-chip
        work units that can run anywhere, in any order.

        ``sample`` optionally supplies the chip's prebuilt weak-cell
        population (e.g. shared-memory views); it must be exactly what
        :func:`repro.dram.chip.sample_weak_cells` returns for this chip.
        ``fast_path=False`` builds the chip on the reference failure
        evaluator (the oracle :func:`repro.runner.measure_chip` exposes).
        """
        bed = cls(seed=seed)
        bed.add_chip(
            SimulatedDRAMChip(
                vendor=vendor,
                geometry=geometry,
                seed=seed,
                chip_id=chip_id,
                clock=bed.clock,
                max_trefi_s=max_trefi_s,
                max_temperature_c=max_temperature_c,
                fast_path=fast_path,
                sample=sample,
            ),
            placement_offset=cls.placement_offset(seed, chip_id),
        )
        return bed

    @staticmethod
    def placement_offset(seed: int, chip_id: int) -> float:
        """Deterministic airflow-placement offset for one chip.

        Keyed by (seed, chip_id) so it does not depend on the order chips
        were racked -- unlike the legacy sequential draw in
        :meth:`add_chip`, which remains for full-bed construction.
        """
        return float(rng_mod.derive(seed, "placement", chip_id).normal(0.0, 0.1))

    def add_chip(
        self, chip: SimulatedDRAMChip, placement_offset: Optional[float] = None
    ) -> None:
        if chip.clock is not self.clock:
            raise ConfigurationError("chip must share the testbed clock")
        self.chips.append(chip)
        # Fixed per-chip placement offset: chips sit at slightly different
        # spots in the airflow.
        if placement_offset is None:
            placement_offset = float(self._placement_rng.normal(0.0, 0.1))
        self._placement_offsets.append(placement_offset)

    def chips_by_vendor(self) -> Dict[str, List[SimulatedDRAMChip]]:
        grouped: Dict[str, List[SimulatedDRAMChip]] = {}
        for chip in self.chips:
            grouped.setdefault(chip.vendor.name, []).append(chip)
        return grouped

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def set_ambient(self, ambient_c: float, settle: bool = True) -> float:
        """Retarget the chamber and propagate the settled temperature to chips.

        Returns the seconds spent settling.  With ``settle=False`` the
        setpoint changes but chips immediately see the (unsettled) chamber
        temperature -- useful for tests exercising the transient.
        """
        self.chamber.set_target(ambient_c)
        elapsed = self.chamber.settle() if settle else 0.0
        for chip, offset in zip(self.chips, self._placement_offsets):
            chip.sync()
            chip.set_temperature(self.chamber.ambient_c + offset)
        return elapsed

    def profile_all(self, profiler, conditions: Conditions) -> Dict[int, object]:
        """Run one profiler across every chip; keyed by chip_id.

        ``profiler`` is anything with ``run(device, conditions)`` --
        brute-force, reach, or scrubbing.
        """
        results: Dict[int, object] = {}
        for chip in self.chips:
            results[chip.chip_id] = profiler.run(chip, conditions)
        return results


class FleetBed:
    """A batch of single-chip testbeds operated in lock-step.

    The fleet measurement worker needs B chips whose *construction* and
    *environment* are byte-identical to what B independent per-chip
    :meth:`TestBed.build_single` workers would have produced -- same weak
    tails, same placement offsets, same chamber trajectories.  So a
    FleetBed simply holds B single-chip beds (one chamber and clock each,
    all seeded identically) and exploits a structural fact for speed:
    chambers constructed from the same seed replay *identical* PID/noise
    trajectories, so one settle on the lead bed yields exactly the elapsed
    time and settled ambient every member bed's own settle would have
    produced.  :meth:`set_ambient` therefore settles the lead chamber once
    and replays the result onto the other members (clock advance, VRT
    sync, per-chip placement-offset temperature) -- byte-identical to
    settling each bed, at ~1/B the cost.
    """

    def __init__(self, beds: Sequence[TestBed]) -> None:
        members = tuple(beds)
        if not members:
            raise ConfigurationError("a fleet bed needs at least one member bed")
        for bed in members:
            if len(bed.chips) != 1:
                raise ConfigurationError(
                    "fleet beds are built from single-chip testbeds; got a "
                    f"bed with {len(bed.chips)} chips"
                )
        self.beds = members

    @classmethod
    def build(
        cls,
        members: Sequence[tuple],
        geometry: ChipGeometry = DEFAULT_GEOMETRY,
        seed: int = rng_mod.DEFAULT_SEED,
        max_trefi_s: float = 2.6,
        max_temperature_c: float = 60.0,
        samples: Optional[Dict[int, object]] = None,
    ) -> "FleetBed":
        """Build one single-chip bed per ``(chip_id, vendor)`` member.

        Each member bed comes from :meth:`TestBed.build_single` with the
        shared ``seed``, so every chip -- population, VRT, placement offset
        -- is the exact chip an independent per-chip worker would build.

        ``samples`` optionally maps chip ids to prebuilt weak-cell samples
        (shared-memory views); missing chips fall back to drawing their own.
        """
        return cls(
            [
                TestBed.build_single(
                    chip_id=chip_id,
                    vendor=vendor,
                    geometry=geometry,
                    seed=seed,
                    max_trefi_s=max_trefi_s,
                    max_temperature_c=max_temperature_c,
                    sample=None if samples is None else samples.get(chip_id),
                )
                for chip_id, vendor in members
            ]
        )

    @property
    def chips(self) -> List[SimulatedDRAMChip]:
        return [bed.chips[0] for bed in self.beds]

    def set_ambient(self, ambient_c: float, settle: bool = True) -> float:
        """Retarget every member chamber; settle once, replay everywhere.

        Returns the seconds spent settling (identical for every member by
        the same-seed replay argument; the lead bed's settle is the one
        actually computed).
        """
        lead = self.beds[0]
        elapsed = lead.set_ambient(ambient_c, settle=settle)
        ambient = lead.chamber.ambient_c
        for bed in self.beds[1:]:
            bed.chamber.set_target(ambient_c)
            bed.clock.advance(elapsed)
            chip = bed.chips[0]
            chip.sync()
            chip.set_temperature(ambient + bed._placement_offsets[0])
        return elapsed
