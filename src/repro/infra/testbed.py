"""The full testing infrastructure: chamber + chips + shared clock.

Equivalent of the paper's Section 4 setup: a thermally controlled chamber
hosting many chips, all driven from one simulated clock.  Temperature
changes go through the chamber's PID settle (costing simulated time and
leaving sub-0.25 degC residual error), and each chip sees the chamber
temperature plus a small fixed placement offset -- the physical noise
sources behind the paper's footnote about imperfect contours.  The offset
is keyed by ``(seed, chip_id)``, so a chip sees the same temperatures in a
full :meth:`TestBed.build` bed as racked alone, as a campaign unit racks it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import rng as rng_mod
from ..clock import SimClock
from ..conditions import Conditions
from ..dram.chip import DEFAULT_GEOMETRY, SimulatedDRAMChip, chip_stream_keys
from ..dram.geometry import ChipGeometry
from ..dram.vendor import VENDORS, VendorModel
from ..errors import ConfigurationError
from .chamber import ThermalChamber


class TestBed:
    """A chamber full of chips, operated as one instrument."""

    #: Not a test class, whatever its name (pytest collects ``Test*``).
    __test__ = False

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
        self.seed = int(seed)
        self.chips: List[SimulatedDRAMChip] = []
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

        Chip ids run sequentially across vendors in ``vendors`` order, and
        the chips are racked as :meth:`build_members` racks them.
        ``max_temperature_c`` defaults above the chamber range (40-55 degC)
        so chips never reject a temperature the chamber can legally reach.
        """
        chosen = list(vendors) if vendors is not None else list(VENDORS.values())
        members = [vendor for vendor in chosen for _ in range(chips_per_vendor)]
        return cls.build_members(
            list(enumerate(members)),
            geometry=geometry,
            seed=seed,
            max_trefi_s=max_trefi_s,
            max_temperature_c=max_temperature_c,
        )

    @classmethod
    def build_members(
        cls,
        members: Sequence[Tuple[int, VendorModel]],
        geometry: ChipGeometry = DEFAULT_GEOMETRY,
        seed: int = rng_mod.DEFAULT_SEED,
        max_trefi_s: float = 2.6,
        max_temperature_c: float = 60.0,
        fast_path: bool = True,
    ) -> "TestBed":
        """Rack the chips ``members`` (``(chip_id, vendor)`` pairs) in one bed.

        Every draw a chip makes, its placement offset included, is keyed by
        (seed, chip_id), so no chip depends on which others share its bed
        -- the basis for decomposing a campaign into work units of any size
        that run anywhere, in any order.  The chamber is seeded with
        ``seed`` as well, and every chamber of one seed settles along the
        same trajectory, so a chip sees the same clock and temperatures
        here as in a bed of its own.

        ``fast_path=False`` builds the chips on the reference failure
        evaluator, in place of the Chernoff-cut read (the oracle
        :func:`repro.runner.measure_chip` exposes;
        :meth:`~repro.core.bruteforce.BruteForceProfiler.run` walks such
        chips).

        Every member's streams, placement included, are derived in one
        :func:`~repro.rng.derive_many` call and handed to the chips, which
        :meth:`~repro.dram.chip.SimulatedDRAMChip.rack` builds together:
        the same generator states each chip would derive one key at a
        time, and the chips ``SimulatedDRAMChip(streams=...)`` builds.
        """
        bed = cls(seed=seed)
        keys = [
            {**chip_stream_keys(vendor, chip_id), "placement": ("placement", chip_id)}
            for chip_id, vendor in members
        ]
        streams = iter(rng_mod.derive_many(seed, [key for k in keys for key in k.values()]))
        given = [{name: next(streams) for name in names} for names in keys]
        offsets = [_offset(chip_streams.pop("placement")) for chip_streams in given]
        chips = SimulatedDRAMChip.rack(
            members,
            geometry=geometry,
            seed=seed,
            clock=bed.clock,
            max_trefi_s=max_trefi_s,
            max_temperature_c=max_temperature_c,
            fast_path=fast_path,
            streams=given,
        )
        for chip, offset in zip(chips, offsets):
            bed._rack(chip, offset)
        return bed

    @staticmethod
    def placement_offset(seed: int, chip_id: int) -> float:
        """Deterministic airflow-placement offset for one chip.

        Keyed by (seed, chip_id) so it does not depend on the order chips
        were racked or on which other chips share the bed.
        """
        return _offset(rng_mod.derive(seed, "placement", chip_id))

    def add_chip(self, chip: SimulatedDRAMChip) -> None:
        """Rack ``chip`` at its fixed spot in the airflow
        (:meth:`placement_offset` under the bed's seed)."""
        self._rack(chip, self.placement_offset(self.seed, chip.chip_id))

    def _rack(self, chip: SimulatedDRAMChip, offset: float) -> None:
        if chip.clock is not self.clock:
            raise ConfigurationError("chip must share the testbed clock")
        self.chips.append(chip)
        self._placement_offsets.append(offset)

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


def _offset(placement) -> float:
    """A chip's placement offset, drawn from its placement stream."""
    return float(placement.normal(0.0, 0.1))
