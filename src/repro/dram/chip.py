"""Command-level simulated LPDDR4 DRAM chip.

:class:`SimulatedDRAMChip` is the stand-in for one of the paper's 368 real
chips.  Profilers interact with it exactly the way the paper's SoftMC-style
infrastructure interacts with hardware -- through DRAM commands:

    chip.write_pattern(pattern)     # fill the array with a test pattern
    chip.disable_refresh()
    chip.wait(target_trefi)         # accumulate a retention exposure
    chip.enable_refresh()
    errors = chip.read_errors()     # flat indices of failing cells

Everything costs simulated time (full-array IO latencies from
:mod:`repro.dram.timing`), every command is recorded on a
:class:`~repro.dram.commands.CommandTrace`, and the chip additionally exposes
a ground-truth *oracle* of its failing cells -- something only a simulator
can offer, used to score profiling coverage and false positive rates.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import rng as rng_mod
from ..clock import SimClock
from ..conditions import REFERENCE_TEMPERATURE_C, Conditions
from ..errors import CommandSequenceError, ConfigurationError
from ..patterns import DataPattern
from .cell import WeakCellPopulation
from .commands import Command, CommandTrace
from .dpd import DPDModel
from .geometry import ChipGeometry
from .retention import RetentionSampler, WeakCellSample, sample_many
from .timing import pattern_io_seconds
from .vendor import VENDOR_B, VendorModel
from .vrt import VRTProcess

#: Default simulated chip capacity: 1 Gbit keeps the weak tail ~1e4 cells.
DEFAULT_GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0)

#: Hard upper bound on chip operating temperature.  The weak-cell population
#: is always instantiated with retention headroom out to this temperature so
#: that two chips sharing (vendor, geometry, seed, chip_id, max_trefi_s) have
#: identical populations regardless of their per-instance temperature limits.
MAX_SUPPORTED_TEMPERATURE_C = 60.0


def chip_stream_keys(vendor: VendorModel, chip_id: int) -> Dict[str, Tuple]:
    """The keys of the streams a chip derives at construction, by name:
    ``derive(seed, *key)`` is the stream :class:`SimulatedDRAMChip` draws
    that part of itself from.  A caller that derives them in bulk
    (:func:`repro.rng.derive_many`) hands the chip the generators as its
    ``streams``."""
    keys: Dict[str, Tuple] = {
        name: (name, chip_id) for name in ("retention", "dpd", "vrt", "read")
    }
    if vendor.chip_to_chip_ln_sigma > 0.0:
        keys["chip-variation"] = ("chip-variation", chip_id, vendor.name)
    return keys


def effective_vendor(
    vendor: VendorModel,
    seed: int,
    chip_id: int,
    rng: Optional[np.random.Generator] = None,
) -> VendorModel:
    """The vendor model with this chip's process-variation jitter applied.

    Chip-to-chip process variation: each physical chip gets its own
    retention-tail median, deterministically derived from (seed, chip_id,
    vendor) so same-configuration chips stay reproducible.  This is the
    exact draw :class:`SimulatedDRAMChip` makes at construction, factored
    out so population builders (the shared-memory store) can replicate it
    bit for bit without constructing a chip.  ``rng``, when given, is that
    ``"chip-variation"`` stream already derived.
    """
    if vendor.chip_to_chip_ln_sigma > 0.0:
        if rng is None:
            rng = rng_mod.derive(seed, *chip_stream_keys(vendor, chip_id)["chip-variation"])
        jitter = float(rng.normal(0.0, vendor.chip_to_chip_ln_sigma))
        vendor = vendor.with_retention_ln_median(vendor.retention_ln_median + jitter)
    return vendor


def weak_cell_horizon_s(vendor: VendorModel, max_trefi_s: float) -> float:
    """Weak-tail sampling horizon in reference-temperature space.

    Hotter operation shrinks retention times, pulling more of the tail below
    ``max_trefi_s``.  The headroom always extends to the hard temperature cap
    (not any per-instance limit) so the population depends only on
    (vendor, geometry, seed, chip_id, max_trefi_s).
    """
    headroom = math.exp(
        vendor.retention_temp_coeff
        * (MAX_SUPPORTED_TEMPERATURE_C - REFERENCE_TEMPERATURE_C)
    )
    return max_trefi_s * headroom


def sample_weak_cells(
    vendor: VendorModel,
    geometry: ChipGeometry,
    seed: int,
    chip_id: int,
    max_trefi_s: float,
) -> WeakCellSample:
    """Draw the weak-cell population chip construction would draw.

    Byte-identical to the sample :class:`SimulatedDRAMChip` builds in its
    constructor under the same arguments: same jittered vendor, same derived
    ``(seed, "retention", chip_id)`` stream, same horizon.
    """
    vendor = effective_vendor(vendor, seed, chip_id)
    sampler = RetentionSampler(vendor, rng_mod.derive(seed, "retention", chip_id))
    return sampler.sample(geometry.capacity_bits, weak_cell_horizon_s(vendor, max_trefi_s))


def _check_limits(max_trefi_s: float, max_temperature_c: float, temperature_c: float) -> None:
    """A chip's input checks on its exposure and temperature limits."""
    if max_trefi_s <= 0.0:
        raise ConfigurationError(f"max_trefi_s must be positive, got {max_trefi_s!r}")
    if max_temperature_c > MAX_SUPPORTED_TEMPERATURE_C:
        raise ConfigurationError(
            f"max_temperature_c {max_temperature_c!r} exceeds the supported "
            f"maximum of {MAX_SUPPORTED_TEMPERATURE_C} degC"
        )
    if temperature_c > max_temperature_c:
        raise ConfigurationError(
            f"initial temperature {temperature_c!r} exceeds max_temperature_c"
        )


def _populate(
    chips: Sequence["SimulatedDRAMChip"],
    streams: Sequence[Mapping[str, np.random.Generator]],
    fast_path: bool,
) -> None:
    """Draw placed chips' populations and start them.

    Chip ``i`` uses the generators ``streams[i]`` hands it (by the names of
    :func:`chip_stream_keys`) and derives the rest: its process variation
    (:func:`effective_vendor`), its weak tail (every chip's drawn by one
    :func:`~repro.dram.retention.sample_many` call, the chips sharing one
    capacity), its DPD model, and the run state :meth:`_start` sets up.
    """

    def stream(chip: "SimulatedDRAMChip", given: Mapping, name: str) -> np.random.Generator:
        handed = given.get(name)
        return handed if handed is not None else chip._derive(name)

    if not chips:
        return
    capacity_bits = chips[0].geometry.capacity_bits
    for chip, given in zip(chips, streams):
        chip.vendor = effective_vendor(chip.vendor, chip.seed, chip.chip_id, given.get("chip-variation"))
        chip._weak_horizon_s = weak_cell_horizon_s(chip.vendor, chip._max_trefi_s)
    samples = sample_many(
        [chip.vendor for chip in chips],
        [stream(chip, given, "retention") for chip, given in zip(chips, streams)],
        capacity_bits,
        [chip._weak_horizon_s for chip in chips],
    )
    io_seconds = pattern_io_seconds(capacity_bits)
    for chip, given, sample in zip(chips, streams, samples):
        bits_per_row = chip.geometry.bits_per_row
        rows, cols = np.divmod(sample.indices, bits_per_row)
        dpd = DPDModel(
            susceptibility=sample.susceptibility,
            rng=stream(chip, given, "dpd"),
            random_alignment_cap=chip.vendor.random_alignment_cap,
            rows=rows,
            cols=cols,
            orientation=sample.orientation,
            bits_per_row=bits_per_row,
        )
        chip.population = WeakCellPopulation(sample, chip.vendor, dpd, fast_path=fast_path)
        chip._io_seconds = io_seconds
        chip._start(stream(chip, given, "vrt"), stream(chip, given, "read"))


class SimulatedDRAMChip:
    """One simulated DRAM chip with retention, VRT, and DPD behaviour.

    Parameters
    ----------
    vendor:
        Statistical behaviour model (defaults to the paper's representative
        vendor B).
    geometry:
        Physical organization; defaults to a 1 Gbit chip.
    seed / chip_id:
        Together determine every random draw the chip will ever make, so two
        chips with the same (seed, chip_id) are statistically identical runs.
    clock:
        Shared simulated clock; a private one is created if omitted.
    max_trefi_s:
        Largest retention exposure the chip will be asked to sustain.  The
        weak tail and the VRT process are instantiated out to this horizon
        (adjusted for ``max_temperature_c``); longer exposures raise
        :class:`~repro.errors.ConfigurationError` instead of silently
        under-reporting failures.
    max_temperature_c:
        Highest ambient temperature the chip will be operated at.
    temperature_c:
        Initial ambient temperature.
    fast_path:
        ``False`` swaps the Chernoff-cut read of
        :class:`~repro.dram.cell.WeakCellPopulation` for the reference
        computation it is byte-identical to (the test oracle); such a chip
        is also never profiled on the grid kernel
        (:meth:`~repro.core.bruteforce.BruteForceProfiler.run` walks it).
    streams:
        Generators already derived for this chip, by the names of
        :func:`chip_stream_keys` (each in the state ``derive(seed, *key)``
        gives); the chip derives every stream not given.
        :meth:`~repro.infra.testbed.TestBed.build_members` derives a whole
        bed's in one :func:`~repro.rng.derive_many` call.
    """

    def __init__(
        self,
        vendor: VendorModel = VENDOR_B,
        geometry: ChipGeometry = DEFAULT_GEOMETRY,
        seed: int = rng_mod.DEFAULT_SEED,
        chip_id: int = 0,
        clock: Optional[SimClock] = None,
        max_trefi_s: float = 2.6,
        max_temperature_c: float = MAX_SUPPORTED_TEMPERATURE_C,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        fast_path: bool = True,
        streams: Optional[Mapping[str, np.random.Generator]] = None,
    ) -> None:
        _check_limits(max_trefi_s, max_temperature_c, temperature_c)
        self._place(vendor, geometry, seed, chip_id, clock, max_trefi_s, max_temperature_c, temperature_c)
        _populate([self], [streams if streams is not None else {}], fast_path)

    @classmethod
    def rack(
        cls,
        members: Sequence[Tuple[int, VendorModel]],
        geometry: ChipGeometry,
        seed: int,
        clock: SimClock,
        max_trefi_s: float,
        max_temperature_c: float,
        fast_path: bool,
        streams: Sequence[Mapping[str, np.random.Generator]],
    ) -> List["SimulatedDRAMChip"]:
        """The chips ``members`` (``(chip_id, vendor)`` pairs) on one
        ``clock``, chip ``i`` built exactly as ``SimulatedDRAMChip(vendor,
        geometry, seed, chip_id, clock, max_trefi_s, max_temperature_c,
        fast_path=fast_path, streams=streams[i])`` builds it: the
        constructor is this path for one chip.  The weak tails are drawn
        together (:func:`~repro.dram.retention.sample_many`), so the
        per-cell numpy work runs once for every chip, not once per chip.
        """
        _check_limits(max_trefi_s, max_temperature_c, REFERENCE_TEMPERATURE_C)
        chips = []
        for chip_id, vendor in members:
            chip = cls.__new__(cls)
            chip._place(
                vendor,
                geometry,
                seed,
                chip_id,
                clock,
                max_trefi_s,
                max_temperature_c,
                REFERENCE_TEMPERATURE_C,
            )
            chips.append(chip)
        _populate(chips, streams, fast_path)
        return chips

    def _place(
        self,
        vendor: VendorModel,
        geometry: ChipGeometry,
        seed: int,
        chip_id: int,
        clock: Optional[SimClock],
        max_trefi_s: float,
        max_temperature_c: float,
        temperature_c: float,
    ) -> None:
        """Set the chip's identity and limits (``vendor`` before its
        process variation, which :func:`_populate` applies)."""
        self.vendor = vendor
        self.geometry = geometry
        self.chip_id = int(chip_id)
        self.seed = int(seed)
        self.clock = clock if clock is not None else SimClock()
        self._max_trefi_s = float(max_trefi_s)
        self._max_temperature_c = float(max_temperature_c)
        self._initial_temperature_c = float(temperature_c)
        self._external_clock = clock is not None

    def _derive(self, name: str) -> np.random.Generator:
        """This chip's ``name`` stream, freshly derived from (seed, chip_id)."""
        return rng_mod.derive(self.seed, *chip_stream_keys(self.vendor, self.chip_id)[name])

    def _start(self, vrt_rng: np.random.Generator, read_rng: np.random.Generator) -> None:
        """Set up the run state a chip starts from, at the clock's now: a
        fresh command trace, a VRT process on ``vrt_rng``, the read stream
        ``read_rng``, the initial temperature, refresh on and no pattern
        written."""
        self.trace = CommandTrace()
        self.vrt = VRTProcess(
            vendor=self.vendor,
            capacity_bits=self.geometry.capacity_bits,
            horizon_s=self._max_trefi_s,
            rng=vrt_rng,
            start_time_s=self.clock.now,
        )
        self._read_rng = read_rng
        self._temperature_c = self._initial_temperature_c
        self._pattern: Optional[DataPattern] = None
        self._alignment: Optional[np.ndarray] = None
        self._stressed: Optional[np.ndarray] = None
        self._refresh_enabled = True
        self._disable_time: Optional[float] = None
        self._frozen_exposure = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity_bits(self) -> int:
        return self.geometry.capacity_bits

    @property
    def max_trefi_s(self) -> float:
        return self._max_trefi_s

    @property
    def temperature_c(self) -> float:
        return self._temperature_c

    @property
    def refresh_enabled(self) -> bool:
        return self._refresh_enabled

    @property
    def weak_cell_count(self) -> int:
        return len(self.population)

    @property
    def pattern_io_seconds(self) -> float:
        """Simulated time of one full-array pattern write or read pass."""
        return self._io_seconds

    def expected_ber(self, conditions: Conditions) -> float:
        """Analytic worst-case-pattern bit error rate at ``conditions``."""
        return self.vendor.ber(conditions)

    # ------------------------------------------------------------------
    # Command interface
    # ------------------------------------------------------------------
    def set_temperature(self, temperature_c: float) -> None:
        """Change the ambient temperature the chip operates at.

        Refused while refresh is disabled: a mid-exposure change would make
        the whole exposure evaluate at the final temperature (reads apply a
        single :meth:`~repro.dram.vendor.VendorModel.retention_scale`), which
        silently misattributes the accumulated leakage.  The paper's
        methodology changes ambient temperature only between tests; enable
        refresh (ending the exposure) before changing it.
        """
        if temperature_c > self._max_temperature_c:
            raise ConfigurationError(
                f"temperature {temperature_c!r} exceeds the chip's configured maximum "
                f"{self._max_temperature_c!r}; reconstruct with a larger max_temperature_c"
            )
        if not self._refresh_enabled:
            raise CommandSequenceError(
                "cannot change temperature while refresh is disabled: the "
                "in-progress retention exposure would be evaluated entirely at "
                "the new temperature; enable refresh first"
            )
        self._sync_vrt()
        self._temperature_c = float(temperature_c)
        self.trace.append(self.clock.now, Command.SET_TEMPERATURE, f"{temperature_c:.2f}degC")

    def write_pattern(self, pattern: DataPattern) -> None:
        """Fill the whole array with ``pattern`` (one full-array write pass).

        Writing restores every cell, so any in-progress retention exposure
        restarts from the end of the write.
        """
        self.clock.advance(self._io_seconds)
        self._sync_vrt()
        self._pattern = pattern
        self._alignment, self._stressed = self.population.dpd.excite(pattern)
        if not self._refresh_enabled:
            self._disable_time = self.clock.now
        self._frozen_exposure = 0.0
        self.trace.append(self.clock.now, Command.WRITE_PATTERN, pattern.key)

    def disable_refresh(self) -> None:
        if not self._refresh_enabled:
            raise CommandSequenceError("refresh is already disabled")
        self._refresh_enabled = False
        self._disable_time = self.clock.now
        self.trace.append(self.clock.now, Command.REFRESH_DISABLE)

    def enable_refresh(self) -> None:
        if self._refresh_enabled:
            raise CommandSequenceError("refresh is already enabled")
        assert self._disable_time is not None
        self._frozen_exposure = self.clock.now - self._disable_time
        self._refresh_enabled = True
        self._disable_time = None
        self.trace.append(self.clock.now, Command.REFRESH_ENABLE)

    def wait(self, seconds: float) -> None:
        """Let simulated time pass (the retention exposure of Algorithm 1)."""
        self.clock.advance(seconds)
        self._sync_vrt()
        self.trace.append(self.clock.now, Command.WAIT, f"{seconds:.6f}s")

    def sync(self) -> None:
        """Catch internal processes up to the shared clock.

        Needed when an external component (e.g. a multi-chip module or a
        thermal chamber) advances the shared clock directly.
        """
        self._sync_vrt()

    def error_index_space(self) -> np.ndarray:
        """Sorted flat indices every :meth:`read_errors` cell can come from.

        VRT episodes can strike anywhere in the array, so this is *not* a
        guarantee -- it is the weak tail that covers the overwhelming
        majority of observations, letting profilers accumulate observed
        cells in a dense boolean mask with a sparse overflow for the rest
        (see :class:`repro.core.device.ObservedCellAccumulator`).
        """
        return self.population.indices

    def reset(self) -> "SimulatedDRAMChip":
        """Return the chip to its just-constructed state, in place.

        Re-derives every RNG stream from (seed, chip_id), recreates the VRT
        process, clears the DPD caches, starts a fresh private
        clock and command trace, restores the initial temperature, and
        re-enables refresh.  A reset chip replays *exactly* the command
        responses of a newly constructed one -- which is what lets
        :class:`~repro.core.tradeoff.TradeoffExplorer` reuse one chip across
        grid points instead of paying weak-tail sampling per point.  Refused
        for chips on a shared external clock (a reset would rewind time for
        every other chip on it).
        """
        if self._external_clock:
            raise CommandSequenceError(
                "cannot reset a chip driven by a shared external clock; "
                "reconstruct the module instead"
            )
        self.clock = SimClock()
        self.population.dpd.reset(self._derive("dpd"))
        self._start(self._derive("vrt"), self._derive("read"))
        return self

    def current_exposure(self) -> float:
        """Retention exposure the next read-out would test against."""
        if not self._refresh_enabled and self._disable_time is not None:
            return self.clock.now - self._disable_time
        return self._frozen_exposure

    @property
    def read_rng(self) -> np.random.Generator:
        """The chip's read-out RNG stream (``derive(seed, "read", chip_id)``).

        External evaluators (the fleet engine) draw each chip's uniforms
        from this generator so batched sampling consumes the stream exactly
        as :meth:`read_errors` would.
        """
        return self._read_rng

    def read_errors(self) -> np.ndarray:
        """Read the array back and compare against the written pattern.

        Returns the sorted flat indices of cells that lost their data during
        the current retention exposure.  Reading restores cell contents, so
        the exposure restarts afterwards.
        """
        if self._pattern is None or self._alignment is None:
            raise CommandSequenceError("no data pattern has been written")
        self.clock.advance(self._io_seconds)
        self._sync_vrt()
        exposure = self.current_exposure()
        # Tolerate float accumulation error at the exact boundary.
        if exposure > self._max_trefi_s * (1.0 + 1e-9):
            raise ConfigurationError(
                f"exposure {exposure:.3f}s exceeds max_trefi_s={self._max_trefi_s!r}; "
                "construct the chip with a larger max_trefi_s"
            )
        self.trace.append(self.clock.now, Command.READ_COMPARE, f"exposure={exposure:.6f}s")
        # Reading through the sense amplifiers restores the cells.
        if not self._refresh_enabled:
            self._disable_time = self.clock.now
        self._frozen_exposure = 0.0
        static = self.population.sample_failures(
            exposure,
            self._temperature_c,
            self._alignment,
            self._read_rng,
            stressed=self._stressed,
        )
        vrt = self.vrt.failing_cells(self.clock.now, exposure)
        if len(vrt) == 0:
            # ``static`` is already sorted and unique (a subset of the
            # sorted weak-cell indices), so the union is the identity.
            return static
        return np.union1d(static, vrt)

    # ------------------------------------------------------------------
    # Ground truth (simulator-only)
    # ------------------------------------------------------------------
    def oracle_failing_set(
        self,
        conditions: Conditions,
        p_min: float = 0.05,
        window: Optional[Tuple[float, float]] = None,
    ) -> np.ndarray:
        """All cells that can fail at ``conditions`` -- the profiling target.

        ``window`` bounds the VRT episodes considered (defaults to everything
        from time zero to now); static weak cells are included when their
        worst-case failure probability is at least ``p_min``.
        """
        if conditions.trefi > self._max_trefi_s:
            raise ConfigurationError(
                f"oracle interval {conditions.trefi!r}s exceeds max_trefi_s"
            )
        static = self.population.oracle_failing(conditions, p_min=p_min)
        if window is None:
            window = (0.0, self.clock.now)
        vrt = self.vrt.episodes_overlapping(window[0], window[1], conditions.trefi)
        return np.union1d(static, vrt)

    def _sync_vrt(self) -> None:
        self.vrt.advance_to(self.clock.now, self._temperature_c)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"SimulatedDRAMChip(vendor={self.vendor.name}, "
            f"capacity={self.geometry.capacity_gigabits:g}Gb, chip_id={self.chip_id})"
        )
