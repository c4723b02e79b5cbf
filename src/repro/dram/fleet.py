"""Fleet-batched failure evaluation: many chips per numpy call.

A characterization campaign runs the *same* measurement schedule on every
chip: the same patterns, the same refresh intervals, the same ambient
trajectory.  Per chip, one read-out costs a handful of numpy calls over a
weak tail of only a few hundred cells -- small enough that per-call
overhead, not arithmetic, dominates the campaign.  This module amortizes
that overhead across a *fleet*: the weak-cell tails of B chips are stacked
into one struct-of-arrays population (concatenated ``mu``/``sigma``/
susceptibility arrays with per-chip segment offsets), so one profiling
read for B chips at the same (pattern, trefi, temperature) point runs as a
handful of fused numpy calls plus per-segment reductions.

Byte-identity contract
----------------------
Fleet evaluation is **byte-identical** to the per-chip path -- the same
cells fail, in the same order, from the same generator states:

* every fused operation is elementwise, and the expressions are the
  per-chip expressions of :mod:`repro.dram.cell` term for term (IEEE
  arithmetic on a concatenated array is bit-equal per segment to the same
  arithmetic on the segments);
* the per-chip retention *scale* (a scalar in the per-chip path) becomes a
  per-cell array built with ``np.repeat``, and ``x * scale`` is bit-equal
  whether ``scale`` broadcasts from a scalar or repeats per element;
* RNG purity: each chip's uniforms are drawn from its own
  ``(seed, chip_id)``-derived read generator, in chip order, into the
  chip's segment of one shared buffer, *before* the fused compare;
* a gather (:class:`ReachSet`) only selects elements, so evaluating a
  subset of the tail gives each selected cell the bits the full-tail
  evaluation would.

VRT episodes stay per-chip (each chip owns its episodic process and RNG
stream); :class:`~repro.core.fleetprof.FleetProfiler` folds them into its
bookkeeping alongside the fused static masks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError, ProfilingError
from .cell import Z_REACH, WeakCellPopulation, chernoff_hits
from .chip import SimulatedDRAMChip


class FleetPopulation:
    """The stacked weak tails of a batch of chips, evaluated fused.

    Construction concatenates each member population's ``mu_wc_s``,
    ``sigma_s``, and DPD susceptibility arrays (a one-chip fleet uses its
    member's arrays as they are); ``offsets[i]:offsets[i+1]`` is chip
    ``i``'s segment in every concatenated array (and in the boolean
    failure masks the fleet profiler accumulates).

    Nothing per pattern is memoized here: the profiler stacks each
    pattern's DPD arrays once per grid (:meth:`stack`) and the evaluators
    rebuild the effective retention per call over a :class:`ReachSet`,
    so a population's memory is its stacked tail; the reach sets belong
    to the caller (the kernel builds them per read block).
    """

    def __init__(self, populations: Sequence[WeakCellPopulation]) -> None:
        members = tuple(populations)
        if not members:
            raise ConfigurationError("a fleet population needs at least one member")
        self._members = members
        lengths = np.array([len(p) for p in members], dtype=np.int64)
        self._lengths = lengths
        self._offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._n_total = int(self._offsets[-1])
        self._mu_wc = self.stack([p.mu_wc_s for p in members])
        self._sigma = self.stack([p.sigma_s for p in members])
        self._susceptibility = self.stack([p.dpd.susceptibility for p in members])
        # (1 - s) is a loop invariant of the effective-retention expression;
        # dividing by the precomputed array is the same IEEE divide as
        # dividing by the expression, so bits are unchanged.
        self._one_minus_s = 1.0 - self._susceptibility

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_total

    @property
    def n_chips(self) -> int:
        return len(self._members)

    @property
    def offsets(self) -> np.ndarray:
        """Per-chip segment offsets into every concatenated array."""
        return self._offsets

    def segment(self, chip_index: int) -> Tuple[int, int]:
        """Chip ``chip_index``'s (start, end) slice bounds."""
        return int(self._offsets[chip_index]), int(self._offsets[chip_index + 1])

    def member_indices(self, chip_index: int) -> np.ndarray:
        """Chip ``chip_index``'s sorted weak-cell flat indices."""
        return self._members[chip_index].indices

    @staticmethod
    def stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Per-chip arrays as one fleet-ordered array: the concatenation,
        or the single member's array itself (no copy) for a one-chip
        fleet."""
        if len(arrays) == 1:
            return arrays[0]
        return np.concatenate(arrays)

    # ------------------------------------------------------------------
    # Fused evaluation
    # ------------------------------------------------------------------
    def reach(self, scales: Tuple[float, ...]) -> "ReachSet":
        """The whole stacked tail as a :class:`ReachSet`, at the per-chip
        retention ``scales`` (chip ``i``'s scalar repeated over its
        segment: multiplying by it is bit-equal to the per-chip scalar
        multiply)."""
        scale = np.repeat(np.asarray(scales, dtype=np.float64), self._lengths)
        return ReachSet(
            cells=np.arange(self._n_total),
            mu_wc=self._mu_wc,
            susceptibility=self._susceptibility,
            one_minus_s=self._one_minus_s,
            scale=scale,
            sigma_eff=self._sigma * scale,
        )

    @staticmethod
    def deterministic_failures(
        exposures_s: Sequence[float],
        u_rows: Sequence[np.ndarray],
        alignment: np.ndarray,
        stressed: np.ndarray,
        reach: "ReachSet",
        per_read: bool = False,
    ):
        """Cells that fail on at least one of several reads of a
        deterministic pattern.

        ``alignment`` and ``stressed`` are the pattern's fleet-stacked DPD
        arrays (:meth:`stack`).  Read ``k`` runs at ``exposures_s[k]`` with
        the chip-ordered uniforms ``u_rows[k]``; per read, a cell fails
        exactly when its uniform is below ``ndtr((exposure - mu_eff) /
        sigma_eff) * stressed``, the per-chip expression.  The compare runs
        on ``reach`` only: the kernel passes a condition's reach set
        (:meth:`ReachSet.reaching`) plus every cell a uniform of exactly 0.0
        landed on, outside of which no cell can fail.  Returns the flat
        indices of every cell some read fails (possibly repeated), or, with
        ``per_read``, one ascending array per read of the cells that read
        fails.

        Reads whose exposure floats are bit-equal share one probability
        vector, and ``any_k(u_k < p)`` holds exactly when ``min_k(u_k) <
        p``, so each exposure group evaluates one z vector against its
        elementwise-minimum uniform row through :func:`chernoff_hits`; a
        read's own failing cells are those hits where its uniform is below
        ``p``, the cut's own expression evaluated there alone.
        """
        cells = reach.cells
        mu_eff = reach.scaled_mu(np.take(alignment, cells))
        stressed = np.take(stressed, cells)
        by_exposure: Dict[float, List[int]] = {}
        for k, exposure_s in enumerate(exposures_s):
            by_exposure.setdefault(exposure_s, []).append(k)
        hits = []
        reads: List[np.ndarray] = [None] * len(u_rows)
        for exposure_s, ks in by_exposure.items():
            umin = np.take(u_rows[ks[0]], cells)
            for k in ks[1:]:
                np.minimum(umin, np.take(u_rows[k], cells), out=umin)
            z = np.subtract(exposure_s, mu_eff)
            np.divide(z, reach.sigma_eff, out=z)
            got = chernoff_hits(z, umin, stressed)
            hits.append(cells[got])
            if per_read:
                p = ndtr(z[got])
                p *= stressed[got]
                for k in ks:
                    reads[k] = hits[-1][np.take(u_rows[k], hits[-1]) < p]
        if per_read:
            return reads
        return np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)

    @staticmethod
    def stochastic_failures(
        exposure_s: float,
        alignment: np.ndarray,
        stressed: np.ndarray,
        u: np.ndarray,
        reach: "ReachSet",
    ) -> np.ndarray:
        """Cells that fail one read of a stochastic pattern: the fleet
        analogue of ``WeakCellPopulation.sample_failures``, as ascending
        indices into the stacked tail.

        ``alignment`` and ``stressed`` are the write's fleet-stacked DPD
        arrays; ``u`` supplies the chip-ordered uniforms (the kernel
        gathers them from per-chip block draws -- value-identical to the
        per-read draw, so the compare is unchanged); the compare runs on
        ``reach`` only, as in :meth:`deterministic_failures`."""
        cells = reach.cells
        z = np.subtract(exposure_s, reach.scaled_mu(np.take(alignment, cells)))
        np.divide(z, reach.sigma_eff, out=z)
        return cells[chernoff_hits(z, np.take(u, cells), np.take(stressed, cells))]


@dataclass(frozen=True)
class ReachSet:
    """The cells one condition's reads compare, with the tail arrays the
    failure expression needs gathered at them: the whole tail
    (:meth:`FleetPopulation.reach`), or the part of it a condition's reads
    can fail (:meth:`reaching`).

    ``cells`` holds ascending flat indices into the stacked tail; the other
    arrays are the stacked ``mu_wc_s``, susceptibility ``s``, ``1 - s``,
    per-cell retention scale and ``sigma_s * scale`` at those cells.  A
    gather only selects elements, so every value below is bit-equal to the
    full-tail evaluation's at the same cell.
    """

    cells: np.ndarray
    mu_wc: np.ndarray
    susceptibility: np.ndarray
    one_minus_s: np.ndarray
    scale: np.ndarray
    sigma_eff: np.ndarray

    def subset(self, positions: np.ndarray) -> "ReachSet":
        """This set restricted to ``positions`` (ascending indices into
        :attr:`cells`)."""
        return ReachSet(*(np.take(getattr(self, f.name), positions) for f in fields(self)))

    @cached_property
    def mu_floor(self) -> np.ndarray:
        """The worst-case effective retention: :meth:`scaled_mu` at
        alignment 1.0, computed once per set."""
        return self.scaled_mu(1.0)

    def reaching(self, exposure_s: float) -> "ReachSet":
        """The cells of this set that a read at any exposure up to
        ``exposure_s`` can fail.

        They are the cells whose worst-case z-score ``(exposure_s -
        mu_floor) / sigma_eff`` exceeds :data:`~repro.dram.cell.Z_REACH`.
        Every DPD alignment is at most 1.0, every operation of the z
        pipeline is monotone in IEEE arithmetic, and the reads share
        ``sigma_eff``, so a read at any exposure ``e <= exposure_s`` under
        any alignment gives a cell outside the result ``z <= Z_REACH``: a
        probability below ``2**-53``, which only a uniform of exactly 0.0
        can fall under.
        """
        z = np.subtract(exposure_s, self.mu_floor)
        np.divide(z, self.sigma_eff, out=z)
        return self.subset(np.flatnonzero(z > Z_REACH))

    def scaled_mu(self, alignment) -> np.ndarray:
        """Temperature-scaled DPD effective retention at ``alignment`` (a
        scalar or an array gathered at :attr:`cells`) -- the per-chip
        expression ``mu_wc_s * (1 - s*a) / (1 - s) * scale`` term for term.

        Every step is the same elementwise ufunc the operator expression
        would invoke (multiplication commutes bitwise under IEEE 754), so
        chaining them through one buffer changes allocations, not results.
        """
        tmp = np.multiply(self.susceptibility, alignment)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(self.mu_wc, tmp, out=tmp)
        np.divide(tmp, self.one_minus_s, out=tmp)
        return np.multiply(tmp, self.scale, out=tmp)


class ChipFleet:
    """A batch of chips driven through one command sequence together.

    :meth:`repro.core.fleetprof.FleetProfiler.run_grid` replays the shared
    command schedule once and applies its clock, trace, and refresh state
    to every member, while each chip's VRT process and DPD/read generators
    advance exactly as they would standalone; read-out *evaluation* is
    fused through the shared :class:`FleetPopulation`.

    Member chips must share geometry and ``max_trefi_s``, and their clocks
    must agree whenever a fleet run starts -- the shared schedule is only
    exact when the chips traverse identical clock trajectories.
    """

    def __init__(self, chips: Sequence["SimulatedDRAMChip"]) -> None:
        members = tuple(chips)
        if not members:
            raise ConfigurationError("a chip fleet needs at least one chip")
        geometry = members[0].geometry
        max_trefi = members[0].max_trefi_s
        for chip in members[1:]:
            if chip.geometry != geometry:
                raise ConfigurationError(
                    "fleet chips must share one geometry; got "
                    f"{chip.geometry!r} vs {geometry!r}"
                )
            if chip.max_trefi_s != max_trefi:
                raise ConfigurationError(
                    "fleet chips must share one max_trefi_s; got "
                    f"{chip.max_trefi_s!r} vs {max_trefi!r}"
                )
        self.chips = members
        self.population = FleetPopulation([chip.population for chip in members])
        self._io_seconds = members[0].pattern_io_seconds
        self._max_trefi_s = max_trefi

    def __len__(self) -> int:
        return len(self.chips)

    @property
    def max_trefi_s(self) -> float:
        return self.chips[0].max_trefi_s

    def _now_all(self) -> float:
        """The members' shared clock value; raises when any member's clock
        diverged (fleet runs require identical command/clock trajectories)."""
        chips = self.chips
        now = chips[0].clock.now
        for chip in chips[1:]:
            if chip.clock.now != now:
                raise ProfilingError(
                    "fleet chips diverged: clocks disagree; fleet commands "
                    "require identical command/clock trajectories per chip"
                )
        return now
