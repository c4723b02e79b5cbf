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
  chip's segment of one shared buffer, *before* the fused compare.

VRT episodes stay per-chip (each chip owns its episodic process and RNG
stream); :class:`~repro.core.fleetprof.FleetProfiler` folds them into its
bookkeeping alongside the fused static masks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError, ProfilingError
from .cell import _CHERNOFF_Z_MAX, _FAST_CACHE_MAX_ENTRIES, WeakCellPopulation
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
    rebuild the effective retention per call, so a population's memory
    is its stacked tail plus a few scratch vectors.
    """

    def __init__(
        self,
        populations: Sequence[WeakCellPopulation],
        backing: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        members = tuple(populations)
        if not members:
            raise ConfigurationError("a fleet population needs at least one member")
        self._members = members
        lengths = np.array([len(p) for p in members], dtype=np.int64)
        self._lengths = lengths
        self._offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._n_total = int(self._offsets[-1])
        if backing is not None:
            # Zero-copy: the members' per-chip arrays are adjacent slices of
            # one shared-memory segment, so the concatenated arrays already
            # exist -- ``backing`` hands them over without a copy.  Values
            # (and therefore results) are identical to concatenation.
            if any(len(backing[k]) != self._n_total for k in ("mu_wc_s", "sigma_s", "susceptibility")):
                raise ConfigurationError(
                    "fleet backing arrays do not cover the member populations"
                )
            self._mu_wc = backing["mu_wc_s"]
            self._sigma = backing["sigma_s"]
            self._susceptibility = backing["susceptibility"]
        else:
            self._mu_wc = self.stack([p.mu_wc_s for p in members])
            self._sigma = self.stack([p.sigma_s for p in members])
            self._susceptibility = self.stack([p.dpd.susceptibility for p in members])
        # (1 - s) is a loop invariant of the effective-retention expression;
        # dividing by the precomputed array is the same IEEE divide as
        # dividing by the expression, so bits are unchanged.
        self._one_minus_s = 1.0 - self._susceptibility
        # Scratch buffers for the fused elementwise pipelines: `out=`-chained
        # ufuncs apply the exact same operations as the operator expressions
        # (bit-identical results) without reallocating multi-hundred-KB
        # temporaries on every read.
        self._z = np.empty(self._n_total, dtype=np.float64)
        self._scratch = np.empty(self._n_total, dtype=np.float64)
        self._scale_cells_memo: Dict[Tuple[float, ...], np.ndarray] = {}
        self._sigma_eff_memo: Dict[Tuple[float, ...], np.ndarray] = {}

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
    # Fused evaluation building blocks
    # ------------------------------------------------------------------
    def _scale_cells(self, scales: Tuple[float, ...]) -> np.ndarray:
        """Per-cell retention scale: chip ``i``'s scalar repeated over its
        segment.  Multiplying by it is bit-equal to the per-chip scalar
        multiply."""
        cells = self._scale_cells_memo.get(scales)
        if cells is None:
            cells = np.repeat(np.asarray(scales, dtype=np.float64), self._lengths)
            if len(self._scale_cells_memo) >= _FAST_CACHE_MAX_ENTRIES:
                self._scale_cells_memo.clear()
            self._scale_cells_memo[scales] = cells
        return cells

    def _sigma_eff(self, scales: Tuple[float, ...]) -> np.ndarray:
        """Concatenated ``sigma_s * scale`` -- the per-chip expression."""
        sigma_eff = self._sigma_eff_memo.get(scales)
        if sigma_eff is None:
            sigma_eff = self._sigma * self._scale_cells(scales)
            if len(self._sigma_eff_memo) >= _FAST_CACHE_MAX_ENTRIES:
                self._sigma_eff_memo.clear()
            self._sigma_eff_memo[scales] = sigma_eff
        return sigma_eff

    def _scaled_mu(
        self,
        alignment: np.ndarray,
        scales: Tuple[float, ...],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Concatenated temperature-scaled DPD effective retention -- the
        per-chip expression ``mu_wc_s * (1 - s*a) / (1 - s) * scale`` term
        for term.

        Every step is the same ufunc the operator expression would invoke
        (multiplication commutes bitwise under IEEE 754), so chaining them
        through one buffer changes allocations, not results.  With ``out``
        the caller's scratch buffer is used; without, one array is
        allocated and returned.
        """
        tmp = np.multiply(self._susceptibility, alignment, out=out)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(self._mu_wc, tmp, out=tmp)
        np.divide(tmp, self._one_minus_s, out=tmp)
        return np.multiply(tmp, self._scale_cells(scales), out=tmp)

    def _chernoff_candidates(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Cells whose failure the Chernoff bound cannot rule out.

        For ``z <= _CHERNOFF_Z_MAX`` the bound ``0.5 * exp(-z**2 / 2)``
        dominates ``ndtr(z)`` -- and so the stress-masked probability --
        with >= 43% slack, so ``u >= bound`` proves ``u >= p`` exactly.
        The exponent is clamped like the per-chip path's (deep-tail cells
        would otherwise push exp() into the subnormal slow path), which
        only raises the bound.  The bound is staged through
        ``self._scratch`` (``-0.5 * z * z`` associates left, hence
        ``(-0.5 * z) * z``).
        """
        bound = np.multiply(-0.5, z, out=self._scratch)
        np.multiply(bound, z, out=bound)
        np.maximum(bound, -60.0, out=bound)
        np.exp(bound, out=bound)
        np.multiply(0.5, bound, out=bound)
        return np.flatnonzero((z > _CHERNOFF_Z_MAX) | (u < bound))

    def deterministic_failures(
        self,
        exposures_s: Sequence[float],
        u_rows: Sequence[np.ndarray],
        scales: Tuple[float, ...],
        alignment: np.ndarray,
        stressed: np.ndarray,
    ) -> np.ndarray:
        """Cells that fail on at least one of several reads of a
        deterministic pattern.

        ``alignment`` and ``stressed`` are the pattern's fleet-stacked DPD
        arrays (:meth:`stack`).  Read ``k`` runs at ``exposures_s[k]`` with
        the chip-ordered uniforms ``u_rows[k]``; per read, a cell fails
        exactly when its uniform is below ``ndtr((exposure - mu_eff) /
        sigma_eff) * stressed``, the per-chip expression.  Returns the flat
        indices of every cell some read fails (possibly repeated).

        Reads whose exposure floats are bit-equal share one probability
        vector, and ``any_k(u_k < p)`` holds exactly when ``min_k(u_k) <
        p``, so each exposure group evaluates one z vector against its
        elementwise-minimum uniform row; the Chernoff cut then leaves
        ``ndtr`` and the stress multiply only the few candidate cells.
        """
        mu_eff = self._scaled_mu(alignment, scales)
        sigma_eff = self._sigma_eff(scales)
        by_exposure: Dict[float, List[np.ndarray]] = {}
        for exposure_s, u in zip(exposures_s, u_rows):
            by_exposure.setdefault(exposure_s, []).append(u)
        hits = []
        for exposure_s, us in by_exposure.items():
            umin = us[0]
            if len(us) > 1:
                umin = np.minimum(us[0], us[1])
                for u in us[2:]:
                    np.minimum(umin, u, out=umin)
            z = np.subtract(exposure_s, mu_eff, out=self._z)
            np.divide(z, sigma_eff, out=z)
            candidates = self._chernoff_candidates(z, umin)
            if len(candidates):
                p = ndtr(z[candidates]) * stressed[candidates]
                hits.append(candidates[umin[candidates] < p])
        return np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)

    def _sample_banded(
        self,
        exposure_s: float,
        scales: Tuple[float, ...],
        alignment: np.ndarray,
        stressed: np.ndarray,
        u: np.ndarray,
    ) -> np.ndarray:
        """Fused Chernoff-cut sampling (stochastic patterns): the fleet
        analogue of ``_sample_banded_fast``, candidates gathered globally.

        ``alignment`` and ``stressed`` are the write's fleet-stacked DPD
        arrays; ``u`` supplies the chip-ordered uniforms (the kernel
        gathers them from per-chip block draws -- value-identical to the
        per-read draw, so the compare is unchanged)."""
        # Stage the z pipeline through the scratch buffers: each step is
        # the ufunc the operator expression would invoke, applied in the
        # same order, so the bits are unchanged.  mu_eff is dead once z
        # exists, which frees its scratch buffer for the bound.
        mu_eff = self._scaled_mu(alignment, scales, out=self._scratch)
        z = np.subtract(exposure_s, mu_eff, out=self._z)
        np.divide(z, self._sigma_eff(scales), out=z)
        candidates = self._chernoff_candidates(z, u)
        failed = np.zeros(self._n_total, dtype=bool)
        if len(candidates):
            p = ndtr(z[candidates]) * stressed[candidates]
            failed[candidates] = u[candidates] < p
        return failed


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

    def __init__(
        self,
        chips: Sequence["SimulatedDRAMChip"],
        backing: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
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
        self.population = FleetPopulation(
            [chip.population for chip in members], backing=backing
        )
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
