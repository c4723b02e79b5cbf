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
handful of fused numpy/``ndtr`` calls plus per-segment reductions.

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

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError, ProfilingError
from .cell import _CHERNOFF_Z_MAX, _FAST_CACHE_MAX_ENTRIES, WeakCellPopulation
from .chip import SimulatedDRAMChip


def _same_arrays(refs: Tuple, arrays: Sequence) -> bool:
    """Identity comparison of two per-chip array tuples (cache pinning)."""
    return len(refs) == len(arrays) and all(a is b for a, b in zip(refs, arrays))


@dataclass
class _FleetPatternState:
    """Memoized per-(pattern, temperature-vector) fused evaluation state.

    The fleet analogue of ``repro.dram.cell._FastPatternState``: ``mu_eff``
    and ``sigma_eff`` are the concatenated scaled effective-retention
    arrays, pinned to the exact per-chip alignment arrays they were built
    from (a DPD redraw or temperature change misses the cache instead of
    reusing stale state).
    """

    alignment_refs: Tuple[np.ndarray, ...]
    mu_eff: np.ndarray
    sigma_eff: np.ndarray


class FleetPopulation:
    """The stacked weak tails of a batch of chips, evaluated fused.

    Construction concatenates each member population's ``mu_wc_s``,
    ``sigma_s``, and DPD susceptibility arrays; ``offsets[i]:offsets[i+1]``
    is chip ``i``'s segment in every concatenated array (and in the boolean
    failure masks the fleet profiler accumulates).
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
            self._mu_wc = np.concatenate([p.mu_wc_s for p in members])
            self._sigma = np.concatenate([p.sigma_s for p in members])
            self._susceptibility = np.concatenate(
                [p.dpd.susceptibility for p in members]
            )
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
        self._states: Dict[Tuple[str, Tuple[float, ...]], _FleetPatternState] = {}
        self._scale_cells_memo: Dict[Tuple[float, ...], np.ndarray] = {}
        self._sigma_eff_memo: Dict[Tuple[float, ...], np.ndarray] = {}
        #: pattern_key -> (alignment refs, unscaled concatenated mu_eff).
        #: The DPD term depends only on the alignment draw, not on
        #: temperature, so it survives across scale states.
        self._mu_unscaled: Dict[str, Tuple[Tuple[np.ndarray, ...], np.ndarray]] = {}
        #: pattern_key -> (stress-mask refs, concatenated stress mask).
        self._stressed_memo: Dict[str, Tuple[Tuple, Optional[np.ndarray]]] = {}

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

    def invalidate_cache(self) -> None:
        """Drop every memoized fused evaluation state."""
        self._states.clear()
        self._scale_cells_memo.clear()
        self._sigma_eff_memo.clear()
        self._mu_unscaled.clear()
        self._stressed_memo.clear()

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

    def _effective_retention(
        self, alignment: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Concatenated DPD effective retention -- the per-chip expression
        ``mu_wc_s * (1 - s*a) / (1 - s)`` term for term.

        Every step is the same ufunc the operator expression would invoke
        (multiplication commutes bitwise under IEEE 754), so chaining them
        through one buffer changes allocations, not results.  With ``out``
        the caller's scratch buffer is used; without, one array is
        allocated and returned.
        """
        tmp = np.multiply(self._susceptibility, alignment, out=out)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(self._mu_wc, tmp, out=tmp)
        return np.divide(tmp, self._one_minus_s, out=tmp)

    def _concat_optional(
        self, arrays: "Sequence[Optional[np.ndarray]] | np.ndarray"
    ) -> Optional[np.ndarray]:
        if isinstance(arrays, np.ndarray):
            # Already stacked over the fleet (megakernel batched rows).
            return arrays
        present = [a is not None for a in arrays]
        if not any(present):
            return None
        if not all(present):
            raise ConfigurationError(
                "fleet chips disagree on stress-mask availability; all chips "
                "must model orientation or none"
            )
        return np.concatenate(arrays)

    def _unscaled_mu(
        self, pattern_key: str, alignments: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Concatenated effective retention *before* temperature scaling,
        memoized per pattern and pinned to the per-chip alignment arrays.
        The DPD term is a pure function of the alignment draw, so it is
        shared across every temperature state built from the same draw."""
        entry = self._mu_unscaled.get(pattern_key)
        if entry is not None and _same_arrays(entry[0], alignments):
            return entry[1]
        mu = self._effective_retention(np.concatenate(alignments))
        if len(self._mu_unscaled) >= _FAST_CACHE_MAX_ENTRIES:
            self._mu_unscaled.clear()
        self._mu_unscaled[pattern_key] = (tuple(alignments), mu)
        return mu

    def _concat_stressed(
        self, pattern_key: str, stresseds: Sequence[Optional[np.ndarray]]
    ) -> Optional[np.ndarray]:
        """Concatenated stress mask, memoized per pattern and pinned to the
        per-chip mask arrays (deterministic patterns reuse their masks)."""
        entry = self._stressed_memo.get(pattern_key)
        if entry is not None and _same_arrays(entry[0], stresseds):
            return entry[1]
        stressed = self._concat_optional(stresseds)
        if len(self._stressed_memo) >= _FAST_CACHE_MAX_ENTRIES:
            self._stressed_memo.clear()
        self._stressed_memo[pattern_key] = (tuple(stresseds), stressed)
        return stressed

    def _pattern_state(
        self,
        pattern_key: str,
        scales: Tuple[float, ...],
        alignments: Sequence[np.ndarray],
    ) -> _FleetPatternState:
        key = (pattern_key, scales)
        state = self._states.get(key)
        if state is not None and _same_arrays(state.alignment_refs, alignments):
            return state
        state = _FleetPatternState(
            alignment_refs=tuple(alignments),
            mu_eff=self._unscaled_mu(pattern_key, alignments)
            * self._scale_cells(scales),
            sigma_eff=self._sigma_eff(scales),
        )
        if len(self._states) >= _FAST_CACHE_MAX_ENTRIES:
            self._states.clear()
        self._states[key] = state
        return state

    def deterministic_p_grid(
        self,
        exposures_s: Sequence[float],
        scales: Tuple[float, ...],
        pattern_key: str,
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
    ) -> np.ndarray:
        """Fused per-cell failure probabilities of a deterministic pattern
        at many exposures at once.

        Returns a ``(len(exposures_s), n_total)`` matrix whose row ``k`` is
        bit-equal, segment by segment, to the probability vector each
        chip's own evaluation at ``exposures_s[k]`` computes: the z
        pipeline and ndtr are elementwise ufuncs, so evaluating them on a
        broadcast matrix applies the identical scalar operation to the
        identical operands.  One ndtr call amortizes the per-row dispatch
        overhead the megakernel would otherwise pay once per read.
        """
        state = self._pattern_state(pattern_key, scales, alignments)
        p = np.subtract(
            np.asarray(exposures_s, dtype=np.float64)[:, None], state.mu_eff
        )
        np.divide(p, state.sigma_eff, out=p)
        ndtr(p, out=p)
        stressed = self._concat_stressed(pattern_key, stresseds)
        if stressed is not None:
            np.multiply(p, stressed, out=p)
        return p

    def _sample_banded(
        self,
        exposure_s: float,
        scales: Tuple[float, ...],
        alignments: Sequence[np.ndarray],
        stresseds: Sequence[Optional[np.ndarray]],
        u: np.ndarray,
    ) -> np.ndarray:
        """Fused Chernoff-cut sampling (stochastic patterns): the fleet
        analogue of ``_sample_banded_fast``, candidates gathered globally.

        ``u`` supplies the chip-ordered uniforms (the megakernel gathers
        them from per-chip block draws -- value-identical to the per-read
        draw, so the compare is unchanged)."""
        scale_cells = self._scale_cells(scales)
        alignment = (
            alignments
            if isinstance(alignments, np.ndarray)
            else np.concatenate(alignments)
        )
        # Stage the whole z pipeline through the two scratch buffers: each
        # step is the ufunc the operator expression would invoke, applied
        # in the same order, so the bits are unchanged.
        mu_eff = self._effective_retention(alignment, out=self._scratch)
        np.multiply(mu_eff, scale_cells, out=mu_eff)
        z = np.subtract(exposure_s, mu_eff, out=self._z)
        np.divide(z, self._sigma_eff(scales), out=z)
        # Clamp the exponent exactly like the per-chip path: deep-tail
        # cells would otherwise push exp() into the subnormal slow path.
        # ``-0.5 * z * z`` associates left, so stage it as (-0.5 * z) * z;
        # mu_eff is dead here, freeing its scratch buffer for the bound.
        bound = np.multiply(-0.5, z, out=self._scratch)
        np.multiply(bound, z, out=bound)
        np.maximum(bound, -60.0, out=bound)
        np.exp(bound, out=bound)
        np.multiply(0.5, bound, out=bound)
        candidates = np.flatnonzero((z > _CHERNOFF_Z_MAX) | (u < bound))
        failed = np.zeros(self._n_total, dtype=bool)
        if len(candidates):
            p = ndtr(z[candidates])
            stressed = self._concat_optional(stresseds)
            if stressed is not None:
                p = p * stressed[candidates]
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
