"""Data pattern dependence (DPD) model.

A cell's effective retention time depends on the data stored in it and in
its neighbours (Section 2.3.2).  We model this with two quantities:

* a per-cell *susceptibility* ``s`` in [0, dpd_susceptibility_max): how much
  the worst aggressor arrangement can degrade the cell relative to the most
  benign one; and
* a per-(cell, pattern) *alignment* ``a`` in [0, 1]: how closely a concrete
  test pattern approaches that cell's worst case.

The effective retention time under a pattern is::

    mu_eff = mu_wc * (1 - s*a) / (1 - s)

so alignment 1 recovers the worst-case retention ``mu_wc`` and alignment 0
yields the benign-case retention ``mu_wc / (1 - s)``.

Deterministic patterns get a fixed alignment per cell (drawn once from the
pattern family's Beta distribution and cached); the random pattern redraws
alignments on every write, capped below 1 -- which is exactly why random data
discovers the most failures over many iterations without ever guaranteeing
full coverage (Observation 3 / Figure 5).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError, ProfilingError
from ..patterns import DataPattern


class DPDModel:
    """Per-cell data-pattern-dependence state for one chip.

    When constructed with cell positions and orientations (the normal path
    from a chip), the model also computes per-pattern *stress masks*: a cell
    leaks towards failure only while storing its charged logic value, so a
    pattern that writes the discharged value into a cell cannot make it fail
    at all -- the physical reason every pattern is tested together with its
    inverse (Section 3.2).
    """

    def __init__(
        self,
        susceptibility: np.ndarray,
        rng: np.random.Generator,
        random_alignment_cap: float,
        rows: Optional[np.ndarray] = None,
        cols: Optional[np.ndarray] = None,
        orientation: Optional[np.ndarray] = None,
        bits_per_row: int = 16384,
    ) -> None:
        if not (0.0 < random_alignment_cap < 1.0):
            raise ConfigurationError("random_alignment_cap must lie strictly in (0, 1)")
        if np.any(susceptibility < 0.0) or np.any(susceptibility >= 1.0):
            raise ConfigurationError("susceptibilities must lie in [0, 1)")
        self._susceptibility = np.asarray(susceptibility, dtype=np.float64)
        self._n_cells = len(self._susceptibility)
        self._rng = rng
        self._random_cap = float(random_alignment_cap)
        self._cached: Dict[str, np.ndarray] = {}
        self._stress_cached: Dict[str, np.ndarray] = {}
        self._rows = None if rows is None else np.asarray(rows)
        self._cols = None if cols is None else np.asarray(cols)
        self._orientation = None if orientation is None else np.asarray(orientation)
        self._bits_per_row = bits_per_row
        if (self._rows is None) != (self._orientation is None) or (
            (self._cols is None) != (self._orientation is None)
        ):
            raise ConfigurationError(
                "rows, cols and orientation must be provided together or not at all"
            )

    @property
    def n_cells(self) -> int:
        return self._n_cells

    @property
    def susceptibility(self) -> np.ndarray:
        return self._susceptibility

    @property
    def models_orientation(self) -> bool:
        return self._orientation is not None

    def alignment(self, pattern: DataPattern, fresh: bool = False) -> np.ndarray:
        """Alignment vector of ``pattern`` across all cells.

        With ``fresh=True`` (a write) a new vector is drawn for stochastic
        patterns and the deterministic vector is drawn on first use; with
        ``fresh=False`` (a read-only query) the call returns the draw from
        the most recent write and is strictly side-effect-free.  Querying a
        pattern that has never been written raises
        :class:`~repro.errors.ProfilingError` -- the alternative (drawing
        from the chip RNG as a side effect of an inspection) would perturb
        every subsequent stochastic draw and break the determinism contract
        that identically-configured chips replay identical failures.
        """
        key = pattern.key
        if fresh:
            if pattern.stochastic:
                a, b = pattern.alignment_beta
                draw = self._draw_beta(a, b) * self._random_cap
                self._cached[key] = draw
                return draw
            draw = self._cached.get(key)
            if draw is None:
                a, b = pattern.alignment_beta
                draw = self._rng.beta(a, b, size=self.n_cells)
                self._cached[key] = draw
            return draw
        draw = self._cached.get(key)
        if draw is None:
            raise ProfilingError(
                f"no alignment for pattern {key!r}: it has never been "
                "written to this chip (query paths must not draw DPD state; "
                "write the pattern first or call excite())"
            )
        return draw

    def _draw_beta(self, a: float, b: float) -> np.ndarray:
        """One Beta(a, b) draw per cell.

        Stochastic patterns redraw this on *every* write, so it sits on the
        profiling hot path.  ``Beta(2, 2)`` -- the random pattern family --
        is the distribution of the median of three iid uniforms (the
        order-statistic identity ``Beta(k, n-k+1) = k``-th smallest of ``n``
        uniforms), and a branchless exact median of three uniform vectors
        costs a fraction of the generic rejection sampler.  Other shapes
        fall back to the generator's Beta sampler.
        """
        if a == 2.0 and b == 2.0:
            u = self._rng.random((3, self.n_cells))
            return median_of_three(u[0], u[1], u[2])
        return self._rng.beta(a, b, size=self.n_cells)

    def stress_mask(self, pattern: DataPattern, fresh: bool = False) -> np.ndarray:
        """Per-cell mask: 1 where ``pattern`` stores the cell's charged value.

        Without orientation information (standalone DPD models in tests)
        every cell counts as stressed.  For the random pattern the stored
        bits -- and hence the mask -- are redrawn on every write
        (``fresh=True``); querying a never-written stochastic pattern with
        ``fresh=False`` raises :class:`~repro.errors.ProfilingError` rather
        than drawing from the chip RNG as a query side effect.  Deterministic
        masks involve no RNG and are computed (and cached) on demand.
        """
        if self._orientation is None:
            return np.ones(self.n_cells)
        key = pattern.key
        if pattern.stochastic:
            if fresh:
                bits = pattern.bits_at(self._rows, self._cols, self._bits_per_row, self._rng)
                mask = (bits == self._orientation).astype(float)
                self._stress_cached[key] = mask
                return mask
            mask = self._stress_cached.get(key)
            if mask is None:
                raise ProfilingError(
                    f"no stress mask for stochastic pattern {key!r}: it has "
                    "never been written to this chip (query paths must not draw "
                    "DPD state; write the pattern first or call excite())"
                )
            return mask
        mask = self._stress_cached.get(key)
        if mask is None:
            bits = pattern.bits_at(self._rows, self._cols, self._bits_per_row)
            mask = (bits == self._orientation).astype(float)
            self._stress_cached[key] = mask
        return mask

    def reset(self, rng: np.random.Generator) -> None:
        """Return the model to its just-constructed state.

        Drops every cached alignment and stress mask and replaces the
        generator with ``rng`` (a freshly re-derived stream), so a reset
        chip replays exactly the draws a newly constructed one would make.
        """
        self._rng = rng
        self._cached.clear()
        self._stress_cached.clear()

    def excite(self, pattern: DataPattern) -> "tuple[np.ndarray, np.ndarray]":
        """One write's DPD state: (alignment, stress mask), fresh draws for
        stochastic patterns.

        The stochastic branch inlines :meth:`alignment` and
        :meth:`stress_mask` (same draws, same ufuncs, same cache stores --
        only the call frames and dispatch are gone): it runs once per write
        on the profiling hot path, where the per-call overhead is comparable
        to the draws themselves on small weak tails.
        """
        if pattern.stochastic:
            rng = self._rng
            a, b = pattern.alignment_beta
            if a == 2.0 and b == 2.0:
                # Median-of-three uniforms == Beta(2, 2); see _draw_beta.
                # Pure selection -- an in-place column sort picks the exact
                # same middle element as the min/max formula, in one call.
                u = rng.random((3, self._n_cells))
                u.sort(axis=0)
                draw = u[1]
            else:
                draw = rng.beta(a, b, size=self._n_cells)
            np.multiply(draw, self._random_cap, out=draw)
            self._cached[pattern.key] = draw
            if self._orientation is None:
                return draw, np.ones(self._n_cells)
            if pattern.name == "random":
                # bits_at()'s random branch, minus the name dispatch: one
                # uniform per cell thresholded at 1/2 (exactly
                # Bernoulli(1/2), same stream consumption as bits_at).  For
                # the inverted pattern the stored bit is ``1 - data``, and
                # with bits in {0, 1} the mask ``(1 - data) == orientation``
                # is exactly ``data != orientation``.  Comparing straight
                # into a float64 ``out`` fuses the compare and the
                # bool-to-float cast into one ufunc pass (True -> 1.0,
                # False -> 0.0 -- the exact values .astype(float) yields).
                data = rng.random(self._n_cells) < 0.5
                mask = np.empty(self._n_cells, dtype=np.float64)
                if pattern.inverted:
                    np.not_equal(data, self._orientation, out=mask)
                else:
                    np.equal(data, self._orientation, out=mask)
            else:
                bits = pattern.bits_at(
                    self._rows, self._cols, self._bits_per_row, rng
                )
                mask = (bits == self._orientation).astype(float)
            self._stress_cached[pattern.key] = mask
            return draw, mask
        return (
            self.alignment(pattern, fresh=True),
            self.stress_mask(pattern, fresh=True),
        )

    def excite_random_raw(self, writes: int) -> np.ndarray:
        """Raw uniforms for ``writes`` consecutive random-pattern writes
        (fleet batching).

        Returns a ``(writes, 4n)`` array whose row ``k`` holds exactly the
        doubles the random branch of :meth:`excite` would draw on the
        ``k``-th write: the ``(3, n)`` median draw, then the ``(n,)`` bit
        draw.  The generator fills arrays element by element from one
        double sequence whatever their shape, so this single call consumes
        the DPD stream exactly like ``writes`` successive excite() calls.
        The caller runs the post-processing -- median of three, cap
        multiply, bit threshold, orientation compare -- over the stacked
        fleet and commits each chip's last write via
        :meth:`commit_random_write`.  Requires orientation modeling
        (without it :meth:`excite` draws no bits, so the raw consumption
        would differ).
        """
        if self._orientation is None:
            raise ProfilingError(
                "excite_random_raw requires orientation modeling; use excite()"
            )
        return self._rng.random((writes, 4 * self._n_cells))

    def commit_random_write(
        self, pattern: DataPattern, alignment: np.ndarray, stress: np.ndarray
    ) -> None:
        """Store one write's batched DPD state (see :meth:`excite_random_raw`)."""
        self._cached[pattern.key] = alignment
        self._stress_cached[pattern.key] = stress

    def effective_retention(self, mu_wc_s: np.ndarray, alignment: np.ndarray) -> np.ndarray:
        """Per-cell effective retention times under the given alignment."""
        s = self._susceptibility
        return mu_wc_s * (1.0 - s * alignment) / (1.0 - s)


def median_of_three(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise median of three equal-shape arrays (Beta(2, 2) draws).

    The min/max network ``max(min(a, b), min(max(a, b), c))`` selects the
    middle value -- pure selection, no arithmetic, so the result is
    bit-equal to sorting each column.  Overwrites ``a`` as scratch and
    returns a fresh array.
    """
    lo = np.minimum(a, b)
    np.maximum(a, b, out=a)
    np.minimum(a, c, out=a)
    return np.maximum(lo, a, out=lo)
