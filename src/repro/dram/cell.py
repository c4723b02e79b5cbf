"""Vectorized evaluation of weak-cell failure probabilities.

Section 5.5 of the paper establishes that each cell's probability of
retention failure is a normal CDF in the refresh interval:

    P(fail | t) = Phi((t - mu) / sigma)

with per-cell means ``mu`` (lognormally distributed across cells) and
per-cell standard deviations ``sigma`` (also lognormal, Figure 6b).  Raising
the temperature multiplies both ``mu`` and ``sigma`` by the vendor's
retention scale factor -- shifting and narrowing the distribution exactly as
Figure 7 shows.

:class:`WeakCellPopulation` evaluates those probabilities for an entire
chip's weak tail in one vectorized pass, both for *observed* failures under a
concrete data pattern (with its DPD alignment) and for *oracle* failures
under the worst-case pattern.

Fast path
---------
The profiling inner loop evaluates the same (pattern, temperature) point
hundreds of times: 12 patterns x 16 iterations per profiling run, thousands
of runs per campaign.  Two structural facts make most of that work
redundant:

* for a deterministic pattern the DPD alignment -- and therefore the full
  ``mu_eff = effective_retention * scale`` array -- is identical on every
  write at a given temperature, and the exposure is constant across every
  read of a profiling run, so the *entire probability vector* can be
  computed once per (pattern, temperature, exposure) and reused;
* for a stochastic pattern the alignment is redrawn on every write, but
  most cells still have a vanishing failure probability: the Chernoff
  cut (:func:`chernoff_hits`) proves ``u >= p`` for almost every drawn
  uniform ``u`` without evaluating the CDF, so exact ``ndtr`` runs only
  over the few *candidate* cells whose uniform landed under the bound.

``ndtr`` also saturates in double precision -- exactly ``1.0`` at or beyond
:data:`Z_PIN_ONE` and exactly ``0.0`` at or beyond :data:`Z_PIN_ZERO` -- which
is what makes such cuts *exact* rather than approximate: a pinned or
excluded cell's probability is bit-equal to what the full CDF pass would
have produced.

The fast path memoizes, per (pattern, temperature), the scaled
effective-retention arrays, and per exposure the finished probability
vector; a read then reduces to one full-tail uniform draw and a vectorized
compare.  RNG-stream compatibility is preserved by
drawing uniforms for the full tail exactly like the reference path, so fast
and reference sampling are *byte-identical* -- the same cells fail, in the
same order, from the same generator state.  Cache entries are keyed by
``(pattern, temperature)`` and pinned to the exact alignment (and stress
mask) arrays they were built from, so a temperature change or a DPD redraw
can never reuse a stale entry; :meth:`WeakCellPopulation.invalidate_fast_cache`
drops everything explicitly (device reset, tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from ..conditions import Conditions
from ..errors import ConfigurationError
from .dpd import DPDModel
from .retention import WeakCellSample
from .vendor import VendorModel

#: z-score at or above which ``ndtr`` returns exactly 1.0 in double
#: precision (saturation starts near 8.3; 9.0 leaves margin).
Z_PIN_ONE = 9.0

#: z-score at or below which ``ndtr`` underflows to exactly 0.0 in double
#: precision (underflow completes near -38; -39.0 leaves margin).
Z_PIN_ZERO = -39.0

#: z-score at or below which ``ndtr`` stays under ``2**-53``, the smallest
#: nonzero uniform the read generator draws (``ndtr(-8.5)`` is about
#: 9.5e-18), so only a uniform of exactly 0.0 can fail such a cell.  The
#: grid kernel's reach cut leaves these cells out of the compare.
Z_REACH = -8.5

#: z-score at or below which the Chernoff bound ``0.5 * exp(-z**2 / 2)``
#: exceeds ``ndtr(z)`` by >= 43% -- far more than floating-point rounding
#: can bridge -- so ``u >= bound`` proves ``u >= ndtr(z)`` exactly.  Cells
#: above this threshold are always treated as candidates.
_CHERNOFF_Z_MAX = -0.5


def chernoff_hits(
    z: np.ndarray, u: np.ndarray, stressed: Optional[np.ndarray]
) -> np.ndarray:
    """Cells that fail a read: ascending indices where ``u < ndtr(z) * stressed``.

    ``z`` holds the cells' z-scores ``(exposure - mu_eff) / sigma_eff``,
    ``u`` their uniforms, and ``stressed`` the 0/1 stress mask of the
    written pattern (``None`` when every cell is stressed).  The result is
    exactly the compare against the full probability vector, computed
    without evaluating ``ndtr`` on almost any cell:

    * for ``z <= _CHERNOFF_Z_MAX`` the Chernoff bound
      ``0.5 * exp(-z**2 / 2)`` exceeds ``ndtr(z)`` -- and so the
      stress-masked probability -- by >= 43%, far more than rounding can
      bridge, so ``u >= bound`` proves the cell did not fail;
    * the exponent is clamped at -60: deep-tail cells would otherwise push
      ``exp`` into the subnormal slow path, and raising the bound (to
      ~4e-27) only makes the cut more conservative;
    * unstressed cells leave before ``ndtr``: their probability is
      ``ndtr(z) * 0 == 0``, which no uniform is below;
    * ``ndtr`` and the stress multiply then run on the few remaining
      *candidate* cells (the uniform fell under the bound, or ``z`` is
      above the threshold) with the very expressions of the full pass, so
      each candidate's probability is bit-equal to the full vector's.

    ``-0.5 * z * z`` associates left, so the bound is staged as
    ``(-0.5 * z) * z`` in one array: the operator expression's operations,
    in its order.
    """
    bound = np.multiply(-0.5, z)
    np.multiply(bound, z, out=bound)
    np.maximum(bound, -60.0, out=bound)
    np.exp(bound, out=bound)
    np.multiply(0.5, bound, out=bound)
    live = z > _CHERNOFF_Z_MAX
    live |= u < bound
    if stressed is not None:
        live &= stressed != 0.0
    candidates = np.flatnonzero(live)
    p = ndtr(z[candidates])
    if stressed is not None:
        p *= stressed[candidates]
    return candidates[u[candidates] < p]


#: Upper bound on memoized (pattern, temperature) states per population;
#: far above any realistic sweep (12 patterns x a handful of temperatures),
#: it only guards pathological temperature scans from unbounded growth.
_FAST_CACHE_MAX_ENTRIES = 256

#: Upper bound on memoized probability vectors per (pattern, temperature)
#: state; real profiling runs use a single exposure per run, so this only
#: guards pathological exposure sweeps from unbounded growth.
_FAST_CACHE_MAX_EXPOSURES = 64


@dataclass
class _FastPatternState:
    """Memoized per-(pattern, temperature) evaluation state.

    ``mu_eff``/``sigma_eff`` are the scaled effective-retention arrays --
    the expensive alignment-dependent product that the reference path
    recomputes on every read.  ``alignment`` is the exact alignment array
    the state was built from; lookups verify identity so a DPD redraw
    invalidates the entry.

    ``p_by_exposure`` caches, per exposure, the finished probability vector
    (``ndtr`` evaluated once via the reference expression, stress mask
    already multiplied in).  Each entry is pinned to the stress-mask array
    it was built with, so a different mask misses the cache rather than
    reusing a stale product.
    """

    alignment: np.ndarray
    mu_eff: np.ndarray
    sigma_eff: np.ndarray
    p_by_exposure: Dict[float, Tuple[Optional[np.ndarray], np.ndarray]] = field(
        default_factory=dict
    )


class WeakCellPopulation:
    """The instantiated weak tail of one chip, with its failure model.

    :meth:`sample_failures` runs the memoized marginal-band evaluation.
    ``fast_path=False`` swaps in the reference computation it is tested
    byte-identical against -- an oracle for tests and benchmarks, not a
    production mode.
    """

    def __init__(
        self,
        sample: WeakCellSample,
        vendor: VendorModel,
        dpd: DPDModel,
        fast_path: bool = True,
    ) -> None:
        if dpd.n_cells != len(sample):
            raise ConfigurationError("DPD model size does not match weak-cell sample")
        self._sample = sample
        self._vendor = vendor
        self._dpd = dpd
        self._fast_path = bool(fast_path)
        self._fast_states: Dict[Tuple[str, float], _FastPatternState] = {}
        self._scale_memo: Dict[float, float] = {}
        self._sigma_eff_memo: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Introspection (used by the characterization analyses)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sample)

    @property
    def indices(self) -> np.ndarray:
        return self._sample.indices

    @property
    def mu_wc_s(self) -> np.ndarray:
        """Worst-case-pattern failure-CDF means at the reference temperature."""
        return self._sample.mu_wc_s

    @property
    def sigma_s(self) -> np.ndarray:
        """Failure-CDF standard deviations at the reference temperature."""
        return self._sample.sigma_s

    @property
    def vrt_flag(self) -> np.ndarray:
        return self._sample.vrt_flag

    @property
    def dpd(self) -> DPDModel:
        return self._dpd

    def scaled_parameters(self, temperature_c: float) -> tuple:
        """(mu, sigma) arrays at the given ambient temperature (Figure 7)."""
        scale = self._vendor.retention_scale(temperature_c)
        return self._sample.mu_wc_s * scale, self._sample.sigma_s * scale

    # ------------------------------------------------------------------
    # Fast-path cache management
    # ------------------------------------------------------------------
    def retention_scale(self, temperature_c: float) -> float:
        """Memoized vendor retention scale factor for one temperature."""
        key = float(temperature_c)
        scale = self._scale_memo.get(key)
        if scale is None:
            scale = self._vendor.retention_scale(key)
            self._scale_memo[key] = scale
        return scale

    def invalidate_fast_cache(self) -> None:
        """Drop every memoized (pattern, temperature) evaluation state.

        Called on device reset (the DPD alignments will be redrawn) and
        available to any caller that mutates model state out-of-band.
        Entries are additionally self-invalidating: they are keyed by
        (pattern, temperature) and pinned to the exact alignment array they
        were built from, so temperature changes and DPD redraws miss the
        cache rather than reuse stale state even without an explicit call.
        """
        self._fast_states.clear()
        self._scale_memo.clear()
        self._sigma_eff_memo.clear()

    def _sigma_eff(self, temperature_c: float) -> np.ndarray:
        """Memoized ``sigma_s * scale`` -- alignment-independent, so one
        array serves every pattern at a given temperature.  The product is
        the exact expression the reference path computes."""
        key = float(temperature_c)
        sigma_eff = self._sigma_eff_memo.get(key)
        if sigma_eff is None:
            sigma_eff = self._sample.sigma_s * self.retention_scale(key)
            if len(self._sigma_eff_memo) >= _FAST_CACHE_MAX_ENTRIES:
                self._sigma_eff_memo.clear()
            self._sigma_eff_memo[key] = sigma_eff
        return sigma_eff

    def _fast_state(
        self, pattern_key: str, temperature_c: float, alignment: np.ndarray
    ) -> _FastPatternState:
        key = (pattern_key, float(temperature_c))
        state = self._fast_states.get(key)
        if state is not None and state.alignment is alignment:
            return state
        scale = self.retention_scale(temperature_c)
        # Exactly the reference expression, term for term, so the cached
        # values are bit-equal to what failure_probabilities computes.
        mu_eff = self._dpd.effective_retention(self._sample.mu_wc_s, alignment) * scale
        state = _FastPatternState(
            alignment=alignment,
            mu_eff=mu_eff,
            sigma_eff=self._sigma_eff(temperature_c),
        )
        if len(self._fast_states) >= _FAST_CACHE_MAX_ENTRIES:
            self._fast_states.clear()
        self._fast_states[key] = state
        return state

    # ------------------------------------------------------------------
    # Failure evaluation
    # ------------------------------------------------------------------
    def failure_probabilities(
        self,
        exposure_s: float,
        temperature_c: float,
        alignment: np.ndarray,
        stressed: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-cell failure probability for one retention exposure.

        ``alignment`` is the DPD alignment vector of the written pattern;
        ``stressed`` masks out cells currently storing their discharged
        value, which cannot lose charge and therefore cannot fail.

        This is the *reference* evaluation: a full-tail ``ndtr`` pass with
        no memoization.  The fast path in :meth:`sample_failures` is tested
        byte-identical against it.
        """
        if exposure_s < 0.0:
            raise ConfigurationError(f"exposure must be non-negative, got {exposure_s!r}")
        if exposure_s == 0.0:
            return np.zeros(len(self._sample))
        scale = self._vendor.retention_scale(temperature_c)
        mu_eff = self._dpd.effective_retention(self._sample.mu_wc_s, alignment) * scale
        sigma_eff = self._sample.sigma_s * scale
        p = ndtr((exposure_s - mu_eff) / sigma_eff)
        if stressed is not None:
            p = p * stressed
        return p

    def worst_case_probabilities(self, exposure_s: float, temperature_c: float) -> np.ndarray:
        """Failure probabilities under the worst-case data pattern."""
        ones = np.ones(len(self._sample))
        return self.failure_probabilities(exposure_s, temperature_c, ones)

    def sample_failures(
        self,
        exposure_s: float,
        temperature_c: float,
        alignment: np.ndarray,
        rng: np.random.Generator,
        stressed: Optional[np.ndarray] = None,
        pattern_key: Optional[str] = None,
        stochastic: bool = True,
    ) -> np.ndarray:
        """Bernoulli-sample one read-out: flat indices of cells that failed.

        ``pattern_key``/``stochastic`` identify the written pattern so the
        fast path can memoize per-(pattern, temperature) state for
        deterministic patterns; callers that only have an alignment vector
        can omit them and still get the banded fast evaluation.  Fast and
        reference paths consume the RNG identically (one full-tail uniform
        draw) and return identical index arrays.
        """
        if not self._fast_path:
            p = self.failure_probabilities(exposure_s, temperature_c, alignment, stressed)
            failed = rng.random(len(p)) < p
            return self._sample.indices[failed]
        if exposure_s < 0.0:
            raise ConfigurationError(f"exposure must be non-negative, got {exposure_s!r}")
        n = len(self._sample)
        if exposure_s == 0.0:
            # The reference path draws uniforms even for a zero exposure;
            # match it so the generator state stays aligned.
            rng.random(n)
            return self._sample.indices[:0]
        if pattern_key is not None and not stochastic:
            failed = self._sample_deterministic_fast(
                exposure_s, temperature_c, pattern_key, alignment, stressed, rng
            )
        else:
            failed = self._sample_banded_fast(
                exposure_s, temperature_c, alignment, stressed, rng
            )
        return self._sample.indices[failed]

    def _sample_deterministic_fast(
        self,
        exposure_s: float,
        temperature_c: float,
        pattern_key: str,
        alignment: np.ndarray,
        stressed: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Memoized probability-vector sampling for a deterministic pattern.

        The exposure is constant across every read of a profiling run, so
        the per-cell probabilities are computed once per (pattern,
        temperature, exposure) and every subsequent read is a single
        uniform draw plus a vectorized compare.
        """
        state = self._fast_state(pattern_key, temperature_c, alignment)
        key = float(exposure_s)
        entry = state.p_by_exposure.get(key)
        if entry is None or entry[0] is not stressed:
            # One full ndtr pass -- the reference expression, term for
            # term -- amortized over every subsequent read at this
            # (pattern, temperature, exposure) point.
            p = ndtr((exposure_s - state.mu_eff) / state.sigma_eff)
            if stressed is not None:
                p = p * stressed
            if len(state.p_by_exposure) >= _FAST_CACHE_MAX_EXPOSURES:
                state.p_by_exposure.clear()
            entry = (stressed, p)
            state.p_by_exposure[key] = entry
        return rng.random(len(self._sample)) < entry[1]

    def _sample_banded_fast(
        self,
        exposure_s: float,
        temperature_c: float,
        alignment: np.ndarray,
        stressed: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Chernoff-cut sampling without memoization (stochastic patterns).

        The alignment changes on every write, so there is nothing to
        memoize -- but almost every cell's failure probability is tiny, and
        :func:`chernoff_hits` evaluates ``ndtr`` only where the drawn
        uniform might land under it.  Returns the failing cells' positions
        in the weak tail, ascending.
        """
        scale = self.retention_scale(temperature_c)
        mu_eff = self._dpd.effective_retention(self._sample.mu_wc_s, alignment) * scale
        z = (exposure_s - mu_eff) / self._sigma_eff(temperature_c)
        return chernoff_hits(z, rng.random(len(z)), stressed)

    def oracle_failing(self, conditions: Conditions, p_min: float = 0.05) -> np.ndarray:
        """Ground-truth failing set at ``conditions``.

        A cell belongs to the set if its worst-case-pattern failure
        probability at the target conditions is at least ``p_min`` -- i.e. it
        has a non-negligible chance of failing during actual operation, which
        is exactly the population coverage and false-positive accounting must
        be measured against.
        """
        if not (0.0 < p_min <= 1.0):
            raise ConfigurationError(f"p_min must lie in (0, 1], got {p_min!r}")
        p = self.worst_case_probabilities(conditions.trefi, conditions.temperature)
        return self._sample.indices[p >= p_min]
