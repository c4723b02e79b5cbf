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

Chernoff cut
------------
Most cells of a read have a vanishing failure probability: the Chernoff
cut (:func:`chernoff_hits`) proves ``u >= p`` for almost every drawn
uniform ``u`` without evaluating the CDF, so exact ``ndtr`` runs only over
the few *candidate* cells whose uniform landed under the bound.
:meth:`WeakCellPopulation.sample_failures` reads through it; the grid
kernel (:mod:`repro.core.fleetprof`) evaluates its reads through the same
function.

``ndtr`` also saturates in double precision -- exactly ``1.0`` at or beyond
:data:`Z_PIN_ONE` and exactly ``0.0`` at or beyond :data:`Z_PIN_ZERO` -- which
is what makes such cuts *exact* rather than approximate: a pinned or
excluded cell's probability is bit-equal to what the full CDF pass would
have produced.  Both the cut and the reference evaluation
(``fast_path=False``) draw one full-tail uniform vector per read from the
same stream, so they fail the same cells, in the same order, from the same
generator state.
"""

from __future__ import annotations

from typing import Optional

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
    written pattern, float or boolean (``None`` when every cell is
    stressed; multiplying by ``True`` or ``False`` is multiplying by
    exactly 1.0 or 0.0).  The result is
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
        # Nonzero, for a float mask and, without a cast, a boolean one.
        live &= np.not_equal(stressed, False)
    candidates = np.flatnonzero(live)
    p = ndtr(z[candidates])
    if stressed is not None:
        p *= stressed[candidates]
    return candidates[u[candidates] < p]


class WeakCellPopulation:
    """The instantiated weak tail of one chip, with its failure model.

    :meth:`sample_failures` reads through the Chernoff cut.
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

    @property
    def fast_path(self) -> bool:
        """``False`` when reads run the reference evaluation (the oracle)."""
        return self._fast_path

    def scaled_parameters(self, temperature_c: float) -> tuple:
        """(mu, sigma) arrays at the given ambient temperature (Figure 7)."""
        scale = self._vendor.retention_scale(temperature_c)
        return self._sample.mu_wc_s * scale, self._sample.sigma_s * scale

    def retention_scale(self, temperature_c: float) -> float:
        """The vendor retention scale factor at one ambient temperature."""
        return self._vendor.retention_scale(float(temperature_c))

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

        This is the *reference* evaluation: a full-tail ``ndtr`` pass.  The
        Chernoff-cut read in :meth:`sample_failures` is tested
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
    ) -> np.ndarray:
        """Bernoulli-sample one read-out: flat indices of cells that failed.

        Draws one full-tail uniform vector from ``rng`` and compares it
        through :func:`chernoff_hits`, which evaluates ``ndtr`` only where
        a uniform might land under the probability.  The reference path
        (``fast_path=False``) compares the same draw against the full
        probability vector; both return identical index arrays.
        """
        if not self._fast_path:
            p = self.failure_probabilities(exposure_s, temperature_c, alignment, stressed)
            failed = rng.random(len(p)) < p
            return self._sample.indices[failed]
        if exposure_s < 0.0:
            raise ConfigurationError(f"exposure must be non-negative, got {exposure_s!r}")
        # The reference path draws uniforms even for a zero exposure; so
        # does this one, so the generator state stays aligned.
        u = rng.random(len(self._sample))
        if exposure_s == 0.0:
            return self._sample.indices[:0]
        scale = self.retention_scale(temperature_c)
        mu_eff = self._dpd.effective_retention(self._sample.mu_wc_s, alignment) * scale
        z = (exposure_s - mu_eff) / (self._sample.sigma_s * scale)
        return self._sample.indices[chernoff_hits(z, u, stressed)]

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
