"""Sampling of the weak retention-time tail of a chip.

A real chip has billions of cells, the overwhelming majority of which retain
data far longer than any refresh interval a profiler would ever test.  Only
the *weak tail* -- cells whose worst-case retention time falls below a
configurable horizon -- can ever produce a retention failure in our
experiments, so only those cells are instantiated, as a vectorized
struct-of-arrays (:class:`WeakCellSample`).

Per Section 5.5 of the paper, each instantiated cell carries:

* ``mu_wc_s`` -- worst-case-data-pattern retention time (the mean of its
  normal failure CDF), drawn from the vendor's lognormal tail;
* ``sigma_s`` -- the standard deviation of its failure CDF, drawn from the
  vendor's lognormal sigma distribution (Figure 6b);
* ``susceptibility`` -- DPD susceptibility ``s`` (how much the stored data
  pattern can degrade its retention);
* ``vrt_flag`` -- whether the cell is VRT-prone (excluded from per-cell CDF
  analyses, as in the paper's footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..errors import ConfigurationError
from .vendor import VendorModel


@dataclass
class WeakCellSample:
    """Struct-of-arrays description of a chip's instantiated weak cells.

    All arrays share the same length and ordering; ``indices`` is sorted and
    unique (flat cell addresses within the chip).  ``orientation`` is the
    cell's charged logic value (1 for true-cells, 0 for anti-cells): a cell
    only leaks towards failure while storing its charged value, which is why
    every test pattern must be paired with its inverse (Section 3.2).
    """

    indices: np.ndarray
    mu_wc_s: np.ndarray
    sigma_s: np.ndarray
    susceptibility: np.ndarray
    vrt_flag: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.indices)
        for name in ("mu_wc_s", "sigma_s", "susceptibility", "vrt_flag", "orientation"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"array {name!r} length mismatch with indices")

    def __len__(self) -> int:
        return len(self.indices)


class RetentionSampler:
    """Draws a chip's weak-cell population from a vendor model.

    Sampling happens in reference-temperature (45 degC) space; temperature
    effects are applied at evaluation time by scaling retention times.
    """

    def __init__(self, vendor: VendorModel, rng: np.random.Generator) -> None:
        self._vendor = vendor
        self._rng = rng

    def sample(self, capacity_bits: int, horizon_s: float) -> WeakCellSample:
        """Sample all cells whose worst-case retention lies below ``horizon_s``.

        The number of weak cells is Poisson with mean
        ``capacity_bits * P(retention < horizon)``; their retention times are
        drawn from the lognormal tail truncated at the horizon via inverse-CDF
        sampling.
        """
        if capacity_bits <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_bits!r}")
        if horizon_s <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {horizon_s!r}")
        vendor = self._vendor
        rng = self._rng

        p_tail = vendor.weak_cell_probability(horizon_s, temperature_c=45.0)
        expected = capacity_bits * p_tail
        count = int(rng.poisson(expected))
        if count == 0:
            empty_f = np.empty(0, dtype=np.float64)
            return WeakCellSample(
                indices=np.empty(0, dtype=np.int64),
                mu_wc_s=empty_f,
                sigma_s=empty_f.copy(),
                susceptibility=empty_f.copy(),
                vrt_flag=np.empty(0, dtype=bool),
                orientation=np.empty(0, dtype=np.uint8),
            )

        # Weak cells are sparse relative to the full array, so sampling flat
        # addresses with replacement and de-duplicating loses a negligible
        # number of draws.
        indices = _sorted_unique(rng.integers(0, capacity_bits, size=count, dtype=np.int64))
        count = len(indices)

        # Inverse-CDF sampling of the truncated lognormal tail.
        u = rng.uniform(0.0, p_tail, size=count)
        z = ndtri(u)
        mu_wc = np.exp(vendor.retention_ln_median + vendor.retention_ln_sigma * z)

        sigma = rng.lognormal(
            mean=np.log(vendor.cell_sigma_ln_median_s),
            sigma=vendor.cell_sigma_ln_sigma,
            size=count,
        )
        # A cell whose failure-CDF spread rivals its mean would fail at
        # implausibly short intervals; physical sigma is always a small
        # fraction of the retention time (Figure 6), so clip accordingly.
        sigma = np.minimum(sigma, mu_wc / 4.0)

        susceptibility = rng.uniform(0.0, vendor.dpd_susceptibility_max, size=count)
        vrt_flag = rng.random(count) < vendor.vrt_cell_fraction
        # True-cell / anti-cell orientation: which stored logic value holds
        # charge (and therefore leaks).  Real arrays mix both to share sense
        # amplifiers, so a fair coin per cell.
        orientation = rng.integers(0, 2, size=count, dtype=np.uint8)

        # Shuffle breaks the correlation between address order and the
        # inverse-CDF draw order introduced by the sort.
        order = rng.permutation(count)
        return WeakCellSample(
            indices=indices,
            mu_wc_s=mu_wc[order],
            sigma_s=sigma[order],
            susceptibility=susceptibility[order],
            vrt_flag=vrt_flag[order],
            orientation=orientation[order],
        )


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a non-empty int array: sort, then drop
    each value equal to its predecessor -- the same sorted unique array,
    without ``np.unique``'s hash-table pass."""
    values = np.sort(values)
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]
