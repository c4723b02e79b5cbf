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
from typing import Dict, List, Sequence, Tuple

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
        sampling.  One chip's :func:`sample_many`.
        """
        (sample,) = sample_many([self._vendor], [self._rng], capacity_bits, [horizon_s])
        return sample


def sample_many(
    vendors: Sequence[VendorModel],
    rngs: Sequence[np.random.Generator],
    capacity_bits: int,
    horizons_s: Sequence[float],
) -> List[WeakCellSample]:
    """Chip ``i``'s weak-cell population, ``RetentionSampler(vendors[i],
    rngs[i]).sample(capacity_bits, horizons_s[i])``, for every chip at once.

    Each chip's draws come from its own generator (a distinct object per
    chip), in the order one chip's sampling makes them: the cell count, the flat addresses, then, per
    de-duplicated cell, the tail uniform, the sigma, the susceptibility,
    the VRT flag's uniform, the orientation bit and the shuffle (a chip
    that draws no cell draws nothing after its count).  Everything else
    -- de-duplication, the inverse CDF, the sigma clip, the VRT flag
    compare and the shuffle's gathers -- runs once over every chip's
    cells: chip ``i``'s addresses offset by ``i * capacity_bits`` sort
    and de-duplicate within its own range, each chip's scalar parameters
    repeat over its cells (an elementwise operation with a per-cell copy
    of a scalar is bit-equal to one with the scalar), and each shuffle
    gathers within its chip's segment.  The samples returned are views
    into the stacked arrays.
    """
    if capacity_bits <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity_bits!r}")
    for horizon_s in horizons_s:
        if horizon_s <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {horizon_s!r}")
    n_chips = len(vendors)
    if not n_chips:
        return []
    p_tails = [
        vendor.weak_cell_probability(horizon_s, temperature_c=45.0)
        for vendor, horizon_s in zip(vendors, horizons_s)
    ]
    # Flat addresses, drawn with replacement: weak cells are sparse
    # relative to the full array, so de-duplicating loses a negligible
    # number of draws.
    drawn = []
    for rng, p_tail in zip(rngs, p_tails):
        count = int(rng.poisson(capacity_bits * p_tail))
        drawn.append(rng.integers(0, capacity_bits, size=count, dtype=np.int64) if count else _NO_CELLS)
    chip_base = np.arange(n_chips, dtype=np.int64) * capacity_bits
    keyed = np.concatenate(drawn)
    keyed += np.repeat(chip_base, [len(d) for d in drawn])
    keyed = _sorted_unique(keyed)
    offsets = np.searchsorted(keyed, np.append(chip_base, n_chips * capacity_bits))
    counts = np.diff(offsets)
    indices = keyed - np.repeat(chip_base, counts)

    log_medians: Dict[float, float] = {}
    parts: Tuple[List[np.ndarray], ...] = ([], [], [], [], [], [])
    for vendor, rng, p_tail, count in zip(vendors, rngs, p_tails, counts.tolist()):
        if not count:
            continue
        median = vendor.cell_sigma_ln_median_s
        if median not in log_medians:
            log_medians[median] = np.log(median)
        for part, draw in zip(
            parts,
            (
                # Inverse-CDF sampling of the truncated lognormal tail.
                rng.uniform(0.0, p_tail, size=count),
                rng.lognormal(
                    mean=log_medians[median], sigma=vendor.cell_sigma_ln_sigma, size=count
                ),
                rng.uniform(0.0, vendor.dpd_susceptibility_max, size=count),
                rng.random(count),
                # True-cell / anti-cell orientation: which stored logic
                # value holds charge (and therefore leaks).  Real arrays
                # mix both to share sense amplifiers, so a fair coin per
                # cell.
                rng.integers(0, 2, size=count, dtype=np.uint8),
                # Shuffle breaks the correlation between address order and
                # the inverse-CDF draw order introduced by the sort.
                rng.permutation(count),
            ),
        ):
            part.append(draw)
    u, sigma, susceptibility, vrt_u, orientation, order = (
        np.concatenate(part) if part else np.empty(0, dtype=dtype)
        for part, dtype in zip(parts, (np.float64,) * 4 + (np.uint8, np.int64))
    )

    def per_cell(values) -> np.ndarray:
        return np.repeat(np.asarray(values, dtype=np.float64), counts)

    z = ndtri(u)
    z *= per_cell([v.retention_ln_sigma for v in vendors])
    z += per_cell([v.retention_ln_median for v in vendors])
    mu_wc = np.exp(z, out=z)
    # A cell whose failure-CDF spread rivals its mean would fail at
    # implausibly short intervals; physical sigma is always a small
    # fraction of the retention time (Figure 6), so clip accordingly.
    sigma = np.minimum(sigma, mu_wc / 4.0)
    vrt_flag = vrt_u < per_cell([v.vrt_cell_fraction for v in vendors])
    order += np.repeat(offsets[:-1], counts)
    mu_wc, sigma, susceptibility, vrt_flag, orientation = (
        np.take(array, order) for array in (mu_wc, sigma, susceptibility, vrt_flag, orientation)
    )
    bounds = offsets.tolist()
    return [
        WeakCellSample(
            indices=indices[start:end],
            mu_wc_s=mu_wc[start:end],
            sigma_s=sigma[start:end],
            susceptibility=susceptibility[start:end],
            vrt_flag=vrt_flag[start:end],
            orientation=orientation[start:end],
        )
        for start, end in zip(bounds[:-1], bounds[1:])
    ]


#: The flat addresses of a chip that draws no weak cell.
_NO_CELLS = np.empty(0, dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for an int array: sort, then drop each value
    equal to its predecessor -- the same sorted unique array, without
    ``np.unique``'s hash-table pass."""
    values = np.sort(values)
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]
