"""Variable retention time (VRT) as an episodic stochastic process.

VRT cells alternate between retention states according to a memoryless
random process (Section 2.3.1).  What a profiler observes is the paper's
*steady-state new-failure accumulation*: no matter how long you profile,
previously unseen cells keep failing at a rate ``A(t) = a * t^b`` cells/hour
(Figure 4), while the size of the per-iteration failing set stays roughly
constant because cells also *leave* the failing set at about the same rate
(Figure 3).

We model this directly as a marked Poisson process of *episodes*.  Each
episode places one cell into a low-retention state:

* arrival intensity for episodes with low-state retention below ``h`` is the
  vendor's ``A(h, temperature)``;
* the low-state retention ``mu_low`` of an arrival is distributed with CDF
  ``(mu/h)^b`` on (0, h] (the density implied by the power law);
* the episode persists for an exponentially distributed dwell time, after
  which the cell returns to its strong state.

Episodes are generated lazily up to a fixed horizon; exposures beyond the
horizon are rejected loudly rather than silently under-counting failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..conditions import REFERENCE_TEMPERATURE_C
from ..errors import ConfigurationError
from .geometry import GIBIBIT
from .vendor import VendorModel

_SECONDS_PER_HOUR = 3600.0


@dataclass
class _EpisodeBlock:
    """A batch of episodes generated during one advance."""

    cell_index: np.ndarray
    mu_low_s: np.ndarray
    start_s: np.ndarray
    end_s: np.ndarray


def _empty_block() -> _EpisodeBlock:
    return _EpisodeBlock(
        cell_index=np.empty(0, dtype=np.int64),
        mu_low_s=np.empty(0, dtype=np.float64),
        start_s=np.empty(0, dtype=np.float64),
        end_s=np.empty(0, dtype=np.float64),
    )


def _failing(episodes: _EpisodeBlock, now_s, exposure_s) -> np.ndarray:
    """Which episodes are active at ``now_s`` with a low-state retention
    below ``exposure_s`` (scalars, or columns broadcast against the
    episodes)."""
    return (
        (episodes.start_s <= now_s)
        & (episodes.end_s > now_s)
        & (episodes.mu_low_s < exposure_s)
    )


def schedule_gaps(times_s: np.ndarray, start_s: float) -> np.ndarray:
    """The positive gaps of an ascending schedule ``times_s`` from
    ``start_s``: the segments :meth:`VRTProcess.advance_to` would draw
    arrivals for, stepping through it (zero-length ones draw nothing)."""
    if times_s[0] < start_s or np.any(np.diff(times_s) < 0.0):
        raise ConfigurationError(
            f"cannot advance VRT process backwards through schedule (from {start_s})"
        )
    dts = np.diff(np.concatenate(([start_s], times_s)))
    return dts[dts > 0.0]


class VRTProcess:
    """Lazy generator of VRT low-retention episodes for one chip.

    Parameters
    ----------
    vendor:
        Vendor model providing the arrival power law and dwell time.
    capacity_bits:
        Chip capacity (arrival intensity scales linearly with it).
    horizon_s:
        Largest low-state retention time episodes are generated for.  Must
        cover the largest *effective* exposure the chip will experience.
    rng:
        Source of randomness.
    start_time_s:
        Simulated time at which the process begins.
    """

    def __init__(
        self,
        vendor: VendorModel,
        capacity_bits: int,
        horizon_s: float,
        rng: np.random.Generator,
        start_time_s: float = 0.0,
    ) -> None:
        if horizon_s <= 0.0:
            raise ConfigurationError(f"VRT horizon must be positive, got {horizon_s!r}")
        self._vendor = vendor
        self._capacity_bits = int(capacity_bits)
        self._capacity_gbit = capacity_bits / GIBIBIT
        self._horizon_s = float(horizon_s)
        self._rng = rng
        self._time_s = float(start_time_s)
        self._blocks: List[_EpisodeBlock] = []
        self._compacted: _EpisodeBlock = _empty_block()
        self._rate_memo: dict = {}

    # ------------------------------------------------------------------
    # Time evolution
    # ------------------------------------------------------------------
    @property
    def horizon_s(self) -> float:
        return self._horizon_s

    @property
    def time_s(self) -> float:
        return self._time_s

    def advance_to(self, time_s: float, temperature_c: float = REFERENCE_TEMPERATURE_C) -> None:
        """Generate episode arrivals in ``(self.time_s, time_s]``.

        The arrival intensity is evaluated at ``temperature_c``; callers that
        sweep temperature should advance in segments of constant temperature.
        """
        if time_s < self._time_s:
            raise ConfigurationError(
                f"cannot advance VRT process backwards ({time_s} < {self._time_s})"
            )
        dt_s = time_s - self._time_s
        if dt_s == 0.0:
            return
        rate_per_hour = self._rate_memo.get(temperature_c)
        if rate_per_hour is None:
            rate_per_hour = self._vendor.vrt_arrival_rate_per_hour(
                self._horizon_s, self._capacity_gbit, temperature_c
            )
            self._rate_memo[temperature_c] = rate_per_hour
        expected = rate_per_hour * dt_s / _SECONDS_PER_HOUR
        count = int(self._rng.poisson(expected))
        if count > 0:
            b = self._vendor.vrt_arrival_exponent
            u = self._rng.random(count)
            mu_low = self._horizon_s * u ** (1.0 / b)
            starts = self._time_s + self._rng.random(count) * dt_s
            dwell = self._rng.exponential(self._vendor.vrt_dwell_mean_s, size=count)
            cells = self._rng.integers(0, self._capacity_bits, size=count, dtype=np.int64)
            self._blocks.append(
                _EpisodeBlock(cell_index=cells, mu_low_s=mu_low, start_s=starts, end_s=starts + dwell)
            )
        self._time_s = time_s

    def advance_gaps(
        self,
        gaps_s: np.ndarray,
        end_s: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
    ) -> bool:
        """Try to advance through a whole ascending schedule in one draw.

        ``gaps_s`` are the schedule's positive gaps from this process's
        time (:func:`schedule_gaps`) and ``end_s`` its last entry.
        Equivalent to ``for t in schedule: advance_to(t, temperature_c)``
        *when no episode arrives anywhere in the schedule* -- by far the
        common case (most chips see zero episodes over an entire campaign
        grid).  The arrival counts for every gap are drawn as one
        vectorized Poisson call, which consumes the generator stream
        exactly as the equivalent sequence of scalar draws would;
        zero-length segments draw nothing, exactly like
        :meth:`advance_to`'s early return.  Processes on one clock share
        the gaps, so a fleet computes them once and each process pays only
        its own rate multiply and Poisson draw.

        Returns ``True`` after committing (time advanced to ``end_s``,
        generator state identical to the sequential walk).  If any segment
        would produce an arrival, the generator state is restored untouched
        and ``False`` is returned: the caller must replay the schedule with
        per-step :meth:`advance_to` calls, interleaving its queries, to
        reproduce the sequential episode bookkeeping bit for bit.
        """
        if gaps_s.size == 0:
            self._time_s = end_s
            return True
        rate_per_hour = self._rate_memo.get(temperature_c)
        if rate_per_hour is None:
            rate_per_hour = self._vendor.vrt_arrival_rate_per_hour(
                self._horizon_s, self._capacity_gbit, temperature_c
            )
            self._rate_memo[temperature_c] = rate_per_hour
        expected = rate_per_hour * gaps_s / _SECONDS_PER_HOUR
        state = self._rng.bit_generator.state
        counts = self._rng.poisson(expected)
        if counts.any():
            self._rng.bit_generator.state = state
            return False
        self._time_s = end_s
        return True

    def _all_episodes(self) -> _EpisodeBlock:
        if self._blocks:
            merged = _EpisodeBlock(
                cell_index=np.concatenate(
                    [self._compacted.cell_index] + [b.cell_index for b in self._blocks]
                ),
                mu_low_s=np.concatenate(
                    [self._compacted.mu_low_s] + [b.mu_low_s for b in self._blocks]
                ),
                start_s=np.concatenate(
                    [self._compacted.start_s] + [b.start_s for b in self._blocks]
                ),
                end_s=np.concatenate([self._compacted.end_s] + [b.end_s for b in self._blocks]),
            )
            self._compacted = merged
            self._blocks = []
        return self._compacted

    @property
    def episode_count(self) -> int:
        return len(self._all_episodes().cell_index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_exposure(self, exposure_s: float) -> None:
        # Tolerate float accumulation error at the exact boundary.
        if exposure_s > self._horizon_s * (1.0 + 1e-9):
            raise ConfigurationError(
                f"exposure {exposure_s!r}s exceeds the VRT generation horizon "
                f"{self._horizon_s!r}s; construct the chip with a larger max_trefi_s"
            )

    def failing_cells(self, now_s: float, exposure_s: float) -> np.ndarray:
        """Cells whose episode is active at ``now_s`` and fails the exposure.

        An episode fails the exposure when its low-state retention is below
        the exposure duration.  VRT low states are modelled as absolute
        retention values (the arrival intensity already carries the
        temperature dependence), so no further temperature scaling applies.
        """
        self._check_exposure(exposure_s)
        episodes = self._all_episodes()
        failing = episodes.cell_index[_failing(episodes, now_s, exposure_s)]
        if failing.size == 0:
            return failing
        return np.unique(failing)

    def failing_cells_at(self, now_s: np.ndarray, exposures_s: np.ndarray) -> Dict[int, np.ndarray]:
        """:meth:`failing_cells` for each ``(now_s[r], exposures_s[r])``
        query against the episodes held now, evaluated together: query
        ``r`` maps to its failing cells where there are any.  Each query's
        row of the mask is :meth:`failing_cells`' own, so its cells are
        exactly what that call returns."""
        exposures_s = np.asarray(exposures_s, dtype=np.float64)
        over = np.flatnonzero(exposures_s > self._horizon_s * (1.0 + 1e-9))
        if over.size:
            self._check_exposure(float(exposures_s[over[0]]))
        episodes = self._all_episodes()
        if not len(episodes.cell_index):
            return {}
        mask = _failing(
            episodes, np.asarray(now_s, dtype=np.float64)[:, None], exposures_s[:, None]
        )
        return {
            int(r): np.unique(episodes.cell_index[mask[r]])
            for r in np.flatnonzero(mask.any(axis=1))
        }

    def episodes_overlapping(
        self, window_start_s: float, window_end_s: float, exposure_s: float
    ) -> np.ndarray:
        """Cells with a failing episode at any point inside the window.

        This is the ground-truth query: "which cells would fail a retention
        exposure of ``exposure_s`` at some point during the window?" -- used
        to build oracle failing sets for coverage accounting.
        """
        if window_end_s < window_start_s:
            raise ConfigurationError("window end precedes window start")
        self._check_exposure(exposure_s)
        episodes = self._all_episodes()
        mask = (
            (episodes.start_s < window_end_s)
            & (episodes.end_s > window_start_s)
            & (episodes.mu_low_s < exposure_s)
        )
        return np.unique(episodes.cell_index[mask])
