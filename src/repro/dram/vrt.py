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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: The episodes of a process before its first arrival, shared by every
#: process: episode arrays are only ever concatenated, never written.
_NO_EPISODES = _EpisodeBlock(
    cell_index=_read_only(np.empty(0, dtype=np.int64)),
    mu_low_s=_read_only(np.empty(0, dtype=np.float64)),
    start_s=_read_only(np.empty(0, dtype=np.float64)),
    end_s=_read_only(np.empty(0, dtype=np.float64)),
)

#: Margin below ``1 - lambda`` under which a uniform is certainly at most
#: ``exp(-lambda)`` (:meth:`VRTProcess.advance_gaps`): far above the
#: rounding of ``1 - lambda`` and any libm ``exp`` error near 1.
_ZERO_MARGIN = 2.0**-40


def _failing(episodes: _EpisodeBlock, now_s, exposure_s) -> np.ndarray:
    """Which episodes are active at ``now_s`` with a low-state retention
    below ``exposure_s`` (scalars, or columns broadcast against the
    episodes)."""
    return (
        (episodes.start_s <= now_s)
        & (episodes.end_s > now_s)
        & (episodes.mu_low_s < exposure_s)
    )


@dataclass(frozen=True)
class ScheduleGaps:
    """The positive gaps of an ascending schedule from a start time: the
    segments :meth:`VRTProcess.advance_to` would draw arrivals for,
    stepping through it (zero-length ones draw nothing).  Gap ``i`` ends
    at ``ends[i]``, the schedule's entry ``index[i]``; ``shortest`` and
    ``longest`` are the extreme gaps.  The arrays are read-only, so
    processes on one clock share them."""

    seconds: np.ndarray
    ends: np.ndarray
    index: np.ndarray
    shortest: float
    longest: float


def schedule_gaps(times_s: np.ndarray, start_s: float) -> ScheduleGaps:
    """The :class:`ScheduleGaps` of ascending ``times_s`` (possibly empty)
    from ``start_s``."""
    if times_s.size and (times_s[0] < start_s or np.any(np.diff(times_s) < 0.0)):
        raise ConfigurationError(
            f"cannot advance VRT process backwards through schedule (from {start_s})"
        )
    dts = np.diff(np.concatenate(([start_s], times_s)))
    index = _read_only(np.flatnonzero(dts > 0.0))
    gaps = _read_only(dts[index])
    return ScheduleGaps(
        seconds=gaps,
        ends=_read_only(times_s[index]),
        index=index,
        shortest=float(gaps.min()) if gaps.size else 0.0,
        longest=float(gaps.max()) if gaps.size else 0.0,
    )


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
        self._compacted: _EpisodeBlock = _NO_EPISODES
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
        expected = self._rate(temperature_c) * dt_s / _SECONDS_PER_HOUR
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

    def _rate(self, temperature_c: float) -> float:
        """Arrivals per hour at ``temperature_c``, memoized."""
        rate_per_hour = self._rate_memo.get(temperature_c)
        if rate_per_hour is None:
            rate_per_hour = self._vendor.vrt_arrival_rate_per_hour(
                self._horizon_s, self._capacity_gbit, temperature_c
            )
            self._rate_memo[temperature_c] = rate_per_hour
        return rate_per_hour

    def advance_gaps(
        self, gaps: ScheduleGaps, temperature_c: float = REFERENCE_TEMPERATURE_C
    ) -> int:
        """Advance through a schedule's leading gaps that draw no arrival.

        ``gaps`` are the schedule's positive gaps from this process's time
        (:func:`schedule_gaps`).  Equivalent to ``for t in schedule:
        advance_to(t, temperature_c)`` up to, not including, the first
        step at which an episode arrives.  Returns how many gaps that
        passes: all of them when none draws an arrival -- by far the
        common case -- with the process at the schedule's end; otherwise
        the index ``i`` of the first gap that does, with the process at
        that gap's start (``gaps.ends[i - 1]``), its generator where the
        walk leaves it there: the caller steps :meth:`advance_to` to
        ``gaps.ends[i]``, which draws the arrival, then advances through
        the rest.  Processes on one clock share the gaps, so a fleet
        computes them once.

        Gap ``i`` would draw ``poisson(lambda_i)`` with ``lambda_i = rate
        * gap_i / 3600``.  For ``0 < lambda < 10`` numpy returns 0 exactly
        when the first double it draws is at most ``exp(-lambda)``, and
        then it has drawn that one double, through the generator's
        ``next_double``, which ``random`` fills through too.  So this
        draws one uniform per gap and passes them all when every
        ``lambda_i > 0`` and every uniform is below ``(1 - lambda_i) -
        2**-40``: since ``exp(-lambda) >= 1 - lambda``, such a uniform is
        at most ``exp(-lambda)``, and the Poisson draw would have returned
        all zeros and left the generator where ``random`` leaves it.
        Uniforms below the bound at the longest gap pass without their own
        bound (it falls as lambda grows); only the rest are checked one by
        one.  Any other draw restores the generator and takes the exact
        Poisson draw over the gaps; when a count is nonzero, it restores
        the generator again and redraws the counts before that gap, the
        same doubles.
        """
        seconds = gaps.seconds
        if not seconds.size:
            return 0
        rate = self._rate(temperature_c)
        bit_generator = self._rng.bit_generator
        state = bit_generator.state
        u = self._rng.random(seconds.size)
        passed = False
        if rate * gaps.shortest / _SECONDS_PER_HOUR > 0.0:
            bound = (1.0 - rate * gaps.longest / _SECONDS_PER_HOUR) - _ZERO_MARGIN
            passed = bool(u.max() < bound)
            if not passed:
                near = np.flatnonzero(u >= bound)
                expected = rate * seconds[near] / _SECONDS_PER_HOUR
                passed = bool(np.all(u[near] < (1.0 - expected) - _ZERO_MARGIN))
        if not passed:
            bit_generator.state = state
            expected = rate * seconds / _SECONDS_PER_HOUR
            arrivals = np.flatnonzero(self._rng.poisson(expected))
            if arrivals.size:
                first = int(arrivals[0])
                bit_generator.state = state
                self._rng.poisson(expected[:first])
                if first:
                    self._time_s = float(gaps.ends[first - 1])
                return first
        self._time_s = float(gaps.ends[-1])
        return seconds.size

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
