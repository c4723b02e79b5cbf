"""Section 5 characterization experiments (Figures 2-8).

Each driver reproduces one figure's experiment on simulated chips and
returns a structured result; benchmarks render these as the paper's series
and assert the qualitative findings (Observations 1-4).  Default parameters
are sized for quick runs; the benchmark suite passes larger populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import rng as rng_mod
from ..conditions import Conditions
from ..core.bruteforce import BruteForceProfiler
from ..core.device import normalize_cells
from ..dram.chip import SimulatedDRAMChip
from ..dram.geometry import ChipGeometry
from ..dram.vendor import VENDORS, VENDOR_B, VendorModel
from ..errors import ConfigurationError
from ..patterns import CHECKERBOARD, STANDARD_PATTERNS, DataPattern
from .fitting import LognormalFit, PowerLawFit, fit_lognormal, fit_normal_cdf, fit_power_law

_SECONDS_PER_HOUR = 3600.0
_SECONDS_PER_DAY = 86400.0

#: Default simulated chip capacity for characterization runs.
DEFAULT_CHAR_GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0)


def _make_chip(
    vendor: VendorModel,
    geometry: ChipGeometry,
    seed: int,
    chip_id: int,
    max_trefi_s: float,
    max_temperature_c: float = 45.0,
    temperature_c: float = 45.0,
) -> SimulatedDRAMChip:
    return SimulatedDRAMChip(
        vendor=vendor,
        geometry=geometry,
        seed=seed,
        chip_id=chip_id,
        max_trefi_s=max_trefi_s,
        max_temperature_c=max_temperature_c,
        temperature_c=temperature_c,
    )


# ======================================================================
# Figure 2: aggregate retention failure rates vs refresh interval
# ======================================================================
@dataclass(frozen=True)
class Fig2Row:
    """BER split of one vendor at one refresh interval (Figure 2)."""

    vendor: str
    trefi_s: float
    ber_total: float
    ber_unique: float
    ber_repeat: float
    ber_nonrepeat: float

    @property
    def reobserved_fraction(self) -> float:
        """Of the cells seen at lower intervals, the share failing again here.

        This is Observation 1's quantity: cells that fail at a given
        interval are likely to fail again at a higher one, so this should be
        close to 1 (the non-repeat slice stays thin).
        """
        seen_before = self.ber_repeat + self.ber_nonrepeat
        if seen_before == 0.0:
            return 1.0
        return self.ber_repeat / seen_before


def fig2_retention_failure_rates(
    intervals_s: Sequence[float] = (0.064, 0.128, 0.256, 0.512, 1.024, 2.048),
    chips_per_vendor: int = 1,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    iterations: int = 1,
    seed: int = rng_mod.DEFAULT_SEED,
) -> List[Fig2Row]:
    """Sweep refresh intervals and split failures into unique/repeat/non-repeat.

    For each interval, failures are compared against the union of failures
    observed at all lower intervals, exactly as the paper's Figure 2 does.
    """
    if list(intervals_s) != sorted(intervals_s):
        raise ConfigurationError("intervals must be ascending")
    profiler = BruteForceProfiler(iterations=iterations)
    accum: Dict[Tuple[str, float], List[Tuple[float, float, float, float]]] = {}
    for vendor in VENDORS.values():
        for chip_index in range(chips_per_vendor):
            chip = _make_chip(
                vendor, geometry, seed, chip_index, max_trefi_s=max(intervals_s) * 1.05
            )
            lower_union: set = set()
            capacity = chip.capacity_bits
            for trefi in intervals_s:
                profile = profiler.run(chip, Conditions(trefi=trefi, temperature=45.0))
                failing = set(profile.failing)
                unique = failing - lower_union
                repeat = failing & lower_union
                nonrepeat = lower_union - failing
                accum.setdefault((vendor.name, trefi), []).append(
                    (
                        len(failing) / capacity,
                        len(unique) / capacity,
                        len(repeat) / capacity,
                        len(nonrepeat) / capacity,
                    )
                )
                lower_union |= failing
    rows: List[Fig2Row] = []
    for (vendor_name, trefi), samples in sorted(accum.items()):
        arr = np.asarray(samples)
        rows.append(
            Fig2Row(
                vendor=vendor_name,
                trefi_s=trefi,
                ber_total=float(arr[:, 0].mean()),
                ber_unique=float(arr[:, 1].mean()),
                ber_repeat=float(arr[:, 2].mean()),
                ber_nonrepeat=float(arr[:, 3].mean()),
            )
        )
    return rows


# ======================================================================
# Figure 3: failure discovery over continuous profiling (VRT)
# ======================================================================
@dataclass(frozen=True)
class Fig3IterationPoint:
    iteration: int
    time_days: float
    unique_new: int
    repeat: int
    cumulative: int


@dataclass(frozen=True)
class Fig3Result:
    points: Tuple[Fig3IterationPoint, ...]
    steady_state_rate_per_hour: float
    trefi_s: float
    capacity_bits: int

    def steady_state_onset_days(self, rate_tolerance: float = 2.0) -> float:
        """When discovery becomes purely accumulation-driven.

        The paper observes "it takes about 10 hours to find the base set of
        failures" before brute force enters steady state.  We estimate the
        onset as the earliest time from which every subsequent
        quarter-window's discovery rate stays within ``rate_tolerance`` of
        the final steady-state rate.
        """
        if len(self.points) < 8 or self.steady_state_rate_per_hour <= 0.0:
            return 0.0
        # Prepend the virtual origin (nothing discovered at t = 0) so the
        # initial base-set burst is part of the first window.
        times = [0.0] + [p.time_days for p in self.points]
        counts = [0] + [p.cumulative for p in self.points]
        quarter = max(len(times) // 8, 1)
        for start in range(0, len(times) - quarter, quarter):
            ok = True
            for begin in range(start, len(times) - quarter, quarter):
                end = begin + quarter
                hours = (times[end] - times[begin]) * 24.0
                if hours <= 0.0:
                    continue
                rate = (counts[end] - counts[begin]) / hours
                if rate > self.steady_state_rate_per_hour * rate_tolerance:
                    ok = False
                    break
            if ok:
                return times[start]
        return times[-1]


def fig3_discovery_timeline(
    trefi_s: float = 2.048,
    iterations: int = 800,
    span_days: float = 6.0,
    vendor: VendorModel = VENDOR_B,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    seed: int = rng_mod.DEFAULT_SEED,
    steady_state_fraction: float = 0.5,
) -> Fig3Result:
    """Brute-force profiling over days at one interval (Figure 3).

    Iterations are spread across ``span_days`` with idle gaps (as in the
    paper, where 800 iterations spanned six days of testing); the steady-
    state rate is estimated from the last ``steady_state_fraction`` of the
    run, where new discoveries are VRT-driven.
    """
    if iterations < 4:
        raise ConfigurationError("need at least 4 iterations")
    chip = _make_chip(vendor, geometry, seed, 0, max_trefi_s=trefi_s * 1.05)
    active_per_iteration = len(STANDARD_PATTERNS) * (trefi_s + 2.0 * chip.pattern_io_seconds)
    idle = max(span_days * _SECONDS_PER_DAY / iterations - active_per_iteration, 0.0)
    profiler = BruteForceProfiler(iterations=iterations, idle_between_iterations_s=idle)
    profile = profiler.run(chip, Conditions(trefi=trefi_s, temperature=45.0))

    points: List[Fig3IterationPoint] = []
    cumulative = 0
    by_iteration: Dict[int, List] = {}
    for record in profile.records:
        by_iteration.setdefault(record.iteration, []).append(record)
    for iteration in sorted(by_iteration):
        new = sum(r.new_count for r in by_iteration[iteration])
        observed = sum(r.observed_count for r in by_iteration[iteration])
        cumulative += new
        points.append(
            Fig3IterationPoint(
                iteration=iteration,
                time_days=by_iteration[iteration][-1].clock_time / _SECONDS_PER_DAY,
                unique_new=new,
                repeat=max(observed - new, 0),
                cumulative=cumulative,
            )
        )
    cutoff = int(len(points) * (1.0 - steady_state_fraction))
    tail = points[cutoff:]
    if len(tail) >= 2 and tail[-1].time_days > tail[0].time_days:
        new_in_tail = tail[-1].cumulative - tail[0].cumulative
        hours = (tail[-1].time_days - tail[0].time_days) * 24.0
        rate = new_in_tail / hours
    else:
        rate = 0.0
    return Fig3Result(
        points=tuple(points),
        steady_state_rate_per_hour=rate,
        trefi_s=trefi_s,
        capacity_bits=chip.capacity_bits,
    )


# ======================================================================
# Figure 4: steady-state accumulation rate vs refresh interval
# ======================================================================
@dataclass(frozen=True)
class Fig4Row:
    vendor: str
    trefi_s: float
    measured_rate_per_hour: float
    analytic_rate_per_hour: float


@dataclass(frozen=True)
class Fig4Result:
    rows: Tuple[Fig4Row, ...]
    fits: Dict[str, PowerLawFit]


def fig4_accumulation_rates(
    intervals_s: Sequence[float] = (1.024, 1.536, 2.048, 2.560),
    hours_per_interval: float = 24.0,
    chips_per_vendor: int = 1,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    base_iterations: int = 8,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Fig4Result:
    """Measure new-failure accumulation rates and fit ``A(t) = a * t^b``.

    At each interval the chip is first profiled thoroughly
    (``base_iterations`` rounds) to exhaust the static failing set --
    mirroring the paper's observation that ~10 hours of testing are needed
    before discovery becomes purely VRT-driven -- then probed hourly; newly
    failing cells per hour give the steady-state rate (Figure 4).
    """
    probe = BruteForceProfiler(iterations=1)
    base = BruteForceProfiler(iterations=base_iterations)
    rows: List[Fig4Row] = []
    by_vendor: Dict[str, List[Tuple[float, float]]] = {}
    for vendor in VENDORS.values():
        for trefi in intervals_s:
            measured_rates: List[float] = []
            for chip_index in range(chips_per_vendor):
                chip = _make_chip(
                    vendor,
                    geometry,
                    seed,
                    1000 + chip_index,
                    max_trefi_s=max(intervals_s) * 1.05,
                )
                conditions = Conditions(trefi=trefi, temperature=45.0)
                seen = set(base.run(chip, conditions).failing)
                new_count = 0
                probes = max(int(hours_per_interval), 1)
                for _ in range(probes):
                    chip.wait(_SECONDS_PER_HOUR)
                    found = set(probe.run(chip, conditions).failing)
                    new_count += len(found - seen)
                    seen |= found
                measured_rates.append(new_count / probes)
            measured = float(np.mean(measured_rates))
            analytic = vendor.vrt_arrival_rate_per_hour(
                trefi, geometry.capacity_gigabits, 45.0
            )
            rows.append(
                Fig4Row(
                    vendor=vendor.name,
                    trefi_s=trefi,
                    measured_rate_per_hour=measured,
                    analytic_rate_per_hour=analytic,
                )
            )
            if measured > 0.0:
                by_vendor.setdefault(vendor.name, []).append((trefi, measured))
    fits: Dict[str, PowerLawFit] = {}
    for vendor_name, pairs in by_vendor.items():
        if len(pairs) >= 2:
            xs, ys = zip(*pairs)
            fits[vendor_name] = fit_power_law(xs, ys)
    return Fig4Result(rows=tuple(rows), fits=fits)


# ======================================================================
# Figure 5: data pattern dependence of discovery
# ======================================================================
@dataclass(frozen=True)
class Fig5Result:
    pattern_keys: Tuple[str, ...]
    #: coverage_by_pattern[key][i] = fraction of all failures ever observed
    #: that pattern had personally detected by the end of iteration i.
    coverage_by_pattern: Dict[str, Tuple[float, ...]]
    total_failures: int
    iterations: int

    def final_coverage(self, key: str) -> float:
        series = self.coverage_by_pattern[key]
        return series[-1] if series else 0.0

    def best_pattern(self) -> str:
        return max(self.pattern_keys, key=self.final_coverage)


def fig5_dpd_coverage(
    trefi_s: float = 2.048,
    iterations: int = 128,
    vendor: VendorModel = VENDOR_B,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Fig5Result:
    """Track each data pattern's personal coverage over iterations.

    Unlike the profiler's global-new accounting, a failure is credited to
    *every* pattern that observes it, yielding the per-pattern coverage
    fractions of Figure 5.
    """
    chip = _make_chip(vendor, geometry, seed, 0, max_trefi_s=trefi_s * 1.05)
    per_pattern: Dict[str, set] = {p.key: set() for p in patterns}
    total: set = set()
    history: Dict[str, List[int]] = {p.key: [] for p in patterns}
    total_history: List[int] = []
    for _ in range(iterations):
        for pattern in patterns:
            chip.write_pattern(pattern)
            chip.disable_refresh()
            chip.wait(trefi_s)
            chip.enable_refresh()
            observed = normalize_cells(chip.read_errors())
            per_pattern[pattern.key] |= observed
            total |= observed
        for pattern in patterns:
            history[pattern.key].append(len(per_pattern[pattern.key]))
        total_history.append(len(total))
    grand_total = len(total)
    coverage = {
        key: tuple(count / grand_total if grand_total else 0.0 for count in series)
        for key, series in history.items()
    }
    return Fig5Result(
        pattern_keys=tuple(p.key for p in patterns),
        coverage_by_pattern=coverage,
        total_failures=grand_total,
        iterations=iterations,
    )


# ======================================================================
# Figure 6: per-cell failure CDFs and their sigma distribution
# ======================================================================
@dataclass(frozen=True)
class Fig6Result:
    mus_s: np.ndarray
    sigmas_s: np.ndarray
    sigma_fit: Optional[LognormalFit]
    fraction_sigma_below_200ms: float
    cells_fitted: int
    cells_excluded_vrt: int


def fig6_cell_failure_cdfs(
    intervals_s: Optional[Sequence[float]] = None,
    reads_per_interval: int = 16,
    vendor: VendorModel = VENDOR_B,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    temperature_c: float = 40.0,
    pattern: DataPattern = CHECKERBOARD,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Fig6Result:
    """Empirically fit each weak cell's normal failure CDF (Figure 6).

    Reads each interval ``reads_per_interval`` times (the paper uses 16) and
    probit-fits a per-cell (mu, sigma).  VRT-flagged cells are excluded, as
    in the paper's footnote 1.
    """
    if intervals_s is None:
        intervals_s = tuple(np.geomspace(0.064, 2.4, 18))
    chip = _make_chip(
        vendor,
        geometry,
        seed,
        0,
        max_trefi_s=max(intervals_s) * 1.05,
        max_temperature_c=max(temperature_c, 45.0),
        temperature_c=temperature_c,
    )
    population = chip.population
    index_of = {int(flat): i for i, flat in enumerate(population.indices)}
    counts = np.zeros((len(population), len(intervals_s)), dtype=np.int32)
    for col, trefi in enumerate(intervals_s):
        for _ in range(reads_per_interval):
            chip.write_pattern(pattern)
            chip.disable_refresh()
            chip.wait(trefi)
            chip.enable_refresh()
            for flat in chip.read_errors():
                row = index_of.get(int(flat))
                if row is not None:
                    counts[row, col] += 1
    fractions = counts / reads_per_interval
    mus: List[float] = []
    sigmas: List[float] = []
    excluded = 0
    for i in range(len(population)):
        if population.vrt_flag[i]:
            if fractions[i].max() > 0.0:
                excluded += 1
            continue
        if fractions[i].max() == 0.0:
            continue  # never failed in the tested range
        # Require several informative points so the probit slope (and hence
        # sigma) is well-determined; discard fits whose spread rivals the
        # mean, which signals a cell only glimpsed at the edge of the grid.
        fit = fit_normal_cdf(intervals_s, fractions[i], min_points=3)
        if fit is not None and 0.0 < fit.sigma < fit.mu / 3.0:
            mus.append(fit.mu)
            sigmas.append(fit.sigma)
    mus_arr = np.asarray(mus)
    sigmas_arr = np.asarray(sigmas)
    sigma_fit = fit_lognormal(sigmas_arr) if len(sigmas_arr) >= 2 else None
    below = float(np.mean(sigmas_arr < 0.2)) if len(sigmas_arr) else 0.0
    return Fig6Result(
        mus_s=mus_arr,
        sigmas_s=sigmas_arr,
        sigma_fit=sigma_fit,
        fraction_sigma_below_200ms=below,
        cells_fitted=len(mus_arr),
        cells_excluded_vrt=excluded,
    )


# ======================================================================
# Observation 4 support: the weak/strong classification band
# ======================================================================
@dataclass(frozen=True)
class ClassificationBand:
    """Cells split by failure probability at one operating point.

    The paper's contribution bullet: DRAM cells *cannot* be cleanly
    classified as "weak" or "strong" -- at any target interval a band of
    cells fails only probabilistically.  Reach profiling works because the
    same cells become reliable failures at the reach conditions.
    """

    conditions: Conditions
    reliable_weak: int    # P(fail) >= p_hi: found by any single test
    marginal: int         # p_lo < P(fail) < p_hi: found only sometimes
    reliable_strong: int  # P(fail) <= p_lo among the instantiated tail

    @property
    def marginal_fraction_of_failing(self) -> float:
        failing = self.reliable_weak + self.marginal
        if failing == 0:
            return 0.0
        return self.marginal / failing


def classification_band(
    chip: SimulatedDRAMChip,
    conditions: Conditions,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
) -> ClassificationBand:
    """Count reliably-weak / marginal / reliably-strong cells at a point."""
    if not (0.0 < p_lo < p_hi < 1.0):
        raise ConfigurationError("need 0 < p_lo < p_hi < 1")
    p = chip.population.worst_case_probabilities(conditions.trefi, conditions.temperature)
    weak = int((p >= p_hi).sum())
    marginal = int(((p > p_lo) & (p < p_hi)).sum())
    strong = int((p <= p_lo).sum())
    return ClassificationBand(
        conditions=conditions,
        reliable_weak=weak,
        marginal=marginal,
        reliable_strong=strong,
    )


def marginal_band_conversion(
    chip: SimulatedDRAMChip,
    target: Conditions,
    reach_delta_trefi_s: float = 0.250,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    converted_at: float = 0.5,
) -> float:
    """Fraction of the target's marginal cells made findable at reach.

    This is the mechanism behind Observation 4 / Corollary 4: marginal cells
    are exactly the ones brute force needs many iterations for; reach
    conditions lift their per-read failure probability to at least
    ``converted_at``, at which point a handful of profiling passes finds
    them with near certainty (P(miss) = (1 - p)^passes).
    """
    if not (0.0 < converted_at <= 1.0):
        raise ConfigurationError("converted_at must lie in (0, 1]")
    p_target = chip.population.worst_case_probabilities(target.trefi, target.temperature)
    marginal_mask = (p_target > p_lo) & (p_target < p_hi)
    if not marginal_mask.any():
        return 1.0
    p_reach = chip.population.worst_case_probabilities(
        target.trefi + reach_delta_trefi_s, target.temperature
    )
    return float((p_reach[marginal_mask] >= converted_at).mean())


# ======================================================================
# Figure 7: (mu, sigma) distributions across temperature
# ======================================================================
@dataclass(frozen=True)
class Fig7Row:
    temperature_c: float
    mu_median_s: float
    sigma_median_s: float
    mu_mean_s: float
    sigma_mean_s: float


def fig7_parameter_distributions(
    temperatures_c: Sequence[float] = (40.0, 45.0, 50.0, 55.0),
    vendor: VendorModel = VENDOR_B,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    max_mu_s: float = 2.6,
    seed: int = rng_mod.DEFAULT_SEED,
) -> List[Fig7Row]:
    """Population (mu, sigma) statistics at each temperature (Figure 7).

    Uses the chip's aggregated per-cell fit parameters (the simulator-side
    equivalent of the paper's normal-fit aggregation), restricted to cells
    whose mean falls inside the tested interval range.
    """
    chip = _make_chip(
        vendor,
        geometry,
        seed,
        0,
        max_trefi_s=max_mu_s,
        max_temperature_c=max(temperatures_c),
    )
    # Fix the analyzed cell set at the coolest temperature so the medians
    # track the same physical cells across the sweep (otherwise hotter
    # operation pulls new, stronger cells into the window and masks the
    # leftward shift the figure demonstrates).
    mu_cool, _ = chip.population.scaled_parameters(min(temperatures_c))
    mask = mu_cool <= max_mu_s
    rows: List[Fig7Row] = []
    for temp in temperatures_c:
        mu, sigma = chip.population.scaled_parameters(temp)
        rows.append(
            Fig7Row(
                temperature_c=temp,
                mu_median_s=float(np.median(mu[mask])),
                sigma_median_s=float(np.median(sigma[mask])),
                mu_mean_s=float(np.mean(mu[mask])),
                sigma_mean_s=float(np.mean(sigma[mask])),
            )
        )
    return rows


# ======================================================================
# Figure 8: combined failure probability over temperature and interval
# ======================================================================
@dataclass(frozen=True)
class Fig8Result:
    temperatures_c: Tuple[float, ...]
    intervals_s: Tuple[float, ...]
    #: mean_probability[i][j]: mean per-cell failure probability at
    #: temperature i, interval j, over the chip's weak-cell population.
    mean_probability: np.ndarray
    std_probability: np.ndarray

    def interval_for_probability(self, temperature_c: float, target: float) -> float:
        """Interpolated interval at which the combined mean reaches target."""
        i = self.temperatures_c.index(temperature_c)
        series = self.mean_probability[i]
        return float(np.interp(target, series, self.intervals_s))


def fig8_combined_distribution(
    temperatures_c: Sequence[float] = (40.0, 45.0, 50.0, 55.0),
    intervals_s: Optional[Sequence[float]] = None,
    vendor: VendorModel = VENDOR_B,
    geometry: ChipGeometry = DEFAULT_CHAR_GEOMETRY,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Fig8Result:
    """Combined per-cell failure probability surface (Figure 8)."""
    from scipy.special import ndtr

    if intervals_s is None:
        intervals_s = tuple(np.linspace(0.2, 2.4, 23))
    chip = _make_chip(
        vendor,
        geometry,
        seed,
        0,
        max_trefi_s=max(intervals_s) * 1.05,
        max_temperature_c=max(temperatures_c),
    )
    # Combine the failure CDFs of cells that fail somewhere in the tested
    # window at the reference temperature (the figure's "failing cells").
    mu_ref, _ = chip.population.scaled_parameters(45.0)
    window = (mu_ref >= min(intervals_s)) & (mu_ref <= max(intervals_s))
    mean = np.zeros((len(temperatures_c), len(intervals_s)))
    std = np.zeros_like(mean)
    for i, temp in enumerate(temperatures_c):
        mu, sigma = chip.population.scaled_parameters(temp)
        mu, sigma = mu[window], sigma[window]
        for j, trefi in enumerate(intervals_s):
            p = ndtr((trefi - mu) / sigma)
            mean[i, j] = float(p.mean())
            std[i, j] = float(p.std())
    return Fig8Result(
        temperatures_c=tuple(temperatures_c),
        intervals_s=tuple(intervals_s),
        mean_probability=mean,
        std_probability=std,
    )
