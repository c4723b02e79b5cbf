"""Unit tests for the episodic VRT process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.dram.vrt import VRTProcess, schedule_gaps
from repro.dram.vendor import VENDOR_B
from repro.errors import ConfigurationError

GBIT = 1 << 30


def make_process(horizon=2.2, seed=5, capacity=16 * GBIT):
    return VRTProcess(
        vendor=VENDOR_B,
        capacity_bits=capacity,
        horizon_s=horizon,
        rng=rng_mod.derive(seed, "vrt-test"),
    )


class TestArrivals:
    def test_no_time_no_episodes(self):
        process = make_process()
        assert process.episode_count == 0

    def test_arrival_rate_matches_vendor_model(self):
        """Over 10 hours, arrivals should match A(horizon) closely."""
        process = make_process()
        hours = 10.0
        process.advance_to(hours * 3600.0)
        expected = VENDOR_B.vrt_arrival_rate_per_hour(2.2, 16.0, 45.0) * hours
        assert process.episode_count == pytest.approx(expected, rel=0.15)

    def test_advance_is_incremental(self):
        process = make_process()
        process.advance_to(3600.0)
        count1 = process.episode_count
        process.advance_to(7200.0)
        assert process.episode_count >= count1

    def test_backwards_advance_rejected(self):
        process = make_process()
        process.advance_to(100.0)
        with pytest.raises(ConfigurationError):
            process.advance_to(50.0)

    def test_temperature_raises_arrival_rate(self):
        cool = make_process(seed=9)
        hot = make_process(seed=9)
        cool.advance_to(20 * 3600.0, temperature_c=45.0)
        hot.advance_to(20 * 3600.0, temperature_c=55.0)
        assert hot.episode_count > 2 * cool.episode_count


class TestFailingCells:
    def test_power_law_exposure_scaling(self):
        """Episodes failing a t-exposure scale as t^b (Figure 4's law)."""
        process = make_process()
        process.advance_to(40 * 3600.0)
        now = process.time_s
        n_full = len(process.episodes_overlapping(0.0, now, 2.2))
        n_half = len(process.episodes_overlapping(0.0, now, 1.1))
        expected_ratio = 0.5**VENDOR_B.vrt_arrival_exponent
        assert n_half / n_full == pytest.approx(expected_ratio, rel=0.5)

    def test_active_set_is_subset_of_overlapping(self):
        process = make_process()
        process.advance_to(20 * 3600.0)
        now = process.time_s
        active = set(process.failing_cells(now, 2.0).tolist())
        window = set(process.episodes_overlapping(0.0, now, 2.0).tolist())
        assert active <= window

    def test_episodes_expire(self):
        """After many dwell times of quiet, old episodes leave the active set."""
        process = make_process()
        process.advance_to(10 * 3600.0)
        mid = process.time_s
        active_mid = len(process.failing_cells(mid, 2.0))
        # Jump far ahead: everything from the early window should have expired
        # while the active population stays near steady state.
        process.advance_to(mid + 40 * VENDOR_B.vrt_dwell_mean_s)
        early_window = set(process.episodes_overlapping(0.0, mid, 2.0).tolist())
        active_now = set(process.failing_cells(process.time_s, 2.0).tolist())
        assert len(active_now & early_window) < max(1, len(early_window) // 4)
        assert active_mid >= 0  # smoke

    def test_exposure_beyond_horizon_rejected(self):
        process = make_process(horizon=2.0)
        process.advance_to(3600.0)
        with pytest.raises(ConfigurationError):
            process.failing_cells(3600.0, 2.5)

    def test_window_order_enforced(self):
        process = make_process()
        with pytest.raises(ConfigurationError):
            process.episodes_overlapping(10.0, 5.0, 1.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            make_process(horizon=0.0)

    def test_steady_state_active_population(self):
        """Active episodes ~ A * dwell once past a few dwell times."""
        process = make_process(horizon=2.2)
        t = 10 * VENDOR_B.vrt_dwell_mean_s
        process.advance_to(t)
        rate = VENDOR_B.vrt_arrival_rate_per_hour(2.2, 16.0, 45.0)
        expected = rate * VENDOR_B.vrt_dwell_mean_s / 3600.0
        active = len(process.failing_cells(t, 2.2))
        assert active == pytest.approx(expected, rel=0.35)

    def test_deterministic_given_seed(self):
        a = make_process(seed=21)
        b = make_process(seed=21)
        a.advance_to(3600.0)
        b.advance_to(3600.0)
        assert np.array_equal(a.failing_cells(3600.0, 2.0), b.failing_cells(3600.0, 2.0))


def _episodes(process):
    episodes = process._all_episodes()
    return [
        getattr(episodes, name).tolist()
        for name in ("cell_index", "mu_low_s", "start_s", "end_s")
    ]


class TestPoissonCanary:
    """numpy's small-lambda Poisson draw, which ``advance_gaps`` stands in
    for with one uniform per gap: a numpy whose algorithm changes fails
    here, before any golden does."""

    @pytest.mark.parametrize("trial", range(300))
    def test_zero_counts_consume_one_uniform_each(self, trial):
        shape = np.random.default_rng([7, trial])
        # Odd trials keep lambda small (mostly all-zero draws), even ones
        # reach up to almost 10 (mostly arrivals).
        top = -1.5 if trial % 2 else 0.99
        lam = 10.0 ** shape.uniform(-7.0, top, size=int(shape.integers(1, 40)))
        drawn = np.random.default_rng([11, trial])
        uniforms = np.random.default_rng([11, trial])
        counts = drawn.poisson(lam)
        u = uniforms.random(len(lam))
        zero_bound = [math.exp(-x) for x in lam]
        nonzero = np.flatnonzero(counts)
        first = int(nonzero[0]) if nonzero.size else len(lam)
        # Each element before the first arrival drew one double, <= exp(-lam).
        assert all(u[i] <= zero_bound[i] for i in range(first))
        if nonzero.size:
            assert u[first] > zero_bound[first]
        else:
            assert drawn.bit_generator.state == uniforms.bit_generator.state


GAP_RATE = VENDOR_B.vrt_arrival_rate_per_hour(2.2, 16.0, 45.0)


def _schedule(start, gaps):
    return start + np.cumsum(np.asarray(gaps, dtype=np.float64))


def _walk(process, times):
    for t in times:
        process.advance_to(float(t))


class TestAdvanceGaps:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        expected=st.lists(
            st.floats(1e-9, 2.0, allow_nan=False) | st.just(0.0), min_size=1, max_size=40
        ),
        start=st.floats(0.0, 1e4, allow_nan=False),
        earlier=st.integers(0, 3),
    )
    def test_matches_stepping_advance_to(self, seed, expected, start, earlier):
        """Same time, generator state and episodes as the per-step walk
        at the first arrival and at the end, for arrival means from far
        below the margin to ones that draw arrivals (and zero-length
        gaps, which draw nothing)."""
        gaps = [x * 3600.0 / GAP_RATE for x in expected]
        batched = make_process(seed=seed)
        stepped = make_process(seed=seed)
        for process in (batched, stepped):
            # Some processes enter holding episodes already.
            process.advance_to(start + 0.0)
            if earlier:
                process.advance_to(start + earlier * 3600.0)
        times = _schedule(batched.time_s, gaps)
        done = 0
        while True:
            schedule = schedule_gaps(times[done:], batched.time_s)
            passed = batched.advance_gaps(schedule)
            stop = len(times) if passed == len(schedule.seconds) else done + int(schedule.index[passed])
            # The walk up to (not including) the arrival's sync ends alike.
            _walk(stepped, times[done:stop])
            assert batched.time_s == stepped.time_s
            assert batched._rng.bit_generator.state == stepped._rng.bit_generator.state
            assert _episodes(batched) == _episodes(stepped)
            if stop == len(times):
                break
            count = stepped.episode_count
            for process in (batched, stepped):
                process.advance_to(float(times[stop]))
            assert stepped.episode_count > count
            done = stop + 1
        assert batched.time_s == float(times[-1])

    def _seed_with_first_uniform(self, low, high):
        for seed in range(100_000):
            u = rng_mod.derive(seed, "vrt-test").random()
            if low <= u < high:
                return seed
        raise AssertionError("no seed found")

    def test_uniform_inside_the_margin_falls_back_to_poisson(self):
        """A uniform at or above ``(1 - lambda) - 2**-40`` but at most
        ``exp(-lambda)``: no arrival, decided by the exact Poisson draw."""
        lam = 0.5
        seed = self._seed_with_first_uniform((1.0 - lam) - 2.0**-40, math.exp(-lam))
        times = _schedule(0.0, [lam * 3600.0 / GAP_RATE])
        batched, stepped = make_process(seed=seed), make_process(seed=seed)
        assert batched.advance_gaps(schedule_gaps(times, 0.0)) == 1
        _walk(stepped, times)
        assert stepped.episode_count == 0
        assert batched._rng.bit_generator.state == stepped._rng.bit_generator.state
        assert batched.time_s == stepped.time_s

    def test_uniform_above_exp_minus_lambda_stops_before_the_arrival(self):
        lam = 0.5
        seed = self._seed_with_first_uniform(math.exp(-lam) + 1e-9, 1.0)
        times = _schedule(0.0, [lam * 3600.0 / GAP_RATE] * 3)
        process = make_process(seed=seed)
        before = process._rng.bit_generator.state
        assert process.advance_gaps(schedule_gaps(times, 0.0)) == 0
        assert process._rng.bit_generator.state == before
        assert process.time_s == 0.0

    def test_empty_schedule_gaps_only_move_time(self):
        process = make_process()
        before = process._rng.bit_generator.state
        for times in (np.array([0.0, 0.0]), np.empty(0)):
            assert process.advance_gaps(schedule_gaps(times, 0.0)) == 0
        assert process._rng.bit_generator.state == before
        assert process.time_s == 0.0

    def test_gaps_are_read_only(self):
        gaps = schedule_gaps(np.array([1.0, 1.0, 2.0, 4.0]), 0.5)
        assert gaps.seconds.tolist() == [0.5, 1.0, 2.0]
        assert gaps.ends.tolist() == [1.0, 2.0, 4.0]
        assert gaps.index.tolist() == [0, 2, 3]
        assert (gaps.shortest, gaps.longest) == (0.5, 2.0)
        for array in (gaps.seconds, gaps.ends, gaps.index):
            with pytest.raises(ValueError):
                array[0] = 1
