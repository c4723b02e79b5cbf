r"""Differential harness: every production route against the per-chip
reference walk, and the default campaign against committed goldens.

One contract underlies every way a campaign or a profile runs: the fused
condition-grid kernel (:meth:`repro.core.fleetprof.FleetProfiler.run_grid`,
at any unit size, serial or pooled, resumed or not, observability on or
off, and as :meth:`BruteForceProfiler.run`'s one-chip route) and the
per-chip walk on the production evaluator all reproduce the per-chip
reference walk bit for bit.  Two hypothesis properties check it against
the oracle:

* profile level -- a 3-chip fleet profiled twice, at two temperatures, by
  ``run_grid``, and the same chips racked standalone profiled by
  :meth:`~repro.core.bruteforce.BruteForceProfiler.run` (the kernel
  route), by :meth:`~repro.core.bruteforce.BruteForceProfiler.walk`, and by
  the walk on the reference evaluator, with or without an idle gap
  between iterations: identical failing sets, trace records, clocks, and
  read, VRT and DPD generator end states, and byte-identical
  ``RetentionProfile.to_json()`` from the three per-chip routes;
* campaign level -- :meth:`CharacterizationCampaign.run` on a drawn grid
  (repeated intervals and temperatures allowed), optionally cut back to
  its first k stored chips, as a kill would leave it, and resumed under
  another unit size or by the per-chip walk: every stored row equals
  ``measure_chip`` on the reference evaluator, a resume measures exactly
  the missing chips under their per-chip ids, and the summary is the one
  those reference rows give, counting each chip once.

The checks themselves live in ``conftest.py`` (:func:`profile_routes`
with :func:`assert_routes_agree`, :func:`assert_campaign_matches_reference`);
the modules that test one route pin named cases of them.

Two routes that drifted together would still agree with each other, so a
handful of fixed campaigns, one at the paper's 369-chip scale, also run
through the default ``CharacterizationCampaign.run`` and must reproduce
``tests/golden/campaign_summaries.json`` byte for byte.  That file was
written once, from the source tree of commit 2ab44d0 (before this module
existed), and never by a test run::

    src=$(mktemp -d) && git archive 2ab44d0 src | tar -x -C "$src" &&
    PYTHONPATH="$src/src:tests" python -c 'import json, numpy, scipy, test_differential as t; open(
        "tests/golden/campaign_summaries.json", "w").write(json.dumps(
        {"numpy": numpy.__version__, "scipy": scipy.__version__,
         "summaries": {n: t.golden_summary(n) for n in t.GOLDEN_CASES}},
        indent=1, sort_keys=True) + "\n")'

It records the numpy and scipy versions that wrote it: a new numpy may
change a distribution stream, which then reads as exactly that.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CharacterizationCampaign
from repro.dram.geometry import ChipGeometry
from repro.dram.vendor import VENDORS, vendor_by_name
from repro.patterns import CHECKERBOARD, RANDOM, SOLID_ZERO, STANDARD_PATTERNS
from repro.runner import ProcessPoolBackend

from conftest import (
    PER_CHIP,
    assert_campaign_matches_reference,
    assert_routes_agree,
    canonical,
    profile_routes,
)

MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)
INTERVALS = (0.256, 0.512, 1.024, 2.048)
TEMPERATURES = (45.0, 50.0, 55.0)
DETERMINISTIC = [p for p in STANDARD_PATTERNS if not p.stochastic]

#: The positive idle gap between iterations the profile property draws:
#: an hour, long enough for VRT episodes to arrive between iterations.
IDLE_S = 3600.0

#: Pinned here, not in a profile: the same examples on every host and run.
SETTINGS = dict(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Profile level: run_grid == routed run == walk == reference walk
# ----------------------------------------------------------------------
@st.composite
def pattern_orders(draw):
    """1-3 deterministic patterns plus the random family, in any order --
    random writes before, between and after the deterministic ones."""

    def distinct(patterns, max_size):
        return st.lists(
            st.sampled_from(patterns), min_size=1, max_size=max_size, unique_by=lambda p: p.key
        )

    chosen = draw(distinct(DETERMINISTIC, 3)) + draw(distinct([RANDOM, RANDOM.inverse], 2))
    return draw(st.permutations(chosen))


# Random writes before first-time deterministic ones, an inverse random
# write and repeated deterministic reads, in small and default blocks;
# idle gaps, with one condition split over blocks of two rows; and a
# fused-compare budget of a few rows, which splits every condition's read
# groups over several compare passes.
@example(seed=1234, vendors=["A", "B", "C"], temperatures=[45.0, 55.0],
         patterns=(RANDOM, CHECKERBOARD, RANDOM.inverse, SOLID_ZERO), iterations=3,
         intervals=[1.024, 2.048], block_rows=2, idle_s=0.0, fused_bytes=None)
@example(seed=77, vendors=["C", "A", "A"], temperatures=[55.0, 50.0],
         patterns=(RANDOM.inverse, SOLID_ZERO.inverse, RANDOM), iterations=2,
         intervals=[2.048, 0.512, 2.048], block_rows=None, idle_s=0.0, fused_bytes=None)
@example(seed=5, vendors=["B", "C", "A"], temperatures=[50.0, 45.0],
         patterns=(CHECKERBOARD, RANDOM, SOLID_ZERO.inverse), iterations=3,
         intervals=[0.512, 2.048], block_rows=2, idle_s=IDLE_S, fused_bytes=None)
@example(seed=31, vendors=["A", "C", "B"], temperatures=[45.0, 55.0],
         patterns=(SOLID_ZERO, RANDOM, CHECKERBOARD.inverse, RANDOM.inverse), iterations=3,
         intervals=[1.024, 2.048], block_rows=None, idle_s=0.0, fused_bytes=1)
@settings(max_examples=15, **SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    vendors=st.lists(st.sampled_from(sorted(VENDORS)), min_size=3, max_size=3),
    temperatures=st.lists(st.sampled_from(TEMPERATURES), min_size=2, max_size=2, unique=True),
    patterns=pattern_orders(),
    iterations=st.integers(min_value=1, max_value=3),
    intervals=st.lists(st.sampled_from(INTERVALS), min_size=1, max_size=4),
    block_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    idle_s=st.sampled_from((0.0, IDLE_S)),
    fused_bytes=st.sampled_from((None, 1, 2**15)),
)
def test_grid_kernel_and_both_evaluators_match(
    seed, vendors, temperatures, patterns, iterations, intervals, block_rows, idle_s,
    fused_bytes,
):
    members = [(chip_id, vendor_by_name(name)) for chip_id, name in enumerate(vendors)]
    assert_routes_agree(
        profile_routes(
            members, MICRO, seed, temperatures, intervals, patterns, iterations, block_rows,
            idle_s=idle_s, fused_bytes=fused_bytes,
        )
    )


# ----------------------------------------------------------------------
# Campaign level: every route's rows and summary == the reference rows'
# ----------------------------------------------------------------------
UNIT_SIZES = (None, 1, 2, 64)  # computed, one chip, a few, more than any campaign


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool every pooled example submits into, created and
    shared the way the campaign service shares its executor."""
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield ProcessPoolBackend(workers=2, executor=executor)


# Routes every run takes on top of the drawn ones: the pooled computed
# size resumed by the per-chip walk, one chip per unit resumed oversized,
# a trailing one-chip unit, an empty store, and pooled units of two
# resumed singly.
@example(seed=5, chips_per_vendor=2, iterations=1, intervals=[0.512, 0.512, 1.024],
         temperatures=[45.0, 55.0], chips_per_unit=None, pooled=True, observed=True,
         stop_after=2, resume_with=PER_CHIP)
@example(seed=6, chips_per_vendor=1, iterations=2, intervals=[0.256, 1.024],
         temperatures=[55.0, 45.0], chips_per_unit=1, pooled=False, observed=False,
         stop_after=1, resume_with=64)
@example(seed=7, chips_per_vendor=1, iterations=1, intervals=[1.024, 2.048],
         temperatures=[45.0, 50.0], chips_per_unit=2, pooled=False, observed=True,
         stop_after=2, resume_with=None)
@example(seed=8, chips_per_vendor=2, iterations=2, intervals=[2.048],
         temperatures=[45.0, 45.0], chips_per_unit=64, pooled=True, observed=False,
         stop_after=0, resume_with=2)
@example(seed=9, chips_per_vendor=2, iterations=1, intervals=[0.512, 2.048],
         temperatures=[50.0, 45.0, 55.0], chips_per_unit=2, pooled=True, observed=True,
         stop_after=3, resume_with=1)
@settings(max_examples=15, **SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    chips_per_vendor=st.integers(min_value=1, max_value=2),
    iterations=st.integers(min_value=1, max_value=2),
    intervals=st.lists(st.sampled_from(INTERVALS), min_size=1, max_size=3).map(sorted),
    temperatures=st.lists(st.sampled_from(TEMPERATURES), min_size=1, max_size=3),
    chips_per_unit=st.sampled_from(UNIT_SIZES),
    pooled=st.booleans(),
    observed=st.booleans(),
    stop_after=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    resume_with=st.sampled_from((PER_CHIP,) + UNIT_SIZES),
)
def test_campaign_rows_and_summary_equal_the_reference(
    pool, seed, chips_per_vendor, iterations, intervals, temperatures,
    chips_per_unit, pooled, observed, stop_after, resume_with,
):
    campaign = CharacterizationCampaign(
        chips_per_vendor=chips_per_vendor, geometry=MICRO, iterations=iterations, seed=seed
    )
    assert_campaign_matches_reference(
        campaign,
        intervals,
        temperatures,
        chips_per_unit=chips_per_unit,
        backend=pool if pooled else "serial",
        observed=observed,
        stop_after=stop_after,
        resume_with=resume_with,
    )


# ----------------------------------------------------------------------
# Golden summaries: fixed campaigns through the default run
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "golden" / "campaign_summaries.json"

#: name -> (chips per vendor, capacity in Gbit, iterations, seed, intervals
#: in s, temperatures in degC).  The first is the population behind
#: benchmarks/bench_campaign_368_chips.py; its summary pins the measured
#: Eq-1 coefficients.
GOLDEN_CASES = {
    "paper-369-chips": (123, 1 / 16, 1, 368, (0.512, 1.024, 2.048), (45.0, 55.0)),
    "three-temperatures": (2, 1 / 64, 2, 1234, INTERVALS, TEMPERATURES),
    "one-temperature": (1, 1 / 16, 3, 7, (1.024, 2.048), (55.0,)),
    "descending-temperatures": (2, 1 / 32, 1, 42, (0.512, 1.024), (55.0, 45.0)),
}


def golden_summary(name: str) -> dict:
    """The JSON summary the default run gives for golden case ``name``."""
    chips_per_vendor, capacity_gbit, iterations, seed, intervals_s, temperatures_c = (
        GOLDEN_CASES[name]
    )
    geometry = ChipGeometry.from_capacity_gigabits(capacity_gbit)
    campaign = CharacterizationCampaign(chips_per_vendor, geometry, iterations, seed)
    return campaign.run(intervals_s, temperatures_c).to_json_dict()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_default_campaign_reproduces_the_golden_summary(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert canonical(golden_summary(name)) == canonical(golden["summaries"][name]), (
        f"{name} differs from its golden summary, written with numpy "
        f"{golden['numpy']} and scipy {golden['scipy']}; this run has numpy "
        f"{np.__version__} and scipy {scipy.__version__}"
    )
