"""Profile longevity: how long a retention profile stays valid (Section 6.2).

New failures keep accumulating after profiling (VRT, Observation 2), and
profiling itself misses a coverage-dependent number of cells.  An ECC of a
given strength tolerates ``N`` failing cells for a target UBER (Table 1);
once the missed-plus-accumulated failures approach ``N``, the system must
reprofile.  Eq 7:

    T = (N - C) / A

with ``N`` the tolerable failures, ``C`` the failures missed by profiling,
and ``A`` the steady-state accumulation rate.

The worked example of Section 6.2.3 -- 2 GB DRAM, SECDED, target 1024 ms at
45 degC, 99% coverage -> T ~= 2.3 days -- is reproduced by
:func:`longevity_for_system` and asserted in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..conditions import Conditions
from ..dram.geometry import GIBIBIT
from ..dram.vendor import VendorModel
from ..ecc.model import CONSUMER_UBER, EccStrength, tolerable_bit_errors
from ..errors import ConfigurationError

_SECONDS_PER_HOUR = 3600.0
_SECONDS_PER_DAY = 86400.0


def profile_longevity_seconds(
    tolerable_failures: float,
    missed_failures: float,
    accumulation_per_hour: float,
) -> float:
    """Eq 7: seconds until accumulated failures exhaust the ECC budget.

    Returns ``inf`` when nothing accumulates; returns 0 when profiling
    already missed more than the budget (reprofiling cannot help -- the
    system needs stronger ECC or a less aggressive target).
    """
    if tolerable_failures < 0.0 or missed_failures < 0.0:
        raise ConfigurationError("failure counts must be non-negative")
    if accumulation_per_hour < 0.0:
        raise ConfigurationError("accumulation rate must be non-negative")
    headroom = tolerable_failures - missed_failures
    if headroom <= 0.0:
        return 0.0
    if accumulation_per_hour == 0.0:
        return math.inf
    return headroom / accumulation_per_hour * _SECONDS_PER_HOUR


@dataclass(frozen=True)
class LongevityEstimate:
    """Inputs and output of one Eq-7 evaluation."""

    tolerable_failures: float
    expected_failures: float
    missed_failures: float
    accumulation_per_hour: float
    longevity_seconds: float

    @property
    def longevity_days(self) -> float:
        return self.longevity_seconds / _SECONDS_PER_DAY

    @property
    def feasible(self) -> bool:
        """Whether any positive operating window exists at all."""
        return self.longevity_seconds > 0.0


def longevity_for_system(
    vendor: VendorModel,
    capacity_bytes: int,
    ecc: EccStrength,
    target: Conditions,
    coverage: float = 0.99,
    target_uber: float = CONSUMER_UBER,
) -> LongevityEstimate:
    """End-to-end Eq-7 evaluation from system parameters.

    ``N`` comes from the ECC strength and UBER target (Table 1); the
    expected failure count and accumulation rate come from the vendor model
    at the target conditions; ``C`` is the (1 - coverage) share of expected
    failures missed by profiling.
    """
    if not (0.0 <= coverage <= 1.0):
        raise ConfigurationError(f"coverage must lie in [0, 1], got {coverage!r}")
    capacity_bits = capacity_bytes * 8
    tolerable = tolerable_bit_errors(ecc, capacity_bytes, target_uber)
    expected = vendor.expected_failures(target, capacity_bits)
    missed = (1.0 - coverage) * expected
    accumulation = vendor.vrt_arrival_rate_per_hour(
        target.trefi, capacity_bits / GIBIBIT, target.temperature
    )
    return LongevityEstimate(
        tolerable_failures=tolerable,
        expected_failures=expected,
        missed_failures=missed,
        accumulation_per_hour=accumulation,
        longevity_seconds=profile_longevity_seconds(tolerable, missed, accumulation),
    )


def minimum_required_coverage(
    vendor: VendorModel,
    capacity_bytes: int,
    ecc: EccStrength,
    target: Conditions,
    target_uber: float = CONSUMER_UBER,
) -> float:
    """Least coverage for which the missed failures alone fit in the budget.

    Section 6.2.2: applying the tolerable RBER to the RBER at the target
    refresh interval "directly compute[s] the minimum coverage required from
    a profiling mechanism".  A result above 1 is clamped -- it means the
    target is infeasible for this ECC even with perfect profiling.
    """
    expected = vendor.expected_failures(target, capacity_bytes * 8)
    if expected == 0.0:
        return 0.0
    tolerable = tolerable_bit_errors(ecc, capacity_bytes, target_uber)
    required = 1.0 - tolerable / expected
    return min(max(required, 0.0), 1.0)
