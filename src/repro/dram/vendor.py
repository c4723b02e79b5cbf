"""Per-vendor DRAM retention behaviour models.

The paper characterizes 368 LPDDR4 chips from three anonymized vendors
(A, B, C) and reports the statistical structure of their retention
behaviour.  :class:`VendorModel` captures that structure; the three built-in
instances are calibrated directly against the paper's published anchors:

* **Eq 1** -- failure-rate temperature dependence
  ``R_A ~ e^{0.22 dT}``, ``R_B ~ e^{0.20 dT}``, ``R_C ~ e^{0.26 dT}``
  (roughly 10x failures per +10 degC).
* **Section 6.2.3** -- 2464 retention failures at 1024 ms / 45 degC on a
  2 GB (16 Gbit) device, i.e. a raw bit error rate of ~1.4e-7, and a VRT
  new-failure accumulation rate of A = 0.73 cells/hour at that point.
* **Figure 3** -- steady-state accumulation of ~1 cell / 20 s (180 cells/h)
  at 2048 ms / 45 degC; Figure 4 -- the accumulation rate follows a
  power law ``A(t) = a * t^b`` in the refresh interval.
* **Figure 6(b)** -- the per-cell failure-CDF standard deviations follow a
  lognormal distribution with the majority below 200 ms.
* **Section 6.1.2** -- a +250 ms reach keeps the false positive rate below
  50%, pinning the local slope of the BER curve near 1 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..conditions import REFERENCE_TEMPERATURE_C, Conditions
from ..errors import ConfigurationError

_SQRT2 = math.sqrt(2.0)

#: Anchor refresh interval (seconds) used to tie the failure-rate temperature
#: coefficient of Eq 1 to a retention-time scale factor.
_ANCHOR_TREFI_S = 1.024


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(frozen=True)
class VendorModel:
    """Statistical retention model of one vendor's chips.

    All parameters are expressed at the reference ambient temperature of
    45 degC; temperature scaling is derived from
    :attr:`failure_rate_temp_coeff`.

    Parameters
    ----------
    name:
        Vendor label ("A", "B" or "C").
    failure_rate_temp_coeff:
        ``k`` in ``R ~ e^{k dT}`` (Eq 1 of the paper).
    retention_ln_median / retention_ln_sigma:
        Lognormal parameters (natural log, seconds) of the *worst-case-
        pattern* retention-time distribution.  Only the weak tail below a few
        seconds is ever exercised.
    cell_sigma_ln_median_s / cell_sigma_ln_sigma:
        Lognormal parameters of the per-cell failure-CDF standard deviation
        (Figure 6b): median sigma in seconds and the ln-space spread.
    vrt_arrival_scale_per_gbit_hour / vrt_arrival_exponent:
        ``a`` and ``b`` of the VRT new-failure arrival intensity
        ``A(t) = a * capacity_Gbit * t^b`` in cells/hour with ``t`` the
        refresh interval in seconds (Figure 4).
    vrt_dwell_mean_s:
        Mean dwell time of a low-retention VRT episode.  Finite dwell times
        are what keep the per-iteration failing set approximately constant
        in size while the cumulative set keeps growing (Figure 3).
    vrt_cell_fraction:
        Fraction of statically weak cells flagged as VRT-prone (~2% per the
        paper's footnote 1); these are excluded from per-cell CDF analyses.
    dpd_susceptibility_max:
        Upper bound of the uniform per-cell DPD susceptibility ``s``:
        a cell's retention under data pattern alignment ``a`` is
        ``mu_wc * (1 - s*a) / (1 - s)`` where ``mu_wc`` is its worst-case
        retention time.
    random_alignment_cap:
        Upper cap on the alignments the random pattern can draw; < 1 so that
        random data alone never attains full coverage (Observation 3).
    """

    name: str
    failure_rate_temp_coeff: float
    retention_ln_median: float
    retention_ln_sigma: float
    cell_sigma_ln_median_s: float
    cell_sigma_ln_sigma: float
    vrt_arrival_scale_per_gbit_hour: float
    vrt_arrival_exponent: float
    vrt_dwell_mean_s: float = 10800.0
    vrt_cell_fraction: float = 0.02
    dpd_susceptibility_max: float = 0.30
    random_alignment_cap: float = 0.97
    #: Chip-to-chip process variation: std of the per-chip shift applied to
    #: ``retention_ln_median``.  Individual chips of one vendor differ in
    #: their tail mass (the spread visible across the paper's population
    #: plots); 0.10 in ln-space is ~±30% in failure counts.
    chip_to_chip_ln_sigma: float = 0.10

    def __post_init__(self) -> None:
        if self.chip_to_chip_ln_sigma < 0.0:
            raise ConfigurationError("chip_to_chip_ln_sigma must be non-negative")
        if self.retention_ln_sigma <= 0.0 or self.cell_sigma_ln_sigma <= 0.0:
            raise ConfigurationError("lognormal sigma parameters must be positive")
        if not (0.0 < self.random_alignment_cap < 1.0):
            raise ConfigurationError("random_alignment_cap must lie strictly in (0, 1)")
        if not (0.0 <= self.dpd_susceptibility_max < 1.0):
            raise ConfigurationError("dpd_susceptibility_max must lie in [0, 1)")
        if self.failure_rate_temp_coeff <= 0.0:
            raise ConfigurationError("failure_rate_temp_coeff must be positive")

    def with_retention_ln_median(self, value: float) -> "VendorModel":
        """This model with ``retention_ln_median`` set to ``value``: the
        model ``dataclasses.replace`` returns, built without re-running
        the input checks, none of which reads that field (a chip's process
        variation shifts it, once per chip)."""
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model.__dict__["retention_ln_median"] = value
        return model

    # ------------------------------------------------------------------
    # Temperature scaling
    # ------------------------------------------------------------------
    @property
    def retention_temp_coeff(self) -> float:
        """Per-degC scale coefficient of retention times.

        Raising the temperature by dT multiplies every retention time (and
        every per-cell sigma) by ``e^{-retention_temp_coeff * dT}``.  The
        value is derived so that the induced *failure-rate* scaling in the
        tail matches Eq 1's ``e^{failure_rate_temp_coeff * dT}`` near the
        anchor interval of ~1 s: for a lognormal tail the local hazard of
        the ln-space normal is |z|, so ``k_ret = k_rate * sigma_ln / |z|``.
        """
        z_anchor = (math.log(_ANCHOR_TREFI_S) - self.retention_ln_median) / self.retention_ln_sigma
        return self.failure_rate_temp_coeff * self.retention_ln_sigma / abs(z_anchor)

    def retention_scale(self, temperature_c: float) -> float:
        """Multiplier applied to retention times at the given ambient temperature."""
        return math.exp(-self.retention_temp_coeff * (temperature_c - REFERENCE_TEMPERATURE_C))

    def failure_rate_scale(self, delta_temperature_c: float) -> float:
        """Eq 1: relative failure-rate change for an ambient shift of dT."""
        return math.exp(self.failure_rate_temp_coeff * delta_temperature_c)

    # ------------------------------------------------------------------
    # Aggregate bit error rate
    # ------------------------------------------------------------------
    def ber(self, conditions: Conditions) -> float:
        """Analytic worst-case-pattern raw bit error rate at ``conditions``.

        This is the model underlying Figure 2's aggregate retention-failure
        curves: the probability that a cell's (temperature-scaled) worst-case
        retention time falls below the refresh interval.
        """
        scale = self.retention_scale(conditions.temperature)
        z = (math.log(conditions.trefi / scale) - self.retention_ln_median) / self.retention_ln_sigma
        return _phi(z)

    def expected_failures(self, conditions: Conditions, capacity_bits: int) -> float:
        """Expected number of worst-case-pattern failing cells in a chip."""
        return self.ber(conditions) * capacity_bits

    def weak_cell_probability(self, horizon_s: float, temperature_c: float) -> float:
        """Probability a cell's worst-case retention is below ``horizon_s``."""
        return self.ber(Conditions(trefi=horizon_s, temperature=temperature_c))

    # ------------------------------------------------------------------
    # VRT accumulation (Figure 4)
    # ------------------------------------------------------------------
    def vrt_arrival_rate_per_hour(
        self,
        trefi_s: float,
        capacity_gigabits: float,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
    ) -> float:
        """Steady-state new-failure accumulation rate ``A(t)`` in cells/hour.

        Follows the power law of Figure 4, scaled linearly with capacity and
        exponentially with temperature (Eq 1).
        """
        if trefi_s <= 0.0:
            raise ConfigurationError(f"refresh interval must be positive, got {trefi_s!r}")
        base = self.vrt_arrival_scale_per_gbit_hour * capacity_gigabits
        return base * trefi_s**self.vrt_arrival_exponent * self.failure_rate_scale(
            temperature_c - REFERENCE_TEMPERATURE_C
        )


# ----------------------------------------------------------------------
# Built-in vendors, calibrated against the paper's anchors (module docstring).
# Vendor B is the paper's "representative chip" vendor: its parameters
# reproduce BER(1024 ms, 45 degC) ~= 1.4e-7 (2464 cells / 2 GB),
# A(1024 ms) ~= 0.73 cells/h and A(2048 ms) ~= 180 cells/h on a 16 Gbit chip.
# ----------------------------------------------------------------------
VENDOR_A = VendorModel(
    name="A",
    failure_rate_temp_coeff=0.22,
    retention_ln_median=9.6,
    retention_ln_sigma=1.90,
    cell_sigma_ln_median_s=0.070,
    cell_sigma_ln_sigma=0.60,
    vrt_arrival_scale_per_gbit_hour=0.045,
    vrt_arrival_exponent=7.5,
)

VENDOR_B = VendorModel(
    name="B",
    failure_rate_temp_coeff=0.20,
    retention_ln_median=9.4,
    retention_ln_sigma=1.83,
    cell_sigma_ln_median_s=0.060,
    cell_sigma_ln_sigma=0.60,
    # Anchored so that A(1024 ms, 16 Gbit) = 0.73 cells/h (Section 6.2.3) and
    # A(2048 ms, 16 Gbit) = 180 cells/h = 1 cell / 20 s (Figure 3).
    vrt_arrival_scale_per_gbit_hour=0.0378,
    vrt_arrival_exponent=7.94,
)

VENDOR_C = VendorModel(
    name="C",
    failure_rate_temp_coeff=0.26,
    retention_ln_median=9.2,
    retention_ln_sigma=1.75,
    cell_sigma_ln_median_s=0.055,
    cell_sigma_ln_sigma=0.55,
    vrt_arrival_scale_per_gbit_hour=0.050,
    vrt_arrival_exponent=8.3,
)

VENDORS: Dict[str, VendorModel] = {v.name: v for v in (VENDOR_A, VENDOR_B, VENDOR_C)}


def vendor_by_name(name: str) -> VendorModel:
    """Look up a built-in vendor model by its label."""
    try:
        return VENDORS[name]
    except KeyError:
        raise ConfigurationError(f"unknown vendor {name!r}; known: {sorted(VENDORS)}") from None
