"""Analytic UBER/RBER model for k-bit ECC (Section 6.2.2 / Table 1).

The paper defines the uncorrectable bit error rate of a ``w``-bit ECC word
that corrects up to ``k`` errors, under independent random retention
failures with raw bit error rate ``R`` (Eq 6):

    UBER = (1/w) * sum_{n=k+1}^{w} C(w, n) R^n (1-R)^(w-n)

Inverting this monotone relationship yields the *tolerable RBER* for a
target UBER -- the maximum rate of cells allowed to escape profiling while
the system still meets its reliability target (Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigurationError

#: Consumer-grade reliability target (Section 6.2.2).
CONSUMER_UBER = 1e-15

#: Enterprise-grade reliability target (Section 6.2.2).
ENTERPRISE_UBER = 1e-17


@dataclass(frozen=True)
class EccStrength:
    """An ECC configuration: word size and correction capability.

    The paper's examples (Eq 4): no ECC uses 64-bit words; SECDED adds 8
    check bits per 64 data bits (w = 72, k = 1); "ECC-2" extends this by one
    more correctable error.
    """

    name: str
    word_bits: int
    correctable: int

    def __post_init__(self) -> None:
        if self.word_bits <= 0:
            raise ConfigurationError(f"word_bits must be positive, got {self.word_bits!r}")
        if not (0 <= self.correctable < self.word_bits):
            raise ConfigurationError(
                f"correctable must lie in [0, word_bits), got {self.correctable!r}"
            )


NO_ECC = EccStrength(name="No ECC", word_bits=64, correctable=0)
# Table 1's tolerable RBERs (3.8e-9 for SECDED, 6.9e-7 for ECC-2 at
# UBER = 1e-15) correspond to ECC words of ~144 bits -- SECDED over a
# 16-byte fetch (128 data + 16 check bits) -- rather than the 72-bit word
# of Eq 4.  We adopt the 144-bit words so Table 1 and the Section 6.2.3
# longevity example reproduce exactly.
SECDED = EccStrength(name="SECDED", word_bits=144, correctable=1)
ECC2 = EccStrength(name="ECC-2", word_bits=144, correctable=2)

ECC_STRENGTHS: Dict[str, EccStrength] = {e.name: e for e in (NO_ECC, SECDED, ECC2)}


def uncorrectable_word_probability(ecc: EccStrength, rber: float) -> float:
    """P[more than ``ecc.correctable`` failures in one ECC word] (Eq 3/5)."""
    if not (0.0 <= rber <= 1.0):
        raise ConfigurationError(f"RBER must lie in [0, 1], got {rber!r}")
    # Imported here, not at module load: scipy.stats costs about half a
    # second, and a campaign never calls into the ECC model.
    from scipy.stats import binom

    # Survival function of the binomial: P[N > k].
    return float(binom.sf(ecc.correctable, ecc.word_bits, rber))


def uber(ecc: EccStrength, rber: float) -> float:
    """Uncorrectable bit error rate as a function of the raw BER (Eq 6)."""
    return uncorrectable_word_probability(ecc, rber) / ecc.word_bits


def tolerable_rber(ecc: EccStrength, target_uber: float = CONSUMER_UBER) -> float:
    """Largest RBER whose UBER stays at or below ``target_uber`` (Table 1).

    Solved by bisection in log space; :func:`uber` is strictly increasing in
    the RBER so the root is unique.
    """
    if not (0.0 < target_uber < 1.0):
        raise ConfigurationError(f"target UBER must lie in (0, 1), got {target_uber!r}")

    def objective(log_r: float) -> float:
        return math.log(uber(ecc, math.exp(log_r))) - math.log(target_uber)

    lo, hi = math.log(1e-30), math.log(0.5)
    if objective(lo) > 0.0:
        raise ConfigurationError(
            f"target UBER {target_uber!r} is unreachable even at RBER 1e-30 for {ecc.name}"
        )
    if objective(hi) < 0.0:
        return 0.5
    from scipy.optimize import brentq

    return math.exp(brentq(objective, lo, hi, xtol=1e-12))


def tolerable_bit_errors(
    ecc: EccStrength,
    capacity_bytes: int,
    target_uber: float = CONSUMER_UBER,
) -> float:
    """Number of failing cells a DRAM of the given size can tolerate.

    This is the ``N`` of the profile-longevity model (Eq 7): the tolerable
    RBER times the number of bits (Table 1's lower half).
    """
    if capacity_bytes <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity_bytes!r}")
    return tolerable_rber(ecc, target_uber) * capacity_bytes * 8
