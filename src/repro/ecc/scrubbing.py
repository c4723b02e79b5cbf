"""AVATAR-style ECC-scrubbing profiler (Section 3.2 baseline).

ECC scrubbing detects retention failures *passively*: the system keeps
running with whatever data it happens to hold, and a scrubber periodically
walks memory checking ECC words, recording cells that failed.  The paper's
criticism -- which this implementation reproduces measurably -- is that a
passive approach never tests worst-case data patterns, so it cannot bound
what fraction of all possible failures it has found.

The scrubber here operates on the same command-level device interface as the
active profilers, but writes memory only once (the "resident" system data)
and then observes failures across scrub rounds at the target conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Tuple

from ..clock import ClockStopwatch
from ..conditions import Conditions
from ..errors import ConfigurationError
from ..patterns import RANDOM, DataPattern
from .model import SECDED, EccStrength


def word_of(cell: Hashable, data_bits: int = 64) -> Hashable:
    """Map a cell reference to its ECC-word reference.

    Integer cell ids (single chip) map to integer word ids; ``(chip, flat)``
    module refs map to ``(chip, word)``.
    """
    if isinstance(cell, tuple):
        chip, flat = cell
        return (chip, int(flat) // data_bits)
    return int(cell) // data_bits


@dataclass(frozen=True)
class ScrubRound:
    """Counters for one scrub pass."""

    index: int
    corrected_words: int
    uncorrectable_words: int
    new_cells: int


@dataclass(frozen=True)
class ScrubReport:
    """Everything an ECC-scrubbing campaign observed."""

    failing_cells: FrozenSet[Hashable]
    conditions: Conditions
    rounds: Tuple[ScrubRound, ...]
    runtime_seconds: float


class EccScrubber:
    """Passive retention-failure detection via periodic ECC scrubs."""

    def __init__(
        self,
        ecc: EccStrength = SECDED,
        resident_pattern: DataPattern = RANDOM,
        rounds: int = 16,
        data_bits_per_word: int = 64,
    ) -> None:
        if rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
        self.ecc = ecc
        self.resident_pattern = resident_pattern
        self.rounds = rounds
        self.data_bits_per_word = data_bits_per_word

    def run(self, device, conditions: Conditions) -> ScrubReport:
        """Observe ``rounds`` retention exposures of the resident data.

        Each round lets one target-interval exposure accumulate, then scrubs:
        words with at most ``ecc.correctable`` failing bits are corrected
        (and their cells recorded); words beyond the correction capability
        are counted as uncorrectable -- the events AVATAR-style schemes must
        avoid by reprofiling in time.
        """
        watch = ClockStopwatch(device.clock)
        # The resident data is written once -- the scrubber never gets to
        # choose adversarial patterns, which is the crux of its weakness.
        device.write_pattern(self.resident_pattern)
        seen: set = set()
        round_log: List[ScrubRound] = []
        for index in range(self.rounds):
            device.disable_refresh()
            device.wait(conditions.trefi)
            device.enable_refresh()
            cells = set(_normalize(device.read_errors()))
            words: dict = {}
            for cell in cells:
                key = word_of(cell, self.data_bits_per_word)
                words.setdefault(key, []).append(cell)
            corrected = sum(1 for members in words.values() if len(members) <= self.ecc.correctable)
            uncorrectable = len(words) - corrected
            new_cells = len(cells - seen)
            seen |= cells
            round_log.append(
                ScrubRound(
                    index=index,
                    corrected_words=corrected,
                    uncorrectable_words=uncorrectable,
                    new_cells=new_cells,
                )
            )
        return ScrubReport(
            failing_cells=frozenset(seen),
            conditions=conditions,
            rounds=tuple(round_log),
            runtime_seconds=watch.elapsed,
        )


def _normalize(errors) -> list:
    """Convert a device's error read-out into hashable cell references."""
    result = []
    for item in errors:
        if isinstance(item, tuple):
            result.append((int(item[0]), int(item[1])))
        else:
            result.append(int(item))
    return result
