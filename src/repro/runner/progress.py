"""Live progress reporting for campaign runs.

The engine feeds every completed unit into a :class:`ProgressTracker`,
which maintains completed/failed/skipped counts and from them the run's
throughput and ETA.  Throughput is the units completed this run over the
seconds from :meth:`ProgressTracker.start` to the latest completion.  A
multi-chip unit stores all its chips in one burst, microseconds apart, so
any estimate built from the gaps between completions reads the burst as
the rate; the mean since start does not.

The tracker is clock-injected (any ``() -> float`` monotonic source) so
tests can drive it deterministically, and rendering is plain text so it
composes with whatever sink the caller wires up -- the CLI prints lines to
stderr, tests capture them in lists.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import ConfigurationError
from .units import UnitResult


class ProgressTracker:
    """Running statistics over a stream of completed work units.

    Parameters
    ----------
    total:
        Number of units in the *full plan*, including any satisfied from
        the result store on resume (recorded via :meth:`note_skipped`).
        Keeping the plan size stable across resumes is what lets a
        progress consumer (CLI line, service ``progress`` dict) show the
        same denominator on every relaunch; :attr:`remaining` subtracts
        both executed and skipped units, so the ETA covers only work that
        will actually run.
    clock:
        Monotonic time source, seconds.
    """

    def __init__(
        self,
        total: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0:
            raise ConfigurationError("total must be non-negative")
        self.total = int(total)
        self._clock = clock
        self.completed = 0
        self.failed = 0
        self.skipped = 0
        self._started_at: Optional[float] = None
        self._last_at: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the beginning of live execution (idempotent)."""
        if self._started_at is None:
            self._started_at = self._clock()

    def note_skipped(self, count: int = 1) -> None:
        """Record units satisfied from the result store instead of executed."""
        self.skipped += int(count)

    def update(self, result: UnitResult) -> None:
        """Fold one completed unit into the statistics."""
        self.start()
        self._last_at = self._clock()
        self.completed += 1
        if not result.ok:
            self.failed += 1

    # ------------------------------------------------------------------
    @property
    def succeeded(self) -> int:
        """Units that completed with an ``ok`` result."""
        return self.completed - self.failed

    @property
    def remaining(self) -> int:
        """Units still to execute: the plan minus observed completions
        *and* resume-skipped units.

        Skipped units were satisfied from the result store -- no worker
        will ever run them -- so counting them as pending would inflate
        both ``remaining`` and the ETA on every resumed run.
        """
        return max(0, self.total - self.completed - self.skipped)

    @property
    def throughput_units_per_s(self) -> Optional[float]:
        """Units completed per second from :meth:`start` to the latest
        completion; ``None`` before the first completion."""
        if self._started_at is None or self._last_at is None:
            return None
        elapsed = self._last_at - self._started_at
        return self.completed / elapsed if elapsed > 0.0 else None

    @property
    def eta_seconds(self) -> Optional[float]:
        rate = self.throughput_units_per_s
        if rate is None or rate <= 0.0:
            return None
        return self.remaining / rate

    @property
    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return max(0.0, self._clock() - self._started_at)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One status line: counts, failures, throughput, ETA.

        The bracketed fraction counts units that need no further work --
        successes plus resume-skipped units, over the full plan -- so a
        resumed run picks up at the fraction it left off at.  A run with
        50 failures must not render as fully completed; failures are
        reported as their own distinct part.
        """
        parts = [f"[{self.succeeded + self.skipped}/{self.total}]"]
        if self.skipped:
            parts.append(f"{self.skipped} resumed")
        if self.failed:
            parts.append(f"{self.failed} failed")
        rate = self.throughput_units_per_s
        if rate is not None:
            parts.append(f"{rate:.2f} units/s")
        # Imported lazily: repro.analysis sits above repro.runner in the
        # layering (analysis.campaign drives the engine), so the runner must
        # not import analysis at module load time.
        from ..analysis.report import format_duration

        parts.append(f"ETA {format_duration(self.eta_seconds)}")
        return " | ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ProgressTracker({self.render()})"
