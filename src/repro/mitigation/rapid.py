"""RAPID-style retention-aware data placement (Venkatesan et al., HPCA 2006;
paper Section 3.1).

RAPID orders rows by the retention time of their weakest cell and allocates
data to the *strongest* rows first; the refresh interval is then set by the
weakest row actually holding data.  Lightly loaded systems get very long
refresh intervals; the interval degrades gracefully as memory fills.

Per-row retention estimates come from multi-interval profiling (e.g. the
:func:`~repro.mitigation.binning.update_raidr_bins` ladder, or repeated
reach profiles at a ladder of targets); unprofiled rows are conservatively
treated as requiring the JEDEC default.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List

from ..conditions import JEDEC_TREFW
from ..errors import CapacityError, ConfigurationError
from .base import row_key


class RAPID:
    """Retention-ordered row allocator with load-dependent refresh."""

    def __init__(
        self,
        total_rows: int,
        bits_per_row: int,
        default_retention_s: float = JEDEC_TREFW,
        guardband: float = 0.5,
    ) -> None:
        if total_rows <= 0 or bits_per_row <= 0:
            raise ConfigurationError("row geometry must be positive")
        if not (0.0 < guardband <= 1.0):
            raise ConfigurationError("guardband must lie in (0, 1]")
        self.total_rows = total_rows
        self.bits_per_row = bits_per_row
        self.default_retention_s = default_retention_s
        self.guardband = guardband
        self._retention: Dict[Hashable, float] = {}
        self._allocated: set = set()

    # ------------------------------------------------------------------
    # Learning per-row retention
    # ------------------------------------------------------------------
    def learn_row_retention(self, row: Hashable, retention_s: float) -> None:
        """Record (or tighten) the weakest-cell retention estimate of a row."""
        if retention_s <= 0.0:
            raise ConfigurationError("retention must be positive")
        current = self._retention.get(row)
        if current is None or retention_s < current:
            self._retention[row] = retention_s

    def learn_from_failing_cells(self, cells: Iterable[Hashable], tested_interval_s: float) -> int:
        """Rows containing cells that failed a tested exposure retain less
        than that exposure; returns the number of rows tightened."""
        tightened = 0
        for cell in cells:
            row = row_key(cell, self.bits_per_row)
            before = self._retention.get(row)
            self.learn_row_retention(row, tested_interval_s)
            if before != self._retention[row]:
                tightened += 1
        return tightened

    def learn_survivors(self, rows: Iterable[Hashable], survived_interval_s: float) -> None:
        """Rows that passed an exposure retain at least that long: raise
        their estimate (never above what failures established)."""
        for row in rows:
            current = self._retention.get(row)
            if current is None or survived_interval_s > current:
                # Only raise if no failure has bounded the row below this.
                if current is None:
                    self._retention[row] = survived_interval_s

    def row_retention(self, row: Hashable) -> float:
        """Best-known retention of a row (conservative default if unknown)."""
        return self._retention.get(row, self.default_retention_s)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, n_rows: int) -> List[Hashable]:
        """Place data in the strongest free rows; returns the chosen rows."""
        if n_rows <= 0:
            raise ConfigurationError("n_rows must be positive")
        free_profiled = [
            (retention, row)
            for row, retention in self._retention.items()
            if row not in self._allocated
        ]
        free_profiled.sort(key=lambda pair: -pair[0])
        chosen = [row for _, row in free_profiled[:n_rows]]
        remaining = n_rows - len(chosen)
        if remaining > 0:
            # Fall back to unprofiled rows (conservative retention).
            unprofiled_budget = self.total_rows - len(self._retention)
            used_unprofiled = sum(
                1 for row in self._allocated if row not in self._retention
            )
            if remaining > unprofiled_budget - used_unprofiled:
                raise CapacityError("not enough free rows to allocate")
            chosen.extend(("unprofiled", i) for i in range(used_unprofiled, used_unprofiled + remaining))
        self._allocated.update(chosen)
        return chosen

    def release(self, rows: Iterable[Hashable]) -> None:
        for row in rows:
            self._allocated.discard(row)

    @property
    def allocated_rows(self) -> int:
        return len(self._allocated)

    @property
    def utilization(self) -> float:
        return len(self._allocated) / self.total_rows

    # ------------------------------------------------------------------
    # Refresh policy
    # ------------------------------------------------------------------
    def required_refresh_interval_s(self) -> float:
        """Refresh interval dictated by the weakest allocated row.

        The guardband derates the weakest retention (RAPID refreshes well
        before the weakest allocated cell could fail).  With nothing
        allocated, refresh could be arbitrarily slow; the JEDEC default is
        returned as a floor for an empty machine's sanity.
        """
        if not self._allocated:
            return self.default_retention_s
        weakest = min(self.row_retention(row) for row in self._allocated)
        return max(weakest * self.guardband, self.default_retention_s)

    def refresh_savings_fraction(self, baseline_interval_s: float = JEDEC_TREFW) -> float:
        """Refresh-operation savings versus refreshing everything at baseline.

        Only allocated rows need refreshing at all under RAPID's
        quasi-non-volatile model.
        """
        baseline_ops = self.total_rows / baseline_interval_s
        if not self._allocated:
            return 1.0
        ops = len(self._allocated) / self.required_refresh_interval_s()
        return 1.0 - ops / baseline_ops
