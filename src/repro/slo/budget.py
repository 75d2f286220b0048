"""Error-budget accounting over the SLO window.

The budget is the bad-event allowance the objective grants over the
SLO window: ``(1 - objective) * total_events_in_window``.  The tracker
keeps cumulative SLI snapshots, prunes them past the window, and
reports the remaining fraction — 1.0 with an untouched budget, 0.0 at
exhaustion, negative once overspent (the dashboard shows how deep).
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ValidationError
from repro.slo.model import SLO
from repro.slo.sources import SliSnapshot


class ErrorBudget:
    """Rolling-window budget state for one SLO."""

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        # (ts_ns, good, total) cumulative snapshots, oldest first.  One
        # snapshot older than the window is retained as the baseline the
        # in-window consumption is measured against.
        self._snapshots: deque[tuple[int, float, float]] = deque()

    def observe(self, ts_ns: int, snapshot: SliSnapshot) -> None:
        """Record a cumulative snapshot taken at ``ts_ns``."""
        if self._snapshots and ts_ns < self._snapshots[-1][0]:
            raise ValidationError("budget snapshots must arrive in order")
        self._snapshots.append((ts_ns, snapshot.good, snapshot.total))
        horizon = ts_ns - self.slo.window_ns
        while len(self._snapshots) >= 2 and self._snapshots[1][0] <= horizon:
            self._snapshots.popleft()

    def window_totals(self) -> tuple[float, float]:
        """(bad, total) events consumed within the current window.

        Counter resets (a snapshot below its predecessor) contribute
        zero rather than negative consumption.
        """
        if len(self._snapshots) < 2:
            return (0.0, 0.0)
        bad = 0.0
        total = 0.0
        prev = self._snapshots[0]
        for snap in list(self._snapshots)[1:]:
            d_total = snap[2] - prev[2]
            d_good = snap[1] - prev[1]
            if d_total >= 0 and d_good >= 0:
                total += d_total
                bad += max(d_total - d_good, 0.0)
            prev = snap
        return (bad, total)

    def remaining_ratio(self) -> float:
        """Budget left as a fraction of the window's allowance.

        With no traffic in the window there is nothing to have failed,
        so the budget reads untouched (1.0).
        """
        bad, total = self.window_totals()
        allowance = self.slo.budget_rate * total
        if allowance <= 0.0:
            return 1.0
        return 1.0 - bad / allowance

    @property
    def exhausted(self) -> bool:
        return self.remaining_ratio() <= 0.0 and len(self._snapshots) >= 2
