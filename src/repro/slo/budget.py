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
        # (ts_ns, good, total, bad_sum, total_sum) cumulative snapshots,
        # oldest first.  The sums run over every consumption counted so
        # far, so the window's is the last snapshot's less the first's:
        # a read touches the two ends, however long the window.  One
        # snapshot older than the window is retained as the baseline the
        # in-window consumption is measured against.
        self._snapshots: deque[tuple[int, float, float, float, float]] = deque()

    def observe(self, ts_ns: int, snapshot: SliSnapshot) -> None:
        """Record a cumulative snapshot taken at ``ts_ns``.

        Counter resets (a snapshot below its predecessor) consume zero
        rather than a negative amount.
        """
        good, total = snapshot.good, snapshot.total
        if not self._snapshots:
            self._snapshots.append((ts_ns, good, total, 0.0, 0.0))
            return
        last_ts, last_good, last_total, bad_sum, total_sum = self._snapshots[-1]
        if ts_ns < last_ts:
            raise ValidationError("budget snapshots must arrive in order")
        d_total = total - last_total
        d_good = good - last_good
        if d_total >= 0 and d_good >= 0:
            total_sum += d_total
            bad_sum += max(d_total - d_good, 0.0)
        self._snapshots.append((ts_ns, good, total, bad_sum, total_sum))
        horizon = ts_ns - self.slo.window_ns
        while len(self._snapshots) >= 2 and self._snapshots[1][0] <= horizon:
            self._snapshots.popleft()

    def window_totals(self) -> tuple[float, float]:
        """(bad, total) events consumed within the current window."""
        if len(self._snapshots) < 2:
            return (0.0, 0.0)
        first, last = self._snapshots[0], self._snapshots[-1]
        return (last[3] - first[3], last[4] - first[4])

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
