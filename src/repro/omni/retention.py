"""Retention: the two-year hot window with archive + restore.

Paper §III.C: "up to two years of operational data is immediately
available and more can be restored."  The sweep moves log chunks whose
newest entry is past the hot window out of Loki into the archive; restore
pushes archived entries back into a (separate or the same) store for
historical analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import RetentionError, ValidationError
from repro.common.simclock import SimClock, days
from repro.loki.store import LokiStore
from repro.omni.archive import ArchiveStore

#: "at least two years of data immediately [available]" (paper §I).
TWO_YEARS_NS = days(2 * 365)


@dataclass(frozen=True)
class RetentionPolicy:
    """Hot-window size; data older than this is archived."""

    hot_window_ns: int = TWO_YEARS_NS

    def __post_init__(self) -> None:
        if self.hot_window_ns <= 0:
            raise ValidationError("hot window must be positive")


class RetentionManager:
    """Sweeps aged data from the hot store into the archive — any log
    backend, through the one store contract (DESIGN §3)."""

    def __init__(
        self,
        clock: SimClock,
        store: LokiStore,
        archive: ArchiveStore,
        policy: RetentionPolicy | None = None,
    ) -> None:
        self._clock = clock
        self._store = store
        self._archive = archive
        self.policy = policy or RetentionPolicy()
        self.sweeps = 0

    def cutoff_ns(self) -> int:
        return self._clock.now_ns - self.policy.hot_window_ns

    def sweep(self) -> int:
        """Archive-and-delete everything older than the hot window.

        Returns the number of entries moved to the archive.  Only sealed
        chunks fully before the cutoff move (chunk-granularity retention,
        matching :meth:`LokiStore.delete_before`).
        """
        cutoff = self.cutoff_ns()
        moved = 0
        # Read what delete_before would drop, then archive it.  A
        # replicated store merges its replicas here, so the archive holds
        # every acknowledged entry once regardless of replication factor.
        for labels, doomed in self._store.expired_entries(cutoff):
            self._archive.archive_logs(labels, doomed)
            moved += len(doomed)
        self._store.delete_before(cutoff)
        self.sweeps += 1
        return moved

    def restore(self, start_ns: int, end_ns: int, into: LokiStore) -> int:
        """Restore archived entries overlapping the range into ``into``.

        The restore target is typically a fresh store (historical analysis
        sandbox); restoring into the hot store would violate its
        in-order-append invariant.
        """
        if end_ns <= start_ns:
            raise RetentionError("empty restore range")
        restored = 0
        for labels, entries in self._archive.restore_between(start_ns, end_ns):
            restored += into.push_stream(labels, entries)
        return restored

    def run_periodic(self, interval_ns: int) -> None:
        self._clock.every(interval_ns, lambda: self.sweep())
