"""Deterministic simulated clock.

The paper's pipeline is full of wall-clock behaviour: Ruler evaluates rules
every interval, alerts must be "pending" for one minute before firing,
Alertmanager batches groups with ``group_wait``, OMNI retains two years of
data.  Reproducing any of that against a real clock would be untestable, so
every component takes a :class:`SimClock` and never calls ``time.time()``.

Timestamps are **nanoseconds since the Unix epoch** throughout the stack —
the same convention Loki uses on its push API.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

NANOS_PER_SECOND = 1_000_000_000
NANOS_PER_MINUTE = 60 * NANOS_PER_SECOND
NANOS_PER_HOUR = 60 * NANOS_PER_MINUTE
NANOS_PER_DAY = 24 * NANOS_PER_HOUR

#: 2022-03-03T01:47:57+00:00 — the leak-event timestamp from the paper's
#: Figure 2, used as the default simulation epoch so regenerated artifacts
#: carry the paper's own timestamps.
PAPER_EPOCH_NS = 1_646_272_077 * NANOS_PER_SECOND


def seconds(n: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(n * NANOS_PER_SECOND)


def minutes(n: float) -> int:
    """Convert minutes to integer nanoseconds."""
    return int(n * NANOS_PER_MINUTE)


def hours(n: float) -> int:
    """Convert hours to integer nanoseconds."""
    return int(n * NANOS_PER_HOUR)


def days(n: float) -> int:
    """Convert days to integer nanoseconds."""
    return int(n * NANOS_PER_DAY)


class Job(NamedTuple):
    """One periodic: ``run`` every ``interval_ns``, known by ``name``."""

    name: str
    interval_ns: int
    run: Callable[[], object]


@dataclass(order=True)
class _ScheduledEvent:
    when_ns: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def when_ns(self) -> int:
        return self._event.when_ns

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        self._event.cancelled = True


class SimClock:
    """Discrete-event simulated clock.

    The clock holds the current simulated time in nanoseconds and a heap of
    scheduled callbacks.  Advancing the clock runs every callback whose due
    time falls inside the advanced window, in timestamp order (FIFO among
    equal timestamps).  Components use :meth:`every` to model periodic work
    such as rule-evaluation loops and scrape intervals.
    """

    def __init__(self, start_ns: int = PAPER_EPOCH_NS) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now_ns = start_ns
        self._heap: list[_ScheduledEvent] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Reading time
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds since the epoch."""
        return self._now_ns

    @property
    def now_seconds(self) -> float:
        """Current simulated time in float seconds since the epoch."""
        return self._now_ns / NANOS_PER_SECOND

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when_ns: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run when the clock reaches ``when_ns``.

        Scheduling in the past raises ``ValueError`` — a simulated pipeline
        that back-schedules is always a bug.
        """
        if when_ns < self._now_ns:
            raise ValueError(
                f"cannot schedule at {when_ns} before current time {self._now_ns}"
            )
        event = _ScheduledEvent(when_ns, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return Timer(event)

    def call_later(self, delay_ns: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        return self.call_at(self._now_ns + delay_ns, callback)

    def every(self, interval_ns: int, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` every ``interval_ns``, starting one interval from now.

        Returns the :class:`Timer` for the *next* occurrence; cancelling it
        stops the whole periodic chain.  A run that raises is re-armed
        all the same; the exception propagates out of :meth:`advance`.
        """
        if interval_ns <= 0:
            raise ValueError("interval must be positive")

        timer_box: list[Timer] = []

        def tick() -> None:
            try:
                callback()
            finally:
                if not timer_box[0].cancelled:
                    inner = self.call_later(interval_ns, tick)
                    # Re-point the shared handle at the fresh event so a
                    # later cancel() stops the chain.
                    timer_box[0]._event = inner._event

        first = self.call_later(interval_ns, tick)
        timer_box.append(first)
        return first

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------
    def advance(self, delta_ns: int) -> None:
        """Advance simulated time by ``delta_ns``, running due callbacks."""
        if delta_ns < 0:
            raise ValueError("cannot advance backwards")
        self.advance_to(self._now_ns + delta_ns)

    def advance_to(self, target_ns: int) -> None:
        """Advance simulated time to ``target_ns``, running due callbacks.

        Callbacks observe ``now_ns`` equal to their scheduled time, and may
        schedule further work inside the window (it runs in the same pass).
        """
        if target_ns < self._now_ns:
            raise ValueError("cannot advance backwards")
        while self._heap and self._heap[0].when_ns <= target_ns:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now_ns = event.when_ns
            event.callback()
        self._now_ns = target_ns

    def pending(self) -> int:
        """Number of scheduled, non-cancelled callbacks."""
        return sum(1 for e in self._heap if not e.cancelled)
