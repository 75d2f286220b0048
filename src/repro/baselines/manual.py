"""Manual-monitoring detection model (the paper's counterfactual).

§IV.A: "Without this implementation, there would not be an automatic way
of being alerted to leaks ... A person would be spending their time
physically looking through the HPE tools and this would be their job for
the whole day. Because these tools looks like lines without any color
differentiation, a person would have to read it line by line."

The model: a staff member scans the event feed every ``scan_interval``;
during a scan they read line-by-line at :data:`LINES_PER_SECOND` through the
backlog since the previous scan, and notice the fault line only when they
reach it (with a miss probability per pass — interspersed events are easy
to skip).  Detection time = when their reading position crosses the fault
event in a scan where they don't miss it.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.simclock import NANOS_PER_SECOND, minutes

#: How fast a person reads the event feed, lines per second.
LINES_PER_SECOND = 10.0
#: Chance a pass over the backlog skips past the fault line.
MISS_PROBABILITY = 0.2


class ManualMonitoringModel:
    """Computes time-to-detection for a fault event in a log backlog."""

    def __init__(
        self,
        scan_interval_ns: int = minutes(30),
        seed: int = 0,
    ) -> None:
        if scan_interval_ns <= 0:
            raise ValidationError("scan interval must be positive")
        self.scan_interval_ns = scan_interval_ns
        self._rng = np.random.default_rng(seed)

    def detection_time_ns(
        self,
        fault_ns: int,
        background_rate_per_s: float,
        first_scan_offset_ns: int | None = None,
    ) -> int:
        """When a human notices an event that occurred at ``fault_ns``.

        ``background_rate_per_s`` is the rate of other log lines the fault
        line is interspersed with; the reader must wade through the
        backlog accumulated since their last scan.
        """
        if background_rate_per_s < 0:
            raise ValidationError("background rate must be non-negative")
        if first_scan_offset_ns is None:
            # Scans are unsynchronised with the fault: uniform phase.
            first_scan_offset_ns = int(
                self._rng.integers(0, self.scan_interval_ns)
            )
        scan_time = fault_ns + first_scan_offset_ns
        while True:
            # Backlog accumulated during one interval, read at human speed.
            backlog_lines = background_rate_per_s * (
                self.scan_interval_ns / NANOS_PER_SECOND
            )
            # The fault line sits at a uniform position in the backlog.
            position = float(self._rng.uniform(0.0, 1.0))
            reading_ns = int(
                backlog_lines * position / LINES_PER_SECOND * NANOS_PER_SECOND
            )
            if self._rng.random() >= MISS_PROBABILITY:
                return scan_time + reading_ns
            scan_time += self.scan_interval_ns

    def mean_detection_latency_ns(
        self, background_rate_per_s: float, trials: int = 200
    ) -> float:
        """Monte-Carlo mean detection latency for a fault at t=0."""
        if trials < 1:
            raise ValidationError("need at least one trial")
        total = 0
        for _ in range(trials):
            total += self.detection_time_ns(0, background_rate_per_s)
        return total / trials
