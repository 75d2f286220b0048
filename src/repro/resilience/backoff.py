"""Deterministic exponential backoff with seeded jitter.

Retry schedules in this stack must be *reproducible*: the same seed
always yields the same delays, so a chaos scenario replays identically
and the benches report stable percentiles.  ``delay_ns`` is therefore a
pure function of ``(policy, attempt)`` — the jitter comes from hashing
the seed and attempt number, not from shared RNG state.

The jitter is bounded so the schedule keeps two properties the
Hypothesis suite pins down:

* **monotone non-decreasing** until the cap: each attempt's jittered
  delay never undercuts the previous attempt's, because the jitter
  fraction is capped at ``multiplier - 1``;
* **never exceeds the cap**: the final clamp applies after jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.hashing import unit_interval


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff: ``base * multiplier^attempt``, jittered, capped."""

    base_ns: int
    cap_ns: int
    multiplier: float = 2.0
    #: Fractional jitter: attempt ``n`` gets up to ``jitter * raw_delay``
    #: added.  Must not exceed ``multiplier - 1`` or the schedule could
    #: locally decrease.
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValidationError("backoff base must be positive")
        if self.cap_ns < self.base_ns:
            raise ValidationError("backoff cap must be >= base")
        if self.multiplier < 1.0:
            raise ValidationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= self.multiplier - 1.0:
            raise ValidationError(
                "jitter must be in [0, multiplier - 1] to keep the "
                "schedule monotone"
            )

    def delay_ns(self, attempt: int) -> int:
        """Delay before retry number ``attempt`` (0-based), in ns."""
        if attempt < 0:
            raise ValidationError("attempt must be non-negative")
        raw = float(self.base_ns)
        for _ in range(attempt):
            raw *= self.multiplier
            if raw >= self.cap_ns:
                # Saturated: jitter cannot push below the cap's clamp and
                # further multiplication would only overflow.
                return self.cap_ns
        jittered = raw * (1.0 + self.jitter * unit_interval(self.seed, attempt))
        return min(self.cap_ns, int(jittered))

    def schedule(self, attempts: int) -> list[int]:
        """The first ``attempts`` delays — handy for tests and reports."""
        return [self.delay_ns(i) for i in range(attempts)]
