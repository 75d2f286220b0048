"""Heartbeat-driven failure detection on the simulated clock.

Each ring member runs a heartbeat loop: every ``heartbeat_interval`` (±
bounded, deterministic jitter — :func:`repro.common.hashing.
unit_interval` hashed over ``(member, tick)``, so replays are
bit-identical) it stamps its liveness into the shared
:class:`~repro.selfheal.memberlist.Memberlist`, *provided the process is
actually alive*: a crashed ingester's loop keeps ticking but stops
stamping, which is exactly how the silence a real cluster observes
arises.  A gray failure (``HEARTBEAT_LOSS``) mutes the loop without
touching the process — the member keeps serving reads and writes while
its heartbeats vanish.

A periodic sweep then demotes stale members::

    age > suspect_after          ACTIVE  → SUSPECT
    age > dead_after             SUSPECT → DEAD

Config validation enforces ``suspect_after > heartbeat_interval * (1 +
jitter)``: a healthy member's age can never legitimately reach the
suspicion threshold, so a healthy detector never flaps — the property
the Hypothesis suite pins down.  Detection latency is likewise bounded:
a member going silent at time *t* is declared DEAD no later than
``t + heartbeat_interval*(1+jitter) + dead_after + 2*sweep_interval``
(two sweeps because DEAD is only reachable via SUSPECT).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.simclock import NANOS_PER_SECOND, SimClock
from repro.common.hashing import unit_interval
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.memberlist import Memberlist, MemberState
from repro.tempo.tracer import Tracer


@dataclass(frozen=True)
class FailureDetectorConfig:
    """Timeout-and-suspicion thresholds, all on the sim clock."""

    heartbeat_interval_ns: int = 5 * NANOS_PER_SECOND
    #: Heartbeat age (since last stamp) past which ACTIVE → SUSPECT.
    suspect_after_ns: int = 15 * NANOS_PER_SECOND
    #: Heartbeat age past which SUSPECT → DEAD.
    dead_after_ns: int = 45 * NANOS_PER_SECOND
    sweep_interval_ns: int = 5 * NANOS_PER_SECOND
    #: Fractional jitter on each heartbeat gap: tick ``n`` fires after
    #: ``interval * (1 + jitter * unit_interval(member, n))``.
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ns <= 0:
            raise ValidationError("heartbeat interval must be positive")
        if self.sweep_interval_ns <= 0:
            raise ValidationError("sweep interval must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError("jitter must be in [0, 1)")
        worst_gap = self.heartbeat_interval_ns * (1.0 + self.jitter)
        if self.suspect_after_ns <= worst_gap:
            raise ValidationError(
                "suspect_after must exceed the worst-case heartbeat gap "
                f"({int(worst_gap)}ns) or healthy members would flap"
            )
        if self.dead_after_ns <= self.suspect_after_ns:
            raise ValidationError("dead_after must exceed suspect_after")

    @property
    def max_detection_latency_ns(self) -> int:
        """Upper bound on silence → DEAD, for the benches to verify.

        Two sweep intervals, not one: DEAD is only reachable from
        SUSPECT, so when both thresholds fall inside the same sweep gap
        one sweep demotes to SUSPECT and the *next* one declares DEAD.
        """
        return int(
            self.heartbeat_interval_ns * (1.0 + self.jitter)
            + self.dead_after_ns
            + 2 * self.sweep_interval_ns
        )


class FailureDetector:
    """Per-member heartbeat loops + the staleness sweep.  A loop has no
    fixed cadence and starts when its member is watched (every member
    registered by construction time is); :meth:`sweep` is a job on the
    owner's schedule."""

    def __init__(
        self,
        clock: SimClock,
        cluster: RingLokiCluster,
        memberlist: Memberlist,
        config: FailureDetectorConfig | None = None,
        *,
        tracer: Tracer,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.memberlist = memberlist
        self.config = config or FailureDetectorConfig()
        self.tracer = tracer
        self._muted: set[str] = set()
        self.sweeps = 0
        #: member → time its heartbeats were last observed missing, for
        #: the bench's detection-latency measurement.
        self.detected_dead_at_ns: dict[str, int] = {}
        for member in memberlist.members():
            self.watch(member)

    # ------------------------------------------------------------------
    # Gray-failure hooks (HEARTBEAT_LOSS fault)
    # ------------------------------------------------------------------
    def mute(self, member: str) -> None:
        """Silence a member's heartbeats without touching its process."""
        self._muted.add(member)

    def unmute(self, member: str) -> None:
        self._muted.discard(member)

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def watch(self, member: str) -> None:
        """Start a member's heartbeat loop.  Members registered before
        construction are watched by it; a later one is watched here."""
        self._schedule_heartbeat(member, tick=0)

    def _schedule_heartbeat(self, member: str, tick: int) -> None:
        gap = int(
            self.config.heartbeat_interval_ns
            * (1.0 + self.config.jitter * unit_interval(member, tick))
        )
        self.clock.call_later(gap, lambda: self._beat(member, tick))

    def _beat(self, member: str, tick: int) -> None:
        ingester = self.cluster.ingesters.get(member)
        if ingester is None:
            return  # removed from the cluster: loop ends
        state = self.memberlist.state_of(member)
        if state is MemberState.FORGOTTEN:
            return
        if ingester.active and member not in self._muted:
            self.memberlist.heartbeat(member)
        self._schedule_heartbeat(member, tick + 1)

    def sweep(self) -> None:
        """Demote members whose heartbeat stamps went stale."""
        self.sweeps += 1
        now = self.clock.now_ns
        for member in self.memberlist.members():
            state = self.memberlist.state_of(member)
            age = self.memberlist.heartbeat_age_ns(member)
            if state is MemberState.ACTIVE and age > self.config.suspect_after_ns:
                self.memberlist.suspect(member)
                verdict = "suspect"
            elif state is MemberState.SUSPECT and age > self.config.dead_after_ns:
                self.memberlist.declare_dead(member)
                self.detected_dead_at_ns[member] = now
                verdict = "declare_dead"
            else:
                continue
            self.tracer.record(
                "selfheal",
                verdict,
                attributes={
                    "member": member,
                    "heartbeat_age_seconds": f"{age / NANOS_PER_SECOND:.3f}",
                },
            )
