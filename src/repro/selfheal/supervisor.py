"""The ingester supervisor: restart what can be restarted.

Crashes come in two flavours and the self-healing loop treats them very
differently:

* **Recoverable** — the process died but the node is fine.  The
  supervisor restarts it (WAL replay rebuilds the exact pre-crash
  store), spacing repeated attempts with the stack's deterministic
  capped exponential backoff so a crash-looping member does not burn
  the cluster down.  The restarted member heartbeats again and the
  detector snaps it back to ACTIVE — no data ever moved.
* **Permanent** — the node is gone (marked unrecoverable by the fault,
  e.g. hardware loss) or its whole zone is down.  The supervisor leaves
  it alone; once the detector declares it DEAD and the grace period
  passes, the anti-entropy repairer re-replicates its streams instead.

The distinction is the crux: restarting is cheap (replay from local
WAL), repair is expensive (copy history across the ring), so the grace
period gives restarts first claim and repair handles only what restarts
cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.simclock import NANOS_PER_SECOND, SimClock
from repro.resilience.backoff import BackoffPolicy
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.memberlist import Memberlist, MemberState


def _default_backoff() -> BackoffPolicy:
    return BackoffPolicy(
        base_ns=2 * NANOS_PER_SECOND,
        cap_ns=60 * NANOS_PER_SECOND,
        multiplier=2.0,
        jitter=0.2,
        seed=0x5E1F,
    )


@dataclass(frozen=True)
class SupervisorConfig:
    sweep_interval_ns: int = 5 * NANOS_PER_SECOND
    backoff: BackoffPolicy = field(default_factory=_default_backoff)

    def __post_init__(self) -> None:
        if self.sweep_interval_ns <= 0:
            raise ValidationError("sweep interval must be positive")


class IngesterSupervisor:
    """Auto-restarts crashed-but-recoverable ring members."""

    def __init__(
        self,
        clock: SimClock,
        cluster: RingLokiCluster,
        memberlist: Memberlist,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.memberlist = memberlist
        self.config = SupervisorConfig()
        self._unrecoverable: set[str] = set()
        self._down_zones: set[str] = set()
        # member → (consecutive restart attempts, next attempt time).
        self._attempts: dict[str, int] = {}
        self._next_attempt_ns: dict[str, int] = {}
        self.sweeps = 0
        self.restarts_total = 0
        self.records_replayed_total = 0
        self.skipped_unrecoverable = 0
        self.skipped_zone_down = 0
        self.skipped_backoff = 0

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def mark_unrecoverable(self, member: str) -> None:
        """Permanent loss: never restart; the repairer takes over."""
        self._unrecoverable.add(member)

    def mark_recoverable(self, member: str) -> None:
        self._unrecoverable.discard(member)
        self._attempts.pop(member, None)
        self._next_attempt_ns.pop(member, None)

    def is_unrecoverable(self, member: str) -> bool:
        return member in self._unrecoverable

    def mark_zone_down(self, zone: str) -> None:
        """A whole zone is out: restarting into it is pointless."""
        self._down_zones.add(zone)

    def mark_zone_up(self, zone: str) -> None:
        self._down_zones.discard(zone)

    def zone_is_down(self, zone: str) -> bool:
        return zone in self._down_zones

    # ------------------------------------------------------------------
    # The restart sweep
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        self.sweeps += 1
        now = self.clock.now_ns
        for member_id, ingester in sorted(self.cluster.ingesters.items()):
            if ingester.active:
                # Surviving past the backoff window clears the crash-loop
                # counter; crashing again inside it keeps escalating.
                next_at = self._next_attempt_ns.get(member_id)
                if next_at is not None and now >= next_at:
                    self._attempts.pop(member_id, None)
                    self._next_attempt_ns.pop(member_id, None)
                continue
            if self.memberlist.state_of(member_id) is MemberState.FORGOTTEN:
                continue
            if member_id in self._unrecoverable:
                self.skipped_unrecoverable += 1
                continue
            zone = self.cluster.ring.zone(member_id)
            if zone is not None and zone in self._down_zones:
                self.skipped_zone_down += 1
                continue
            next_at = self._next_attempt_ns.get(member_id)
            if next_at is not None and now < next_at:
                self.skipped_backoff += 1
                continue
            self._restart(member_id, now)

    def _restart(self, member_id: str, now_ns: int) -> None:
        attempt = self._attempts.get(member_id, 0)
        replayed = self.cluster.ingesters[member_id].restart()
        self.restarts_total += 1
        self.records_replayed_total += replayed
        # The member proves itself by heartbeating; if it crashes again
        # before the next sweep the following attempt waits longer.
        self._attempts[member_id] = attempt + 1
        self._next_attempt_ns[member_id] = now_ns + self.config.backoff.delay_ns(
            attempt
        )
        self.memberlist.heartbeat(member_id)
