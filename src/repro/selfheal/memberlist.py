"""The shared membership view: lifecycle states and heartbeat times.

Every component of the self-healing loop reads and writes this one
structure, the way Loki components share the ring's KV store: ingesters
(via the detector's heartbeat loops) stamp their liveness into it, the
detector's sweep demotes members whose stamps go stale, the distributor
consults it to route around unhealthy replicas, and the repairer retires
members it has finished re-replicating.

The lifecycle is strictly ordered but recoverable until the end::

    ACTIVE ⇄ SUSPECT ⇄ DEAD → FORGOTTEN

A heartbeat from a SUSPECT or DEAD member proves it alive and snaps it
back to ACTIVE (gray failures end, crashed members restart).  FORGOTTEN
is terminal: the repairer only forgets a member after re-replicating its
streams, at which point the ring has already released its tokens and a
late heartbeat must not resurrect it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import StateError, ValidationError
from repro.common.simclock import NANOS_PER_SECOND, SimClock


class MemberState(enum.Enum):
    """Detector's verdict on a ring member — not its process state: a
    gray-failed member is SUSPECT while its process is still serving."""

    ACTIVE = "active"
    SUSPECT = "suspect"
    DEAD = "dead"
    FORGOTTEN = "forgotten"


@dataclass(frozen=True)
class MemberView:
    """One member's row in a :meth:`Memberlist.snapshot`."""

    state: MemberState
    last_heartbeat_ns: int
    state_since_ns: int
    heartbeat_age_seconds: float


class Memberlist:
    """Lifecycle states + heartbeat timestamps for the ring members."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._state: dict[str, MemberState] = {}
        self._last_heartbeat_ns: dict[str, int] = {}
        self._state_since_ns: dict[str, int] = {}
        #: Members not ACTIVE, kept at each transition: a push asks.
        self._write_excluded: frozenset[str] = frozenset()
        # Transition accounting for the exporter and the benches.
        self.heartbeats_total = 0
        self.suspects_total = 0
        self.deaths_total = 0
        self.recoveries_total = 0
        self.forgotten_total = 0
        self.read_triggered_suspects = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, member: str) -> None:
        """Add a member as ACTIVE with a fresh heartbeat stamp."""
        if not member:
            raise ValidationError("member id must be non-empty")
        if member in self._state:
            raise StateError(f"member {member!r} already registered")
        now = self.clock.now_ns
        self._state[member] = MemberState.ACTIVE
        self._last_heartbeat_ns[member] = now
        self._state_since_ns[member] = now

    def members(self) -> list[str]:
        return sorted(self._state)

    def _require(self, member: str) -> MemberState:
        try:
            return self._state[member]
        except KeyError:
            raise StateError(f"member {member!r} not registered") from None

    def state_of(self, member: str) -> MemberState:
        return self._require(member)

    def last_heartbeat_ns(self, member: str) -> int:
        self._require(member)
        return self._last_heartbeat_ns[member]

    def heartbeat_age_ns(self, member: str) -> int:
        self._require(member)
        return self.clock.now_ns - self._last_heartbeat_ns[member]

    def state_age_ns(self, member: str) -> int:
        self._require(member)
        return self.clock.now_ns - self._state_since_ns[member]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _transition(self, member: str, state: MemberState) -> None:
        self._state[member] = state
        self._state_since_ns[member] = self.clock.now_ns
        self._write_excluded = frozenset(
            m for m, s in self._state.items() if s is not MemberState.ACTIVE
        )

    def heartbeat(self, member: str) -> None:
        """Stamp liveness; a SUSPECT/DEAD member snaps back to ACTIVE."""
        state = self._require(member)
        if state is MemberState.FORGOTTEN:
            # Tokens already released, streams already re-homed: a
            # zombie's late heartbeat must not re-enter the ring.
            raise StateError(f"member {member!r} is forgotten")
        self._last_heartbeat_ns[member] = self.clock.now_ns
        self.heartbeats_total += 1
        if state is not MemberState.ACTIVE:
            self._transition(member, MemberState.ACTIVE)
            self.recoveries_total += 1

    def suspect(self, member: str) -> None:
        """ACTIVE → SUSPECT (detector sweep: heartbeat went stale)."""
        state = self._require(member)
        if state is not MemberState.ACTIVE:
            raise StateError(
                f"cannot suspect member {member!r} in state {state.value}"
            )
        self._transition(member, MemberState.SUSPECT)
        self.suspects_total += 1

    def suspect_from_read(self, member: str) -> bool:
        """A read fan-out found the member refusing: suspect it if still
        presumed healthy.  Idempotent (unlike :meth:`suspect`) because
        many concurrent reads may trip over the same dead replica."""
        if self._require(member) is not MemberState.ACTIVE:
            return False
        self._transition(member, MemberState.SUSPECT)
        self.suspects_total += 1
        self.read_triggered_suspects += 1
        return True

    def declare_dead(self, member: str) -> None:
        """SUSPECT → DEAD (suspicion timeout expired unanswered)."""
        state = self._require(member)
        if state is not MemberState.SUSPECT:
            raise StateError(
                f"cannot declare member {member!r} dead from state "
                f"{state.value}"
            )
        self._transition(member, MemberState.DEAD)
        self.deaths_total += 1

    def forget(self, member: str) -> None:
        """DEAD → FORGOTTEN (repair finished; terminal)."""
        state = self._require(member)
        if state is not MemberState.DEAD:
            raise StateError(
                f"cannot forget member {member!r} in state {state.value}"
            )
        self._transition(member, MemberState.FORGOTTEN)
        self.forgotten_total += 1

    # ------------------------------------------------------------------
    # Routing views
    # ------------------------------------------------------------------
    def write_excluded(self) -> frozenset[str]:
        """Members a push must not target: anything not ACTIVE.  The
        distributor extends its clockwise walk over the survivors."""
        return self._write_excluded

    def read_excluded(self, member: str) -> bool:
        """Whether a read fan-out should skip the member outright.
        SUSPECT members still serve (they may merely be slow); DEAD and
        FORGOTTEN ones are not worth contacting."""
        state = self._state.get(member)
        return state in (MemberState.DEAD, MemberState.FORGOTTEN)

    def in_state(self, state: MemberState) -> list[str]:
        return sorted(m for m, s in self._state.items() if s is state)

    def snapshot(self) -> dict[str, MemberView]:
        """Point-in-time view for exporters and ``ring_health``."""
        now = self.clock.now_ns
        return {
            member: MemberView(
                state=state,
                last_heartbeat_ns=self._last_heartbeat_ns[member],
                state_since_ns=self._state_since_ns[member],
                heartbeat_age_seconds=(
                    (now - self._last_heartbeat_ns[member]) / NANOS_PER_SECOND
                ),
            )
            for member, state in sorted(self._state.items())
        }
