"""SelfHealManager: the composed detect → restart → repair loop.

One object owns the four moving parts (memberlist, detector, supervisor,
repairer), registers the ring members, hooks the shared memberlist into
the cluster's write/read paths, and exposes the metrics surface the
exporter scrapes.  The framework constructs it behind
``enable_self_healing`` and registers its :meth:`jobs` when the sim
starts.

It is also the fault injector's hook point: ``HEARTBEAT_LOSS`` mutes a
member's heartbeats (gray failure — the process keeps serving while the
detector watches it go silent), ``ZONE_OUTAGE`` crashes a whole
availability zone and bars the supervisor from restarting into it until
the outage ends.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.simclock import Job, SimClock
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.detector import FailureDetector
from repro.selfheal.memberlist import Memberlist, MemberState
from repro.selfheal.repairer import RingRepairer
from repro.selfheal.supervisor import IngesterSupervisor
from repro.tempo.tracer import Tracer


class SelfHealManager:
    """Failure detection, supervised restarts and anti-entropy repair."""

    def __init__(
        self,
        clock: SimClock,
        cluster: RingLokiCluster,
        tracer: Tracer,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.memberlist = Memberlist(clock)
        for member in sorted(cluster.ingesters):
            self.memberlist.register(member)
        cluster.attach_memberlist(self.memberlist)
        self.detector = FailureDetector(
            clock, cluster, self.memberlist, tracer=tracer
        )
        self.supervisor = IngesterSupervisor(clock, cluster, self.memberlist)
        self._declared_down: set[str] = set()
        self.repairer = RingRepairer(
            clock,
            cluster,
            self.memberlist,
            tracer=tracer,
            # A member in a *declared bounded* failure — its whole zone
            # is in an outage, or a fault with a known duration crashed
            # it — is coming back: hold repair back and let the restart
            # path (WAL replay) recover it, instead of re-homing data
            # that is about to return.
            holdback=self._held_back,
        )

    def _held_back(self, member: str) -> bool:
        if member in self._declared_down:
            return True
        zone = self.cluster.ring.zone(member)
        return zone is not None and self.supervisor.zone_is_down(zone)

    def jobs(self) -> list[Job]:
        """The three sweeps, detect before restart before repair.  The
        heartbeat loops are not here: each started when its member was
        registered with the detector."""
        return [
            Job(f"selfheal.{name}", part.config.sweep_interval_ns, part.sweep)
            for name, part in (
                ("detect", self.detector),
                ("restart", self.supervisor),
                ("repair", self.repairer),
            )
        ]

    def adopt(self, member: str) -> None:
        """Wire a member that joined the cluster after construction into
        the loop: register it (ACTIVE, fresh stamp) and start its
        heartbeat chain.  The repairer's anti-entropy heal pass then
        fills it with the history its token ranges make it responsible
        for."""
        if member not in self.cluster.ingesters:
            raise ValidationError(f"no such ingester: {member}")
        self.memberlist.register(member)
        self.detector.watch(member)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def begin_heartbeat_loss(self, member: str) -> None:
        """Gray failure: the member keeps serving but stops heartbeating."""
        if member not in self.cluster.ingesters:
            raise ValidationError(f"no such ingester: {member}")
        self.detector.mute(member)

    def end_heartbeat_loss(self, member: str) -> None:
        self.detector.unmute(member)

    def mark_unrecoverable(self, member: str) -> None:
        """Permanent loss: bar restarts so the repair path takes over."""
        if member not in self.cluster.ingesters:
            raise ValidationError(f"no such ingester: {member}")
        self.supervisor.mark_unrecoverable(member)

    def begin_bounded_crash(self, member: str) -> None:
        """A crash with a *declared* duration: the fault's own end is
        the recovery, so the supervisor stands aside (no restart racing
        the scheduled restore) and repair is held back (the member is
        coming back with its WAL — re-homing its streams would be
        wasted data movement)."""
        if member not in self.cluster.ingesters:
            raise ValidationError(f"no such ingester: {member}")
        self._declared_down.add(member)
        self.supervisor.mark_unrecoverable(member)

    def end_bounded_crash(self, member: str) -> int:
        """The declared outage is over: restart the member here and
        now.  Heartbeating it immediately snaps it back to ACTIVE, so a
        repairer sweep landing on the same tick (the member is DEAD
        past grace — the holdback is what deferred it) can never retire
        a process that just came back.  Returns WAL records replayed."""
        self._declared_down.discard(member)
        self.supervisor.mark_recoverable(member)
        replayed = self.cluster.restart_ingester(member)
        self.memberlist.heartbeat(member)
        return replayed

    def begin_zone_outage(self, zone: str) -> list[str]:
        """Crash every ingester in the zone and bar restarts into it.
        Returns the members taken down (still-active ones only)."""
        members = self.cluster.ring.members_in_zone(zone)
        if not members:
            raise ValidationError(f"no ring members in zone {zone!r}")
        self.supervisor.mark_zone_down(zone)
        downed = []
        for member in members:
            ingester = self.cluster.ingesters.get(member)
            if ingester is not None and ingester.active:
                ingester.crash()
                downed.append(member)
        return downed

    def end_zone_outage(self, zone: str) -> None:
        """Lift the bar and restart the zone's members immediately.

        The eager sweep matters: the instant the bar lifts, the zone's
        members are typically DEAD *past the repair grace* (the holdback
        is what deferred them), so a repairer sweep landing on the same
        tick would retire and re-home them before the supervisor's next
        scheduled sweep could restart them.  Restarting here makes the
        cheap path win the tie unconditionally."""
        self.supervisor.mark_zone_up(zone)
        self.supervisor.sweep()

    # ------------------------------------------------------------------
    # Metrics surface (SelfHealExporter)
    # ------------------------------------------------------------------
    def member_states(self) -> dict[str, str]:
        return {
            member: view.state.value
            for member, view in self.memberlist.snapshot().items()
        }

    def counts_by_state(self) -> dict[str, int]:
        out = {state.value: 0 for state in MemberState}
        for state in self.member_states().values():
            out[state] += 1
        return out

    def under_replicated_streams(self) -> int:
        return self.repairer.under_replicated_streams()

    def health_summary(self) -> dict[str, float]:
        """Scalar gauges for the exporter and ``health_summary``."""
        counts = self.counts_by_state()
        return {
            "members_active": float(counts["active"]),
            "members_suspect": float(counts["suspect"]),
            "members_dead": float(counts["dead"]),
            "members_forgotten": float(counts["forgotten"]),
            "heartbeats_total": float(self.memberlist.heartbeats_total),
            "suspects_total": float(self.memberlist.suspects_total),
            "deaths_total": float(self.memberlist.deaths_total),
            "recoveries_total": float(self.memberlist.recoveries_total),
            "under_replicated_streams": float(self.under_replicated_streams()),
            "members_repaired_total": float(self.repairer.members_repaired_total),
            "heals_total": float(self.repairer.heals_total),
            "streams_repaired_total": float(self.repairer.streams_repaired_total),
            "entries_copied_total": float(self.repairer.entries_copied_total),
            "restarts_total": float(self.supervisor.restarts_total),
            "records_replayed_total": float(
                self.supervisor.records_replayed_total
            ),
        }
