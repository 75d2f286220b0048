"""Anti-entropy repair: restore lost redundancy after permanent loss.

When the detector declares a member DEAD and it stays dead past a grace
period (long enough for the supervisor's restarts to have worked if they
were going to), the repairer retires it:

1. **Release its tokens.**  The member leaves the ring, so desired
   placement for every stream becomes the post-removal clockwise walk —
   which is, by consistent hashing, exactly the walk the distributor's
   health-excluded writes were already extending onto.  New writes and
   the repair target therefore agree.
2. **Diff placement against reality.**  For every stream the survivors
   hold, the desired replica set (``distributor.replicas_excluding`` the
   unusable members) is compared with the actual per-ingester
   inventories.  A desired replica holding fewer resident entries than
   the fullest surviving copy is under-replicated.
3. **Re-replicate.**  The fullest surviving replicas donate: their
   merged history is grafted onto each short target via
   :meth:`~repro.ring.ingester.Ingester.repair_stream` (a from-scratch
   rebuild, because a target holding only a *suffix* cannot accept older
   entries through the ordinary push path).  Touched targets are
   checkpointed, re-anchoring WAL durability at the repaired state; a
   crash between graft and checkpoint merely re-surfaces the gap for the
   next sweep.
4. **Forget the member.**  Terminal — a zombie heartbeat can no longer
   resurrect it — and the husk leaves the ingester map.

Only *resident* entries are copied.  Chunks already shipped to the cold
tier are durable and replica-deduplicated there; re-replicating them
would double-count what the object store already guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping

from repro.common.errors import StateError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import NANOS_PER_SECOND, SimClock
from repro.ring.cluster import RingLokiCluster
from repro.ring.ingester import Ingester
from repro.ring.merge import merge_replica_columns
from repro.selfheal.memberlist import Memberlist, MemberState
from repro.tempo.tracer import Tracer


@dataclass(frozen=True)
class RingRepairerConfig:
    #: How long a member must stay DEAD before repair retires it — the
    #: supervisor's window to bring a recoverable member back instead.
    grace_ns: int = 30 * NANOS_PER_SECOND
    sweep_interval_ns: int = 10 * NANOS_PER_SECOND

    def __post_init__(self) -> None:
        if self.grace_ns < 0:
            raise ValidationError("grace must be >= 0")
        if self.sweep_interval_ns <= 0:
            raise ValidationError("sweep interval must be positive")


@dataclass
class RepairReport:
    """What one :meth:`RingRepairer.repair_member` run did."""

    member: str
    streams_examined: int = 0
    streams_repaired: int = 0
    entries_copied: int = 0
    targets_checkpointed: int = 0
    transfers: list[tuple[str, str, int]] = field(default_factory=list)


class RingRepairer:
    """Retires DEAD members by re-replicating their streams."""

    def __init__(
        self,
        clock: SimClock,
        cluster: RingLokiCluster,
        memberlist: Memberlist,
        tracer: Tracer,
        holdback: Callable[[str], bool] | None = None,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.memberlist = memberlist
        self.config = RingRepairerConfig()
        self.tracer = tracer
        #: Optional predicate: DEAD members it returns True for are *not*
        #: retired — a known, bounded outage (e.g. the supervisor holds
        #: their whole zone down) where mass data movement would be
        #: wasted work; the supervisor restarts them when it lifts.
        self.holdback = holdback
        self.members_held_back = 0
        self.sweeps = 0
        self.members_repaired_total = 0
        self.streams_repaired_total = 0
        self.entries_copied_total = 0
        self.heals_total = 0
        self.reports: list[RepairReport] = []
        # The maintained placement diff and the epoch it was taken under.
        self._epoch: tuple | None = None
        self._short: dict[LabelSet, list[str]] = {}

    # ------------------------------------------------------------------
    # Observation: placement vs. reality
    # ------------------------------------------------------------------
    def _usable(self) -> dict[str, Ingester]:
        """The members whose replicas count toward redundancy: process
        up and not written off by the detector."""
        return {
            member: ingester
            for member, ingester in self.cluster.ingesters.items()
            if ingester.active and not self.memberlist.read_excluded(member)
        }

    @staticmethod
    def _inventories(
        streams: Collection[LabelSet], usable: Mapping[str, Ingester]
    ) -> dict[str, dict[LabelSet, int]]:
        return {
            member: ingester.stream_inventory(streams)
            for member, ingester in usable.items()
        }

    def placement_diff(self) -> dict[LabelSet, list[str]]:
        """Streams whose desired replicas are missing resident entries:
        stream → the under-filled target members.  Empty means the ring
        is fully replicated — the Hypothesis suite's convergence check
        and the exporter's ``under_replicated_streams`` gauge.

        The diff is maintained, not recomputed.  A stream's row depends
        on the *placement epoch* — the ring version plus which members
        are usable, and in which incarnation — and on that stream's
        resident counts.  While the epoch stands, only streams some
        usable store touched since the last call, and those still short,
        can have a different row; when it moved, every stream can."""
        usable = self._usable()
        epoch = (
            self.cluster.ring.version,
            tuple((m, ingester.restarts) for m, ingester in usable.items()),
        )
        candidates: set[LabelSet] = set()
        for ingester in usable.values():
            candidates |= ingester.store.drain_touched()
        if epoch == self._epoch:
            candidates.update(self._short)
        else:
            self._epoch = epoch
            for ingester in usable.values():
                candidates.update(ingester.store.stream_labels())
        # Every stream still short is a candidate, so the diff over the
        # candidates is the whole diff.
        self._short = self.diff_over(candidates, usable)
        return dict(self._short)

    def diff_over(
        self,
        streams: Collection[LabelSet],
        usable: Mapping[str, Ingester] | None = None,
    ) -> dict[LabelSet, list[str]]:
        """The placement diff restricted to ``streams``; reads the ring
        and the inventories, changes nothing.  Over every stream it is
        the reference :meth:`placement_diff` must always equal."""
        if usable is None:
            usable = self._usable()
        inventories = self._inventories(streams, usable)
        unusable = {
            member
            for member in self.cluster.ring.members()
            if member not in usable
        }
        diff: dict[LabelSet, list[str]] = {}
        for labels in streams:
            fullest = max(
                (inv.get(labels, 0) for inv in inventories.values()),
                default=0,
            )
            if fullest == 0:
                continue
            short = [
                target
                for target in self._desired(labels, unusable)
                if target in usable
                and inventories[target].get(labels, 0) < fullest
            ]
            if short:
                diff[labels] = short
        return diff

    def _desired(self, labels: LabelSet, unusable: set[str]) -> list[str]:
        """The stream's *effective* desired replica set: the ring walk
        excluding unusable members, i.e. where replicas should live
        given the failures in effect right now.  (A DEAD member still
        holding tokens must not count as a valid home — its slot falls
        to the next survivor clockwise, which is also where the
        distributor's health-excluded writes already land.)  When fewer
        ring members remain than the replication factor asks for,
        degrade explicitly to full replication over every survivor."""
        try:
            return self.cluster.distributor.replicas_excluding(
                labels, unusable
            )
        except StateError:
            return [
                m for m in self.cluster.ring.members() if m not in unusable
            ]

    def under_replicated_streams(self) -> int:
        return len(self.placement_diff())

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """Retire every member DEAD past the grace period; when the
        cluster is fully healthy, run an anti-entropy heal pass."""
        self.sweeps += 1
        dead = self.memberlist.in_state(MemberState.DEAD)
        for member in dead:
            if self.memberlist.state_age_ns(member) < self.config.grace_ns:
                continue
            if self.holdback is not None and self.holdback(member):
                self.members_held_back += 1
                continue
            self.repair_member(member)
        # A residual diff with *no* failure in progress is not a failure
        # at all — it is a scale-out newcomer or a voluntary leave that
        # left a desired target empty.  Heal it here; during a failure
        # window the supervisor (restart + WAL replay) or repair_member
        # owns resolution, and copying early would pre-empt the cheaper
        # path.
        if (
            not dead
            and not self.memberlist.in_state(MemberState.SUSPECT)
            and all(i.active for i in self.cluster.ingesters.values())
        ):
            self.heal()

    def heal(self) -> RepairReport | None:
        """One anti-entropy pass with no member to retire: close the
        gaps the current placement diff shows (an empty scale-out
        newcomer now inside a stream's walk, a voluntary leave that
        shifted placement onto a member without the history).  Returns
        the report, or ``None`` if the ring was already converged."""
        start_ns = self.clock.now_ns
        diff = self.placement_diff()
        if not diff:
            return None
        report = RepairReport(member="")
        self._graft(diff, report)
        self.heals_total += 1
        self.streams_repaired_total += report.streams_repaired
        self.entries_copied_total += report.entries_copied
        self.reports.append(report)
        self.tracer.record(
            "selfheal",
            "heal",
            start_ns=start_ns,
            attributes={
                "streams_repaired": report.streams_repaired,
                "entries_copied": report.entries_copied,
            },
        )
        return report

    def _graft(
        self, diff: dict[LabelSet, list[str]], report: RepairReport
    ) -> None:
        """Re-replicate every short target in ``diff`` from the fullest
        surviving copies, then checkpoint the touched targets so a later
        crash replays the grafted history, not the pre-repair one."""
        inventories = self._inventories(diff, self._usable())
        touched: set[str] = set()
        for labels, targets in sorted(
            diff.items(), key=lambda pair: pair[0].items_tuple()
        ):
            report.streams_examined += 1
            donors = [
                self.cluster.ingesters[m].entries_of(labels)
                for m, inv in sorted(inventories.items())
                if inv.get(labels, 0) > 0
            ]
            if not donors:
                continue
            merged = merge_replica_columns(donors)
            repaired_here = False
            for target in targets:
                before = inventories.get(target, {}).get(labels, 0)
                got = self.cluster.ingesters[target].repair_stream(
                    labels, merged
                )
                copied = max(0, got - before)
                report.entries_copied += copied
                report.transfers.append((target, str(labels), copied))
                touched.add(target)
                repaired_here = True
            if repaired_here:
                report.streams_repaired += 1
        for target in sorted(touched):
            self.cluster.ingesters[target].checkpoint()
            report.targets_checkpointed += 1

    def repair_member(self, member: str) -> RepairReport:
        """Release the member's tokens, heal the under-replication its
        loss caused, and forget it."""
        start_ns = self.clock.now_ns
        report = RepairReport(member=member)
        # Tokens first: desired placement must be the post-removal walk
        # before the diff is computed, or we would "repair" toward a
        # layout that still includes the dead member.
        if member in self.cluster.ring.members():
            self.cluster.ring.leave(member)
        self._graft(self.placement_diff(), report)
        self.memberlist.forget(member)
        self.cluster.remove_ingester(member)
        self.members_repaired_total += 1
        self.streams_repaired_total += report.streams_repaired
        self.entries_copied_total += report.entries_copied
        self.reports.append(report)
        self.tracer.record(
            "selfheal",
            "repair_member",
            start_ns=start_ns,
            attributes={
                "member": member,
                "streams_repaired": report.streams_repaired,
                "entries_copied": report.entries_copied,
            },
        )
        return report
