"""Self-healing exporter: the detect → restart → repair loop for vmagent.

Two signals carry the alerting story.  Per-member lifecycle lives on the
ring exporter (``ring_member_state`` one-hot gauge, which the
``IngesterSuspect`` rule watches); this exporter adds the fleet-level
counts plus the repair plane: ``selfheal_under_replicated_streams`` is a
*live placement diff* — streams whose desired replicas are missing
resident entries right now — so the ``UnderReplicatedStreams`` alert
fires while redundancy is genuinely lost and self-resolves the scrape
after the repairer (or a supervisor restart + WAL replay) closes the
gap.

Alongside: heartbeat/transition counters from the memberlist, repair
volume (members retired, streams re-replicated, entries copied), and
the supervisor's restart/replay/skip accounting.
"""

from __future__ import annotations

from typing import Iterator

from repro.exporters.exporter import Exporter, Reading
from repro.selfheal.manager import SelfHealManager

_SELFHEAL = (
    ("selfheal_members", "gauge", "Ring members by lifecycle state."),
    ("selfheal_heartbeats_total", "counter",
     "Heartbeats stamped into the memberlist."),
    ("selfheal_transitions_total", "counter",
     "Lifecycle transitions by kind (suspect/dead/recovered/"
     "forgotten)."),
    ("selfheal_read_triggered_suspects_total", "counter",
     "Members suspected because a read fan-out found them refusing "
     "before the sweep noticed the stale heartbeat."),
    ("selfheal_under_replicated_streams", "gauge",
     "Streams whose desired replicas are missing resident entries "
     "(live placement diff; self-resolves once repaired)."),
    ("selfheal_members_repaired_total", "counter",
     "DEAD members retired by anti-entropy repair."),
    ("selfheal_heal_passes_total", "counter",
     "Anti-entropy heal passes that closed a placement gap with "
     "no member to retire (scale-out newcomers, voluntary "
     "leaves)."),
    ("selfheal_streams_repaired_total", "counter",
     "Streams re-replicated onto new ring owners."),
    ("selfheal_entries_copied_total", "counter",
     "Entries grafted onto repair targets."),
    ("selfheal_supervisor_restarts_total", "counter",
     "Crashed ingesters the supervisor restarted."),
    ("selfheal_supervisor_replayed_records_total", "counter",
     "WAL records replayed by supervised restarts."),
    ("selfheal_supervisor_skips_total", "counter",
     "Restart candidates skipped, by reason."),
    ("selfheal_reads_degraded_total", "counter",
     "Reads that failed because fewer than a quorum of replicas "
     "answered."),
    ("selfheal_replicas_skipped_unhealthy_total", "counter",
     "Desired write replicas skipped because the detector held "
     "them SUSPECT or DEAD."),
)


def _read_manager(manager: SelfHealManager) -> Iterator[Reading]:
    memberlist = manager.memberlist
    repairer = manager.repairer
    supervisor = manager.supervisor
    distributor = manager.cluster.distributor
    for state, count in manager.counts_by_state().items():
        yield "selfheal_members", count, {"state": state}
    yield "selfheal_heartbeats_total", memberlist.heartbeats_total, None
    for kind, count in (
        ("suspect", memberlist.suspects_total),
        ("dead", memberlist.deaths_total),
        ("recovered", memberlist.recoveries_total),
        ("forgotten", memberlist.forgotten_total),
    ):
        yield "selfheal_transitions_total", count, {"kind": kind}
    read_suspects = memberlist.read_triggered_suspects
    yield "selfheal_read_triggered_suspects_total", read_suspects, None
    under = repairer.under_replicated_streams()
    yield "selfheal_under_replicated_streams", under, None
    yield "selfheal_members_repaired_total", repairer.members_repaired_total, None
    yield "selfheal_heal_passes_total", repairer.heals_total, None
    yield "selfheal_streams_repaired_total", repairer.streams_repaired_total, None
    yield "selfheal_entries_copied_total", repairer.entries_copied_total, None
    yield "selfheal_supervisor_restarts_total", supervisor.restarts_total, None
    replayed = supervisor.records_replayed_total
    yield "selfheal_supervisor_replayed_records_total", replayed, None
    for reason, count in (
        ("unrecoverable", supervisor.skipped_unrecoverable),
        ("zone_down", supervisor.skipped_zone_down),
        ("backoff", supervisor.skipped_backoff),
    ):
        yield "selfheal_supervisor_skips_total", count, {"reason": reason}
    yield "selfheal_reads_degraded_total", distributor.reads_degraded, None
    skipped = distributor.replicas_skipped_unhealthy
    yield "selfheal_replicas_skipped_unhealthy_total", skipped, None


class SelfHealExporter(Exporter):
    """Exports memberlist, detector, repairer and supervisor counters."""

    def __init__(self, manager: SelfHealManager) -> None:
        super().__init__((_SELFHEAL, _read_manager, manager))
