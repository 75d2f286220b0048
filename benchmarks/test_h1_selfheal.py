"""H1 — self-healing: detection latency, unclean-loss durability, and
zone-spread under a zone outage.

Three claims the ``repro.selfheal`` subsystem must earn:

1. **Detection is bounded.**  Observed silence → DEAD latency stays
   under ``FailureDetectorConfig.max_detection_latency_ns`` for every
   victim and silence time tried.
2. **Unclean permanent loss at RF=3 loses nothing.**  A gray-failed,
   never-restarted ingester is detected, routed around, re-replicated
   and retired — and LogQL afterwards returns exactly the acknowledged
   corpus.
3. **Zone-spread keeps every stream readable through a zone outage.**
   With replicas spread over three zones, any single-zone outage leaves
   at least write-quorum replicas standing per stream.
"""

import time

from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import NANOS_PER_SECOND, SimClock, minutes, seconds
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.loki.model import LogEntry
from repro.ring.cluster import RingLokiCluster
from repro.selfheal.manager import SelfHealManager
from repro.selfheal.memberlist import MemberState

from conftest import report
from tests.tracing import off_tracer

MATCH_ALL = [label_matcher("app", "=~", ".+")]
N_STREAMS = 24
ENTRIES_PER_STREAM = 25


def _feed_cluster(cluster, base_ns=0):
    expected = {}
    for i in range(N_STREAMS):
        labels = LabelSet({"app": f"svc-{i:02d}"})
        rows = [
            LogEntry(base_ns + seconds(j + 1), f"s{i:02d}-line-{j:04d}")
            for j in range(ENTRIES_PER_STREAM)
        ]
        cluster.push_stream(labels, rows)
        expected[labels] = rows
    return expected


def _detection_trials():
    """Silence → DEAD latency for every member, silencing each at a
    different phase of its heartbeat cycle."""
    trials = []
    for victim_idx in range(6):
        for offset_s in (0, 7, 13):
            clock = SimClock()
            cluster = RingLokiCluster(ingesters=6, replication_factor=3, tracer=off_tracer())
            mgr = SelfHealManager(clock, cluster, tracer=off_tracer())
            for job in mgr.jobs():
                clock.every(job.interval_ns, job.run)
            clock.advance(seconds(30 + offset_s))
            victim = f"ingester-{victim_idx}"
            silent_at = clock.now_ns
            mgr.begin_heartbeat_loss(victim)
            bound = mgr.detector.config.max_detection_latency_ns
            clock.advance(2 * bound)
            detected = mgr.detector.detected_dead_at_ns[victim]
            trials.append((victim, offset_s, detected - silent_at, bound))
    return trials


def test_h1_selfheal(benchmark):
    rows = []

    # --- 1. detection latency is bounded -----------------------------
    trials = benchmark.pedantic(_detection_trials, rounds=3, iterations=1)
    bound = trials[0][3]
    rows.append(
        f"detection latency over {len(trials)} silences "
        f"(bound {bound / NANOS_PER_SECOND:.1f}s):"
    )
    rows.append(f"{'victim':>12} {'offset_s':>9} {'latency_s':>10}")
    worst = 0
    for victim, offset_s, latency, trial_bound in trials:
        assert latency <= trial_bound, (victim, offset_s)
        worst = max(worst, latency)
        if offset_s == 0:
            rows.append(
                f"{victim:>12} {offset_s:>9} "
                f"{latency / NANOS_PER_SECOND:>10.1f}"
            )
    rows.append(
        f"worst observed: {worst / NANOS_PER_SECOND:.1f}s "
        f"<= bound {bound / NANOS_PER_SECOND:.1f}s"
    )

    # --- 2. unclean permanent loss at RF=3: zero entries lost --------
    fw = MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
            enable_ingest_ring=True,
            enable_self_healing=True,
            ring_ingesters=6,
            ring_zones=3,
        )
    )
    fw.start()
    fw.run_for(seconds(30))
    base_ns = fw.clock.now_ns
    expected = _feed_cluster(fw.ring, base_ns)
    total_entries = sum(len(v) for v in expected.values())
    victim = max(
        fw.ring.ingesters,
        key=lambda m: len(fw.ring.ingesters[m].stream_inventory()),
    )
    victim_streams = len(fw.ring.ingesters[victim].stream_inventory())
    fw.faults.schedule(
        FaultKind.HEARTBEAT_LOSS, victim, delay_ns=seconds(30), permanent=True
    )
    peak_under = 0
    start = time.perf_counter()
    for _ in range(30):
        fw.run_for(seconds(30))
        peak_under = max(peak_under, fw.selfheal.under_replicated_streams())
    wall = time.perf_counter() - start
    assert fw.selfheal.memberlist.state_of(victim) is MemberState.FORGOTTEN
    assert victim not in fw.ring.ingesters
    assert fw.selfheal.under_replicated_streams() == 0
    # Exact LogQL results after the unclean loss.
    logql = fw.logql.query_logs('{app=~"svc-.*"}', 0, 2**63 - 1)
    got = {labels: entries for labels, entries in logql}
    assert got == expected, "unclean permanent loss must lose nothing"
    repairer = fw.selfheal.repairer
    rows.append(
        f"\nunclean permanent loss at RF=3 ({victim}, "
        f"{victim_streams} resident streams):\n"
        f"corpus: {total_entries} entries over {N_STREAMS} streams\n"
        f"under-replicated streams peak/final: {peak_under}/0\n"
        f"streams re-replicated: {repairer.streams_repaired_total}, "
        f"entries copied: {repairer.entries_copied_total}\n"
        f"LogQL after repair: exact ({sum(len(e) for e in got.values())} "
        f"entries) — zero lost  [15 sim-min in {wall:.2f}s wall]"
    )

    # --- 3. zone-spread through a zone outage ------------------------
    fw2 = MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
            enable_ingest_ring=True,
            enable_self_healing=True,
            ring_ingesters=6,
            ring_zones=3,
        )
    )
    fw2.start()
    fw2.run_for(seconds(30))
    expected2 = _feed_cluster(fw2.ring, fw2.clock.now_ns)
    fault = fw2.faults.schedule(
        FaultKind.ZONE_OUTAGE, "zone-1", delay_ns=seconds(30),
        duration_ns=minutes(4),
    )
    fw2.run_for(minutes(3))  # mid-outage
    quorum = fw2.ring.distributor.write_quorum
    min_outside = N_STREAMS
    for labels in expected2:
        replicas = fw2.ring.distributor.replicas_for(labels)
        outside = [m for m in replicas if fw2.ring.ring.zone(m) != "zone-1"]
        min_outside = min(min_outside, len(outside))
    assert min_outside >= quorum
    mid = {l: e for l, e in fw2.ring.select(MATCH_ALL, 0, 2**63 - 1)}
    assert mid == expected2, "reads must stay exact mid-outage"
    fw2.run_for(minutes(5))  # outage over, members restarted
    downed = fault.detail["members_downed"]
    assert all(fw2.ring.ingesters[m].active for m in downed)
    rows.append(
        f"\nzone outage (zone-1, {len(downed)} members, 4 sim-min):\n"
        f"every stream kept >= {min_outside} of 3 replicas outside the "
        f"faulted zone (write quorum {quorum})\n"
        f"reads mid-outage: exact; members restarted (not re-homed): "
        f"{fw2.selfheal.supervisor.restarts_total} restarts, "
        f"{fw2.selfheal.repairer.members_repaired_total} repairs, "
        f"{fw2.selfheal.repairer.members_held_back} repair sweeps held back"
    )

    report("H1_selfheal", "\n".join(rows))
