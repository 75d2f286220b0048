"""The lifecycle in the running framework: one hourly sweep, the only
retention path, which an object-store outage can neither stop nor make
lose an entry."""

from collections import Counter

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.labels import label_matcher
from repro.common.simclock import hours, minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.omni.lifecycle import SWEEP_INTERVAL_NS, TWO_YEARS_NS
from repro.ring.merge import merge_stream_columns

SMALL = ClusterSpec(cabinets=1, chassis_per_cabinet=2)
ALL_PLANES = dict(
    enable_ingest_ring=True,
    enable_self_healing=True,
    enable_multi_tenancy=True,
    enable_object_storage=True,
    enable_query_engine=True,
    enable_reliable_delivery=True,
    enable_pattern_mining=True,
    enable_slo=True,
)
SYSLOG = [label_matcher("data_type", "=", "syslog")]


def lines(result):
    return Counter(entry.line for _labels, entries, *_ts in result for entry in entries)


def test_the_framework_sweeps_hourly():
    fw = MonitoringFramework(FrameworkConfig(cluster_spec=SMALL))
    fw.run_for(hours(2) + minutes(1))
    assert SWEEP_INTERVAL_NS == hours(1)
    assert fw.lifecycle.hot_window_ns == TWO_YEARS_NS
    assert fw.lifecycle.sweeps == 2
    assert fw.lifecycle.entries_archived == 0  # nothing is two years old


def test_a_sweep_in_an_outage_deletes_nothing_and_the_next_one_completes():
    fw = MonitoringFramework(FrameworkConfig(cluster_spec=SMALL, **ALL_PLANES))
    fw.lifecycle.hot_window_ns = minutes(20)
    fw.start()
    began = fw.clock.now_ns
    nodes = sorted(str(x) for x in fw.cluster.nodes)
    published = Counter()
    for minute in range(30):
        for i in range(4):
            line = f"kernel: link state change seq={minute}-{i}"
            fw.publish_syslog(
                {"hostname": nodes[i % len(nodes)], "data_type": "syslog",
                 "cluster": fw.config.cluster_name},
                fw.clock.now_ns + i, line,
            )
            published[line] += 1
        fw.run_for(minutes(1))
    # Seal everything: the flush at minute 35 ships it cold, so the sweep
    # at minute 60 must read (and would delete) cold chunks — during an
    # outage from minute 55 to 65.
    fw.warehouse.loki.flush_all()
    fw.faults.schedule(
        FaultKind.OBJSTORE_OUTAGE, "s3", delay_ns=minutes(25), duration_ns=minutes(10)
    )
    fw.run_for(minutes(36))

    def resident():
        return fw.warehouse.loki.select_columns(SYSLOG, began, fw.clock.now_ns + 1)

    def archived():
        return fw.lifecycle.archive.select_columns(SYSLOG, began, fw.clock.now_ns + 1)

    assert fw.tiered.cold_chunk_count() > 0
    assert (fw.lifecycle.sweeps, fw.lifecycle.sweep_failures) == (1, 1)
    assert fw.lifecycle.archive_index.ref_count() == 0
    assert lines(resident()) == published  # the failed sweep deleted nothing

    fw.run_for(minutes(60))
    assert (fw.lifecycle.sweeps, fw.lifecycle.sweep_failures) == (2, 1)
    # The framework's own streams age out too; the failed sweep counted
    # nothing, so the count is exactly what the archive holds.
    assert fw.lifecycle.entries_archived == fw.lifecycle.archive_index.entry_count()
    assert lines(resident()) == Counter()
    assert lines(archived()) == published
    assert lines(merge_stream_columns(resident() + archived())) == published
