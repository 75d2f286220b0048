"""A write the store refuses fails its record; it never escapes the pump.

Two refusals reach a consumer pod from below the warehouse: admission's
typed 429s (``RateLimitedError``/``StreamLimitError``) and the ring's
``QuorumError``.  At-most-once mode counts the record failed and drops
it.  Reliable mode blocks the partition and redelivers the record next
pump, without counting the refusal toward ``MAX_DELIVERY_FAILURES``: a
429 or a lost quorum is the store's state, not a poison record.
"""

from collections import Counter

from repro.common.labels import label_matcher
from repro.common.simclock import seconds
from repro.core.consumers import MAX_DELIVERY_FAILURES
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.tenancy.limits import TenantLimits


def _rate_limited(reliable: bool, rate: float = 1.0) -> MonitoringFramework:
    """The ``ops`` tenant at ``rate`` lines/s with a burst of 5, and 20
    of its syslog lines published on one partition."""
    fw = MonitoringFramework(
        FrameworkConfig(
            enable_multi_tenancy=True, enable_reliable_delivery=reliable
        )
    )
    fw.limits.set_override(
        "ops",
        TenantLimits(
            ingestion_rate_lines_s=rate,
            ingestion_burst_lines=5,
            per_stream_rate_lines_s=rate,
            per_stream_burst_lines=5,
        ),
    )
    fw.start()
    now = fw.clock.now_ns
    for i in range(20):
        fw.publish_syslog({"tenant": "ops", "hostname": "nid001"}, now + i, f"line {i}")
    return fw


def _quorum_lost(reliable: bool) -> MonitoringFramework:
    """A 3-ingester ring with two ingesters crashed, and 4 syslog lines."""
    fw = MonitoringFramework(
        FrameworkConfig(
            enable_ingest_ring=True,
            ring_ingesters=3,
            enable_reliable_delivery=reliable,
        )
    )
    fw.start()
    fw.ring.crash_ingester("ingester-0")
    fw.ring.crash_ingester("ingester-1")
    now = fw.clock.now_ns
    for i in range(4):
        fw.publish_syslog({"app": "q", "hostname": "nid001"}, now + i, f"line {i}")
    return fw


class TestRateLimited:
    def test_at_most_once_counts_the_refused_records_failed_and_drops_them(self):
        fw = _rate_limited(reliable=False)
        fw.run_for(seconds(11))  # one pump; nothing escapes it
        pod = fw.syslog_consumer
        assert (pod.records_processed, pod.records_failed) == (5, 15)
        assert pod.lag() == 0
        fw.run_for(seconds(30))
        assert pod.records_processed == 5  # dropped, never redelivered

    def test_reliable_redelivers_past_the_poison_budget_without_quarantine(self):
        # At 0.02 lines/s the sixth line waits 50 s for a token: the one
        # blocked record is refused at five pumps, past the budget a
        # malformed record is quarantined at.
        fw = _rate_limited(reliable=True, rate=0.02)
        pod = fw.syslog_consumer
        fw.run_for(seconds(51))
        assert (pod.records_processed, pod.records_failed) == (5, 5)
        assert pod.records_failed > MAX_DELIVERY_FAILURES
        assert pod.records_quarantined == 0
        assert fw.broker.dlq_depth("shasta-syslog") == 0
        assert pod.lag() == 15
        fw.run_for(seconds(800))
        assert pod.records_processed == 20
        assert pod.lag() == 0


def _lines_read(fw: MonitoringFramework) -> Counter:
    """How often each of ``_quorum_lost``'s lines reads back."""
    streams = fw.warehouse.loki.select(
        [label_matcher("hostname", "=", "nid001")], 0, fw.clock.now_ns + 1
    )
    return Counter(
        f"line {i}"
        for _labels, entries in streams
        for entry in entries
        for i in range(4)
        if entry.line.endswith(f"line {i}")
    )


class TestQuorumLost:
    def test_at_most_once_counts_the_records_failed(self):
        fw = _quorum_lost(reliable=False)
        fw.run_for(seconds(11))
        pod = fw.syslog_consumer
        assert (pod.records_processed, pod.records_failed) == (0, 4)
        assert pod.lag() == 0

    def test_reliable_blocks_the_partition_until_the_ring_heals(self):
        fw = _quorum_lost(reliable=True)
        pod = fw.syslog_consumer
        # Two pumps, before the first rule evaluation's quorum read.
        fw.run_for(seconds(21))
        assert pod.records_processed == 0
        assert pod.records_failed == 2  # the first record, each pump
        assert pod.records_quarantined == 0
        assert pod.lag() == 4
        fw.ring.restart_ingester("ingester-0")
        fw.ring.restart_ingester("ingester-1")
        fw.run_for(seconds(10))
        assert pod.records_processed == 4
        assert pod.lag() == 0

    def test_reliable_reads_each_redelivered_line_once(self):
        # The live replica kept each refused attempt: `line 0` read twice.
        fw = _quorum_lost(reliable=True)
        fw.run_for(seconds(21))
        fw.ring.restart_ingester("ingester-0")
        fw.ring.restart_ingester("ingester-1")
        fw.run_for(seconds(10))
        assert fw.syslog_consumer.records_processed == 4
        assert _lines_read(fw) == Counter(f"line {i}" for i in range(4))

    def test_at_most_once_a_record_counted_failed_does_not_read_back(self):
        fw = _quorum_lost(reliable=False)
        fw.run_for(seconds(11))
        assert fw.syslog_consumer.records_failed == 4
        fw.ring.restart_ingester("ingester-0")
        fw.ring.restart_ingester("ingester-1")
        fw.run_for(seconds(10))
        assert _lines_read(fw) == Counter()
