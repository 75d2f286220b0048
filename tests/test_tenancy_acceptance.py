"""End-to-end acceptance: multi-tenant isolation under a noisy neighbor.

The contract this file pins down (the PR's acceptance criteria):

* with multi-tenancy enabled and a ``NOISY_NEIGHBOR`` fault flooding one
  tenant, a victim tenant's queries all complete and its ingest is never
  rate-limited;
* the noisy tenant's excess pushes are rejected with typed errors and
  counted as per-tenant discards;
* ``TenantRateLimited`` fires for the noisy tenant only, and resolves
  once the flood stops;
* with the flag off, the legacy single-tenant pipeline is untouched — no
  tenant label on any stream, no tenancy components, and a bit-for-bit
  deterministic run.
"""

import pytest

from repro.cluster.faults import FaultKind
from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.tenancy.limits import TenantLimits

VICTIM_QUERY = 'sum(count_over_time({data_type="console_log"}[5m]))'
# Matches no stored stream: slot occupancy in the scheduler is modeled
# by simulated execution time, so the flood query can be cheap to
# *actually* evaluate without weakening the contention it creates.
NOISY_QUERY = 'sum(count_over_time({app="ghost-app"}[5m]))'


@pytest.fixture
def noisy_world():
    cfg = FrameworkConfig(enable_multi_tenancy=True)
    fw = MonitoringFramework(cfg)
    fw.limits.set_override(
        "noisy",
        TenantLimits(
            ingestion_rate_lines_s=500.0,
            ingestion_burst_lines=2_000,
            per_stream_rate_lines_s=500.0,
            per_stream_burst_lines=2_000,
        ),
    )
    fw.faults.schedule(
        FaultKind.NOISY_NEIGHBOR,
        "noisy",
        delay_ns=minutes(1),
        duration_ns=minutes(6),
        # 1500-line pushes against a 2000-line burst refilling at 500/s:
        # the first push lands, then accepts and rejects interleave, so
        # both the stored-stream and the discard assertions have data.
        lines_per_tick=1_500,
        queries_per_tick=2,
        query=NOISY_QUERY,
    )
    fw.start()

    victim_tickets = []
    victim_push_results = []

    def victim_activity():
        now = fw.clock.now_ns
        victim_tickets.append(
            fw.scheduler.submit(
                "victim", VICTIM_QUERY, now - minutes(30), now, minutes(1)
            )
        )
        victim_push_results.append(
            fw.warehouse.ingest_log(
                {"app": "victim-app"}, now, "victim heartbeat",
                tenant="victim",
            )
        )

    timer = fw.clock.every(seconds(30), victim_activity)
    return fw, timer, victim_tickets, victim_push_results


class TestNoisyNeighborIsolation:
    def test_victim_unharmed_noisy_throttled(self, noisy_world):
        fw, victim_timer, victim_tickets, victim_push_results = noisy_world
        fw.run_for(minutes(5))  # mid-flood

        # TenantRateLimited is firing — for the noisy tenant only.
        active = fw.alertmanager.active_alerts()
        rate_limited = [
            a for a in active if a.labels.get("alertname") == "TenantRateLimited"
        ]
        assert rate_limited, "flood should trip TenantRateLimited"
        assert {a.labels.get("tenant") for a in rate_limited} == {"noisy"}

        fw.run_for(minutes(5))  # flood over
        victim_timer.cancel()
        fw.run_for(seconds(30))  # drain the last submitted queries

        # Every victim query completed, none failed.
        assert victim_tickets
        assert all(t.done for t in victim_tickets)
        assert all(t.error is None for t in victim_tickets)

        # Every victim push was accepted; the victim was never throttled.
        assert all(n == 1 for n in victim_push_results)
        victim_counters = fw.admission.counters["victim"]
        assert victim_counters.pushes_rejected == 0
        assert victim_counters.entries_discarded == 0

        # The noisy tenant's excess was refused with typed errors and
        # every refused line shows up in the discard accounting.
        noisy_fault = fw.faults.faults_of_kind(FaultKind.NOISY_NEIGHBOR)[0]
        assert int(noisy_fault.detail["pushes_rejected"]) > 0
        noisy_counters = fw.admission.counters["noisy"]
        assert noisy_counters.pushes_rejected == int(
            noisy_fault.detail["pushes_rejected"]
        )
        assert noisy_counters.entries_discarded > 0

        # Once the producer backs off, the alert resolves on its own.
        assert not [
            a
            for a in fw.alertmanager.active_alerts()
            if a.labels.get("alertname") == "TenantRateLimited"
        ]

    def test_noisy_streams_confined_and_labeled(self, noisy_world):
        fw, _, _, _ = noisy_world
        fw.run_for(minutes(3))
        # Every stored stream carries its tenant attribution.
        streams = fw.warehouse.loki.select(
            [Matcher("app", MatchOp.EQ, "noisy-app")],
            0,
            fw.clock.now_ns,
        )
        assert streams
        for labels, _entries in streams:
            assert labels.get("tenant") == "noisy"


class TestSystemTenantUnaffected:
    def test_pipeline_runs_clean_under_default_limits(self):
        """Flag on, no overrides, no faults: the stock pipeline sails
        through admission — nothing is discarded, everything is tagged."""
        fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=True))
        fw.run_for(minutes(5))
        summary = fw.health_summary()
        assert summary["messages_ingested"] > 0
        assert summary["tenant_entries_discarded"] == 0
        assert summary["tenant_pushes_rejected"] == 0
        # The single built-in tenant owns every log stream.  (Range is
        # end-exclusive: stretch past "now" to catch entries landing on
        # the current tick.)
        streams = fw.warehouse.loki.select(
            [Matcher("tenant", MatchOp.EQ, "ops")], 0, fw.clock.now_ns * 2
        )
        assert len(streams) == int(summary["log_streams"])

    def test_tenants_dashboard_and_exporter_present(self):
        fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=True))
        fw.run_for(minutes(2))
        assert "tenants" in fw.dashboards
        assert fw.tenancy_exporter is not None
        assert "tenant_ingest_entries_total" in fw.tenancy_exporter.scrape().text()


class TestShuffleShardingEndToEnd:
    def test_tenant_streams_stay_inside_the_shard(self):
        cfg = FrameworkConfig(
            enable_multi_tenancy=True,
            enable_ingest_ring=True,
            ring_ingesters=8,
            tenant_shard_size=3,
        )
        fw = MonitoringFramework(cfg)
        now = fw.clock.now_ns
        for i in range(40):
            fw.warehouse.ingest_log(
                {"app": f"svc-{i}"}, now, "hello", tenant="alpha"
            )
        shard = set(fw.ring.sharder.shard("alpha"))
        assert len(shard) == 3
        holding = {
            ingester_id
            for ingester_id, ingester in fw.ring.ingesters.items()
            if ingester.store.stats.entries_ingested > 0
        }
        assert holding <= shard


class TestLegacyModeUntouched:
    def test_flag_off_builds_no_tenancy_components(self):
        fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=False))
        assert fw.admission is None
        assert fw.scheduler is None
        assert fw.tenancy_exporter is None
        assert fw.limits is None
        assert "tenants" not in fw.dashboards
        assert "TenantRateLimited" not in [
            r.name for r in fw.vmalert.rules()
        ]

    def test_flag_off_streams_carry_no_tenant_label(self):
        fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=False))
        fw.run_for(minutes(3))
        streams = fw.warehouse.loki.select([], 0, fw.clock.now_ns)
        assert streams
        assert all("tenant" not in labels for labels, _ in streams)
        summary = fw.health_summary()
        assert "tenants" not in summary

    def test_flag_off_is_deterministic(self):
        """Two identical legacy runs agree bit-for-bit — the tenancy
        plane being compiled in changes nothing when disabled."""
        def run():
            fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=False))
            fw.run_for(minutes(4))
            streams = fw.warehouse.loki.select([], 0, fw.clock.now_ns)
            return (
                fw.health_summary(),
                [
                    (labels.items_tuple(), tuple(e.line for e in entries))
                    for labels, entries in streams
                ],
            )

        assert run() == run()

    def test_noisy_fault_requires_the_flag(self):
        fw = MonitoringFramework(FrameworkConfig(enable_multi_tenancy=False))
        with pytest.raises(ValidationError):
            # Surfaces the misconfiguration instead of silently running
            # the flood untenanted.
            fw.faults.schedule(FaultKind.NOISY_NEIGHBOR, "noisy", delay_ns=0)
        fw.run_for(seconds(1))
