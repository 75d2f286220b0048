"""The sharded query engine as a framework plane (DESIGN §12, §16):
everything ``enable_query_engine`` wires beside the LogQL engine."""

from __future__ import annotations

from repro.alerting.rules import RuleSpec
from repro.cluster.faults import FaultKind
from repro.core.plane import Plane
from repro.exporters.queryx_exporter import QueryxExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.queryx.bloom import BloomStore
from repro.queryx.engine import ShardedQueryEngine
from repro.queryx.executor import QuerierPool
from repro.queryx.planner import QueryPlanner


def register_faults(injector, pool):
    """A querier worker dies holding its subqueries (each is retried on a
    live peer), or drags as a straggler with multiplied execution costs;
    targets are worker ids ("querier-0", ...)."""

    def crash(fault):
        worker, detail = fault.target, fault.detail
        pool.set_crashed(worker, True)
        # Ground truth: retries before the crash, so chaos tests can
        # count the retries this fault alone caused.
        start = detail["retries_at_start"] = pool.retries_total

        def end():
            pool.set_crashed(worker, False)
            detail["retries_at_end"] = pool.retries_total
            detail["retries_during"] = pool.retries_total - start

        return end

    def slow(fault):
        pool.set_slow(fault.target, float(fault.detail.get("factor", 10.0)))
        return lambda: pool.set_slow(fault.target, 1.0)

    injector.register(FaultKind.QUERIER_CRASH, crash)
    injector.register(FaultKind.SLOW_QUERIER, slow)


class QueryxPlane(Plane):
    name = "queryx"
    flag = "enable_query_engine"
    components = ("blooms", "queryx", "queryx_exporter")
    scrape_targets = (("queryx", "queryx-exporter:9106", "queryx_exporter"),)

    def build_stores(self, fw):
        # The engine reads the log backend directly, so it can be built
        # before the warehouse — and has to be: tenancy, earlier in the
        # plane order, asks for the frontend over it in build_alerting.
        cfg = fw.config
        cold_latency_fn = None
        if fw.objstore is not None:
            # Bloom blocks ride the same bucket as the chunks; the
            # compactor builds them, the gateway consults them.
            fw.blooms = BloomStore(fw.objstore)
            fw.compactor.derived += (fw.blooms,)
            gateway = fw.store_gateway
            gateway.blooms = fw.blooms

            def cold_latency_fn() -> int:
                # Charges each subquery with the cold object-store
                # latency it actually incurred (delta of this counter).
                return gateway.fetch_latency_ns_total

        fw.queryx = ShardedQueryEngine(
            fw.log_backend,
            fw.clock,
            planner=QueryPlanner(split_ns=cfg.queryx_split_interval_ns),
            pool=QuerierPool(),
            tracer=fw.tracer,
            cold_latency_fn=cold_latency_fn,
        )
        fw.queryx_exporter = QueryxExporter(
            fw.queryx,
            gateway=fw.store_gateway,
            blooms=fw.blooms,
        )
        register_faults(fw.faults, fw.queryx.pool)

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="SlowQueries",
                # The exporter gauge is a since-last-scrape delta, so
                # it self-resolves on the next quiet scrape; no
                # sustain window — one slow refresh is worth knowing.
                expr="queryx_slow_queries_recent > 0",
                for_="0s",
                labels={"severity": "warning", "category": "query"},
                annotations={
                    "summary": "{{ $value }} queries exceeded the "
                    "slow-query threshold since the last scrape"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (StatPanel, "Realized speedup (serial / wall)", "queryx_speedup", {"unit": "x"}),
            (
                TimeSeriesPanel,
                "Last query latency: wall vs serial",
                "queryx_last_query_seconds",
            ),
            (
                TopListPanel,
                "Worker busy time (stragglers stand out)",
                "topk(16, queryx_worker_busy_seconds)",
                {"label": "worker"},
            ),
            (
                TimeSeriesPanel,
                "Subquery retries (querier crashes)",
                "queryx_subquery_retries_total",
            ),
            (
                TimeSeriesPanel,
                "Slow queries since last scrape (alert signal)",
                "queryx_slow_queries_recent",
            ),
        ]
        if fw.blooms is not None:
            rows += [
                (StatPanel, "Bloom skip ratio", "queryx_bloom_skip_ratio"),
                (
                    TimeSeriesPanel,
                    "Cold chunks considered / fetched / skipped",
                    "queryx_gateway_chunks_total",
                ),
            ]
        return [("queryx", "Query Engine", rows)]

    def health(self, fw):
        stats = fw.queryx.stats()
        summary = {
            "queryx_queries": float(stats["queries_total"]),
            "queryx_subqueries": float(stats["subqueries_total"]),
            "queryx_slow_queries": float(stats["slow_queries_total"]),
            "queryx_retries": float(stats["pool_retries_total"]),
            "queryx_speedup": float(stats["speedup"]),
        }
        if fw.blooms is not None:
            summary["queryx_bloom_blocks"] = float(fw.blooms.counters()["blocks"])
            summary["queryx_chunks_skipped"] = float(
                fw.store_gateway.chunks_skipped_total
            )
        return summary
