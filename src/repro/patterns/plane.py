"""Online template mining as a framework plane (DESIGN §14, §16):
everything ``enable_pattern_mining`` wires from ingest tee to alert."""

from __future__ import annotations

from repro.alerting.alertmanager import Route
from repro.alerting.rules import RuleSpec
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import Job, seconds
from repro.core.plane import Plane
from repro.exporters.patterns_exporter import PatternsExporter
from repro.grafana.panels import StatPanel, TimeSeriesPanel, TopListPanel
from repro.patterns.ingester import PatternIngester
from repro.patterns.ruler import BURST_EXPR, NOVEL_EXPR, PatternRuler
from repro.patterns.store import PatternStore


#: Cold-start corpus bootstrap: templates first sighted within this
#: window of startup are not "novel" — an empty template store makes
#: every early line never-before-seen.
NOVEL_BOOTSTRAP_NS = seconds(90)
#: The pattern ruler's cadence, which also bounds its alert latency.
RULER_INTERVAL_NS = seconds(30)


class PatternsPlane(Plane):
    name = "patterns"
    flag = "enable_pattern_mining"
    components = (
        "pattern_store", "pattern_ingester", "pattern_ruler", "patterns_exporter",
    )
    scrape_targets = (("patterns", "patterns-exporter:9108", "patterns_exporter"),)

    def build_stores(self, fw):
        # With object storage on, pattern blocks persist beside the
        # chunks; without, the store is memory-resident.
        fw.pattern_store = PatternStore(fw.objstore, tracer=fw.tracer)
        fw.pattern_ingester = PatternIngester(
            fw.clock, fw.pattern_store, tracer=fw.tracer
        )
        if fw.objstore is not None:
            fw.compactor.derived += (fw.pattern_store,)

    def build_alerting(self, fw):
        cfg = fw.config
        fw.pattern_ruler = PatternRuler(
            fw.clock,
            fw.notifier("pattern-ruler"),
            fw.pattern_ingester,
            fw.pattern_store,
            cluster=cfg.cluster_name,
            novel_bootstrap_ns=NOVEL_BOOTSTRAP_NS,
            tracer=fw.tracer,
        )
        fw.patterns_exporter = PatternsExporter(
            fw.pattern_ingester, fw.pattern_store, fw.pattern_ruler
        )

    def routes(self, fw):
        # Storm suppression: pattern alerts group on pattern_id, so
        # a storm of thousands of identical lines — across streams
        # and ingesters — collapses into ONE aggregation group and
        # one notification per group_wait/group_interval window.
        return [
            Route(
                "slack",
                matchers=(Matcher("category", MatchOp.EQ, "patterns"),),
                group_by=("alertname", "pattern_id", "cluster"),
            )
        ]

    def install_rules(self, fw):
        # Pattern rules live on the *pattern* ruler, whose _instant
        # reads the miner directly instead of PromQL.  Both fire
        # immediately (for_="0s"): a burst sample only exists while
        # the rate genuinely exceeds the baseline, and a novel error
        # template is by definition a one-time rising edge.
        fw.pattern_ruler.add_rule(
            RuleSpec(
                name="PatternBurst",
                expr=BURST_EXPR,
                for_="0s",
                labels={"severity": "warning", "category": "patterns"},
                annotations={
                    "summary": "Template '{{ $labels.pattern }}' is "
                    "bursting at {{ $value }} lines/s over its "
                    "baseline — storm grouped by pattern_id"
                },
            )
        )
        fw.pattern_ruler.add_rule(
            RuleSpec(
                name="NovelErrorPattern",
                expr=NOVEL_EXPR,
                for_="0s",
                labels={"severity": "critical", "category": "patterns"},
                annotations={
                    "summary": "Never-before-seen error template "
                    "'{{ $labels.pattern }}' appeared"
                },
            )
        )

    def dashboards(self, fw):
        rows = [
            (StatPanel, "Distinct templates", "patterns_templates"),
            (
                StatPanel,
                "Compression ratio (lines per template)",
                "patterns_compression_ratio",
                {"unit": "x"},
            ),
            (TimeSeriesPanel, "Lines mined", "patterns_lines_mined_total"),
            (
                TopListPanel,
                "Busiest templates",
                "topk(10, patterns_template_lines_total)",
                {"label": "pattern_id"},
            ),
            (TimeSeriesPanel, "Active bursts (alert signal)", "patterns_bursts_active"),
            (StatPanel, "Novel error templates", "patterns_novel_error_templates_total"),
        ]
        return [("patterns", "Log Patterns", rows)]

    def jobs(self, fw):
        jobs = [Job("patterns.eval", RULER_INTERVAL_NS, fw.pattern_ruler.evaluate_all)]
        if fw.objstore is not None:
            # Live pattern blocks ship on the chunk-flush cadence.
            flush_ns = fw.config.objstore_flush_interval_ns
            jobs.append(Job("patterns.persist", flush_ns, fw.pattern_store.persist_dirty))
        return jobs

    def health(self, fw):
        return {
            "patterns_distinct_templates": float(fw.pattern_store.pattern_count()),
            "patterns_lines_mined": float(fw.pattern_ingester.lines_observed),
            "patterns_compression_ratio": fw.pattern_ingester.compression_ratio(),
            "patterns_bursts_detected": float(fw.pattern_ruler.bursts_detected),
            "patterns_novel_errors": float(fw.pattern_ruler.novel_detected),
        }
