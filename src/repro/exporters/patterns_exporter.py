"""Pattern-mining exporter: template mining and burst signals for vmagent.

The headline gauge is ``patterns_compression_ratio`` — raw lines per
distinct template — which quantifies the triage leverage the miner buys
(the paper's firehose problem).  ``patterns_bursts_active`` is the live
alert signal: it rises while a template floods and self-resolves with
the storm, mirroring the ``PatternBurst`` rule.  The per-template
``patterns_template_lines_total`` counter (top ten by volume, labelled
by ``pattern_id``) feeds the dashboard's busiest-templates panel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.exporters.exporter import Exporter, Reading

if TYPE_CHECKING:
    from repro.patterns.ingester import PatternIngester
    from repro.patterns.ruler import PatternRuler
    from repro.patterns.store import PatternStore

#: How many per-template series to expose; one series per template
#: would defeat the cardinality story patterns exist to fix.
TOP_TEMPLATES = 10

_MINER = (
    ("patterns_lines_mined_total", "counter",
     "Log lines consumed by the template miners."),
    ("patterns_templates", "gauge",
     "Distinct templates currently known across all blocks."),
    ("patterns_compression_ratio", "gauge",
     "Raw lines per distinct template (triage leverage)."),
    ("patterns_miners", "gauge", "Live (tenant, stream) miner instances."),
    ("patterns_template_lines_total", "counter",
     "Lines absorbed by the busiest templates."),
    ("patterns_novel_error_templates_total", "counter",
     "Never-before-seen error-class templates detected."),
    ("patterns_store_blocks", "gauge", "Pattern blocks resident in the store."),
    ("patterns_blocks_persisted_total", "counter",
     "Pattern blocks flushed to the object store."),
    ("patterns_blocks_rebuilt_total", "counter",
     "Pattern blocks re-mined from chunks by the compactor."),
)
_RULER = (
    ("patterns_bursts_active", "gauge",
     "Templates currently bursting above baseline."),
    ("patterns_bursts_detected_total", "counter",
     "Burst episodes detected (rising edges)."),
    ("patterns_novel_detections_total", "counter",
     "Novel error templates surfaced by the ruler."),
)


def _read_miner(
    ingester: "PatternIngester", store: "PatternStore"
) -> Iterator[Reading]:
    yield "patterns_lines_mined_total", ingester.lines_observed, None
    yield "patterns_templates", store.pattern_count(), None
    yield "patterns_compression_ratio", ingester.compression_ratio(), None
    yield "patterns_miners", ingester.miner_count, None
    counts = store.counts_by_pattern()
    busiest = sorted(counts.items(), key=lambda kv: (-kv[1][0], kv[0]))
    for (tenant, pattern_id), (count, _template) in busiest[:TOP_TEMPLATES]:
        labels = {"tenant": tenant, "pattern_id": pattern_id}
        yield "patterns_template_lines_total", count, labels
    novel = ingester.novel_error_templates
    yield "patterns_novel_error_templates_total", novel, None
    yield "patterns_store_blocks", store.block_count, None
    yield "patterns_blocks_persisted_total", store.blocks_persisted, None
    yield "patterns_blocks_rebuilt_total", store.blocks_built, None


def _read_ruler(ruler: "PatternRuler") -> Iterator[Reading]:
    yield "patterns_bursts_active", ruler.active_bursts, None
    yield "patterns_bursts_detected_total", ruler.bursts_detected, None
    yield "patterns_novel_detections_total", ruler.novel_detected, None


class PatternsExporter(Exporter):
    """Exports miner, store and pattern-ruler counters."""

    def __init__(
        self,
        ingester: "PatternIngester",
        store: "PatternStore",
        ruler: "PatternRuler | None" = None,
    ) -> None:
        super().__init__(
            (_MINER, _read_miner, ingester, store),
            (_RULER, _read_ruler, ruler),
        )
