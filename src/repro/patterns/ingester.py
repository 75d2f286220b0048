"""Pattern ingester: tees the ingest stream into per-stream miners.

Loki's pattern ingester receives a copy of every push from the
distributor *before* the write path fans out; here the
:class:`~repro.omni.warehouse.OmniWarehouse` calls :meth:`observe` with
each accepted stream.  One :class:`~repro.patterns.miner.DrainMiner` is
kept per (tenant, stream) — templates never bleed across label sets or
tenants — and every mined line is recorded into the
:class:`~repro.patterns.store.PatternStore`.

The ingester is also the novelty detector: the first time a tenant
produces a given ``pattern_id`` it emits a :class:`NovelPattern` event,
flagged ``is_error`` when the seed line carries an error-class token
(token-level match, so ``error`` fires but ``terrorist`` does not).
The pattern ruler drains these events into ``NovelErrorPattern``
alerts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.patterns.miner import DrainMiner
from repro.patterns.store import PatternStore
from repro.tenancy.limits import DEFAULT_TENANT

if TYPE_CHECKING:
    from repro.common.labels import LabelSet
    from repro.common.simclock import SimClock
    from repro.loki.model import LogEntry
    from repro.tempo.tracer import Tracer

#: Tokens (normalized: lowercased, stripped of punctuation) that mark a
#: template as error-class for NovelErrorPattern purposes.
ERROR_TOKENS = frozenset(
    {
        "error",
        "err",
        "fail",
        "failed",
        "failing",
        "failure",
        "fatal",
        "panic",
        "critical",
        "crit",
        "oom",
        "offline",
        "denied",
        "timeout",
        "exception",
        "unhealthy",
    }
)

_STRIP_CHARS = ".,:;!?()[]{}<>\"'"


def is_error_line(line: str) -> bool:
    """Token-level error classification of a raw log line."""
    for token in line.split():
        if token.strip(_STRIP_CHARS).lower() in ERROR_TOKENS:
            return True
    return False


@dataclass(frozen=True)
class NovelPattern:
    """A pattern id seen for the first time within a tenant."""

    tenant: str
    pattern_id: str
    template: str
    first_seen_ns: int
    exemplar: str
    labels: "LabelSet"
    is_error: bool


class PatternIngester:
    """Per-(tenant, stream) online miners over the ingest stream."""

    def __init__(
        self,
        clock: "SimClock",
        store: PatternStore,
        tracer: "Tracer",
    ) -> None:
        self._clock = clock
        self._store = store
        self._tracer = tracer
        self._miners: dict[tuple[str, "LabelSet"], DrainMiner] = {}
        self._seen: dict[str, set[str]] = {}
        #: Append-only novelty feed; the ruler consumes it by cursor.
        self.novel_events: list[NovelPattern] = []
        self.lines_observed = 0
        self.templates_created = 0
        self.novel_error_templates = 0

    @property
    def store(self) -> PatternStore:
        return self._store

    def observe(
        self,
        labels: "LabelSet",
        entries: "Iterable[LogEntry]",
        tenant: str | None = None,
    ) -> int:
        """Mine one accepted stream push; returns lines mined."""
        tenant = tenant or labels.get("tenant", "") or DEFAULT_TENANT
        miner = self._miners.get((tenant, labels))
        if miner is None:
            miner = DrainMiner()
            self._miners[(tenant, labels)] = miner
        seen = self._seen.get(tenant)
        if seen is None:
            seen = self._seen[tenant] = set()
        mined = 0
        started_ns = self._clock.now_ns
        for entry in entries:
            result = miner.add_line(entry.line, entry.timestamp_ns)
            if result is None:
                continue
            cluster, created = result
            mined += 1
            self._store.observe(
                tenant,
                labels,
                cluster.pattern_id,
                cluster.template,
                entry.timestamp_ns,
                entry.line,
            )
            if created:
                self.templates_created += 1
            if cluster.pattern_id not in seen:
                seen.add(cluster.pattern_id)
                is_error = is_error_line(entry.line)
                if is_error:
                    self.novel_error_templates += 1
                self.novel_events.append(
                    NovelPattern(
                        tenant=tenant,
                        pattern_id=cluster.pattern_id,
                        template=cluster.template,
                        first_seen_ns=entry.timestamp_ns,
                        exemplar=entry.line,
                        labels=labels,
                        is_error=is_error,
                    )
                )
        self.lines_observed += mined
        if mined and self._tracer.sampling > 0.0:
            self._tracer.record(
                "patterns",
                "miner.observe",
                start_ns=started_ns,
                attributes={"tenant": tenant, "lines": mined},
            )
        return mined

    def compression_ratio(self) -> float:
        """Raw lines per distinct template — the triage leverage."""
        distinct = self._store.pattern_count()
        if distinct == 0:
            return 0.0
        return self.lines_observed / distinct

    @property
    def miner_count(self) -> int:
        return len(self._miners)

    def counters(self) -> dict[str, int]:
        return {
            "miners": len(self._miners),
            "lines_observed": self.lines_observed,
            "templates_created": self.templates_created,
            "novel_events": len(self.novel_events),
            "novel_error_templates": self.novel_error_templates,
        }
