"""Trace store: span ingestion, assembly by trace ID, search, eviction.

The store is Tempo's role in miniature — it accepts finished spans in any
order, groups them by trace ID, and answers "find traces/spans like X"
queries either directly (:meth:`TraceStore.search`) or through the TraceQL
engine built on top of it.

Capacity is bounded by whole traces, FIFO by first-seen order: when the
``max_traces`` limit is reached the oldest trace is dropped in full, never
individual spans (a half-evicted trace is worse than none).

Per service the store keeps every stored span's ``(duration_ns,
trace_id)`` in sorted order, updated as spans arrive and traces are
evicted, so the self-metrics read a service's count, quantiles and
slowest span without a scan.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass

from repro.tempo.model import Span


@dataclass(frozen=True)
class TraceSummary:
    """Search-result row: the root identity plus trace-level rollups."""

    trace_id: str
    root_service: str
    root_name: str
    start_ns: int
    duration_ns: int
    span_count: int


class TraceStore:
    """In-memory span storage keyed by trace ID."""

    def __init__(self) -> None:
        self.max_traces = 10_000
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()
        self._durations: dict[str, list[tuple[int, str]]] = {}
        self.spans_added = 0
        self.traces_evicted = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, span: Span) -> None:
        spans = self._traces.get(span.trace_id)
        if spans is None:
            while len(self._traces) >= self.max_traces:
                _, evicted = self._traces.popitem(last=False)
                for old in evicted:
                    durations = self._durations[old.service]
                    del durations[bisect_left(durations, (old.duration_ns, old.trace_id))]
                    if not durations:
                        del self._durations[old.service]
                self.traces_evicted += 1
            spans = self._traces[span.trace_id] = []
        spans.append(span)
        insort(
            self._durations.setdefault(span.service, []),
            (span.duration_ns, span.trace_id),
        )
        self.spans_added += 1

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces)

    @property
    def span_count(self) -> int:
        return sum(len(s) for s in self._traces.values())

    def durations_by_service(self) -> dict[str, list[tuple[int, str]]]:
        """Per service with stored spans, each span's ``(duration_ns,
        trace_id)`` in ascending order.  The lists are the store's own:
        read them, do not change them."""
        return self._durations

    def trace_ids(self) -> list[str]:
        """Trace IDs in first-seen order."""
        return list(self._traces)

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of a trace, ordered by start time (stable on ties)."""
        spans = self._traces.get(trace_id, [])
        return sorted(spans, key=lambda s: s.start_ns)

    def root(self, trace_id: str) -> Span | None:
        """The parentless span of a trace, if one has arrived."""
        for span in self._traces.get(trace_id, []):
            if span.is_root:
                return span
        return None

    def services(self, trace_id: str) -> set[str]:
        return {s.service for s in self._traces.get(trace_id, [])}

    def duration_ns(self, trace_id: str) -> int:
        """Wall span of the whole trace: max end (or start) − min start."""
        spans = self._traces.get(trace_id)
        if not spans:
            return 0
        start = min(s.start_ns for s in spans)
        end = max(s.end_ns if s.end_ns is not None else s.start_ns for s in spans)
        return end - start

    def summary(self, trace_id: str) -> TraceSummary | None:
        spans = self._traces.get(trace_id)
        if not spans:
            return None
        root = self.root(trace_id)
        first = min(spans, key=lambda s: s.start_ns)
        return TraceSummary(
            trace_id=trace_id,
            root_service=root.service if root else first.service,
            root_name=root.name if root else first.name,
            start_ns=first.start_ns,
            duration_ns=self.duration_ns(trace_id),
            span_count=len(spans),
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        service: str | None = None,
        name: str | None = None,
        min_duration_ns: int | None = None,
        attrs: dict[str, str] | None = None,
        limit: int | None = None,
    ) -> list[TraceSummary]:
        """Traces containing at least one span matching all criteria.

        Results come back in first-seen order; ``min_duration_ns`` applies
        to the matching *span*, not the whole trace (Tempo's semantics).
        """
        out: list[TraceSummary] = []
        for trace_id, spans in self._traces.items():
            if any(
                self._span_matches(s, service, name, min_duration_ns, attrs)
                for s in spans
            ):
                summary = self.summary(trace_id)
                assert summary is not None
                out.append(summary)
                if limit is not None and len(out) >= limit:
                    break
        return out

    @staticmethod
    def _span_matches(
        span: Span,
        service: str | None,
        name: str | None,
        min_duration_ns: int | None,
        attrs: dict[str, str] | None,
    ) -> bool:
        if service is not None and span.service != service:
            return False
        if name is not None and span.name != name:
            return False
        if min_duration_ns is not None and span.duration_ns < min_duration_ns:
            return False
        if attrs:
            for key, value in attrs.items():
                if span.attributes.get(key) != value:
                    return False
        return True

    def all_spans(self) -> list[Span]:
        """Every stored span, grouped by trace in first-seen order."""
        out: list[Span] = []
        for trace_id in self._traces:
            out.extend(self.trace(trace_id))
        return out
