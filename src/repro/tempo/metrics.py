"""Tracer self-metrics, exported into the TSDB with exemplar trace IDs.

The tracing subsystem closes the observability loop on itself: span
counts and per-stage latency quantiles land in the same VictoriaMetrics
store the rest of the stack uses, so pipeline latency is alertable and
chartable like any other metric.  Each latency sample carries an
*exemplar* — the trace ID of the slowest span behind the number — which
is how Grafana jumps from a latency chart to the trace that explains it.
"""

from __future__ import annotations

from repro.common.simclock import SimClock
from repro.tempo.store import TraceStore
from repro.tsdb.storage import Exemplar, TimeSeriesStore

SPAN_COUNT_METRIC = "tempo_spans"
TRACE_COUNT_METRIC = "tempo_traces"
LATENCY_P50_METRIC = "tempo_stage_latency_p50_seconds"
LATENCY_P99_METRIC = "tempo_stage_latency_p99_seconds"


def _nearest_rank(items: list[tuple[int, str]], quantile: float) -> int:
    """Nearest-rank percentile of a non-empty sorted ``(duration_ns,
    trace_id)`` list — exact and deterministic, no interpolation."""
    rank = max(1, -(-int(quantile * 1000) * len(items) // 1000))
    return items[min(rank, len(items)) - 1][0]


class TraceMetricsExporter:
    """Periodically snapshots the trace store into the metric store."""

    def __init__(
        self,
        store: TraceStore,
        tsdb: TimeSeriesStore,
        clock: SimClock,
        cluster: str = "perlmutter",
    ) -> None:
        self._store = store
        self._tsdb = tsdb
        self._clock = clock
        self._cluster = cluster
        self.exports = 0

    def export(self) -> int:
        """Write one snapshot; returns the number of samples ingested."""
        now = self._clock.now_ns
        base = {"cluster": self._cluster, "job": "tempo"}
        written = 0
        if self._tsdb.ingest(TRACE_COUNT_METRIC, base, float(len(self._store)), now):
            written += 1

        for service, items in sorted(self._store.durations_by_service().items()):
            labels = {**base, "service": service}
            slowest_ns, slowest_trace = items[-1]
            exemplar = Exemplar(
                trace_id=slowest_trace,
                value=slowest_ns / 1e9,
                timestamp_ns=now,
            )
            if self._tsdb.ingest(SPAN_COUNT_METRIC, labels, float(len(items)), now):
                written += 1
            if self._tsdb.ingest(
                LATENCY_P50_METRIC,
                labels,
                _nearest_rank(items, 0.50) / 1e9,
                now,
            ):
                written += 1
            if self._tsdb.ingest(
                LATENCY_P99_METRIC,
                labels,
                _nearest_rank(items, 0.99) / 1e9,
                now,
                exemplar=exemplar,
            ):
                written += 1
        self.exports += 1
        return written
