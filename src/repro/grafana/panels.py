"""Dashboard panels: logs, time series, stat.

A panel's datasource is the query engine itself: Loki and
VictoriaMetrics both "support Grafana ... natively. Therefore, even though
metrics and logs are stored separately, they are unified in the stage of
visualization and alerting" (paper §III).  ``LogQLEngine`` and
``PromQLEngine`` share ``query_range``/``query_instant``; only the Loki
engine answers ``query_logs``, and a trace panel reads a
``TraceQLEngine``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.loki.logql.engine import LogQLEngine
from repro.tempo.traceql.engine import TraceQLEngine
from repro.tsdb.promql import PromQLEngine
from repro.grafana.render import (
    render_chart,
    render_log_table,
    render_stat,
    render_trace_waterfall,
)


@dataclass
class LogsPanel:
    """A log-table panel (Figures 4 and 7)."""

    title: str
    datasource: LogQLEngine
    query: str
    max_rows: int = 50

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        results = self.datasource.query_logs(self.query, start_ns, end_ns)
        return f"== {self.title} ==\n" + render_log_table(results, self.max_rows)


@dataclass
class TimeSeriesPanel:
    """An ASCII chart panel over a metric query (Figure 5)."""

    title: str
    datasource: LogQLEngine | PromQLEngine
    query: str
    width: int = 72
    height: int = 10

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        series = self.datasource.query_range(self.query, start_ns, end_ns, step_ns)
        return render_chart(
            series, self.width, self.height, title=f"== {self.title} =="
        )


@dataclass
class TopListPanel:
    """A ranked list of series at the window end (e.g. hottest nodes)."""

    title: str
    datasource: LogQLEngine | PromQLEngine
    query: str  # typically a topk(...) expression
    label: str = "xname"  # which label names each row
    unit: str = ""

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        samples = self.datasource.query_instant(self.query, end_ns)
        lines = [f"== {self.title} =="]
        if not samples:
            lines.append("(no data)")
        for rank, sample in enumerate(samples, start=1):
            name = sample.labels.get(self.label, str(sample.labels))
            lines.append(f"{rank:>2}. {name:<24} {sample.value:>10.2f}{self.unit}")
        return "\n".join(lines)


@dataclass
class TracePanel:
    """A Tempo trace view: TraceQL search, slowest hit as a waterfall."""

    title: str
    datasource: TraceQLEngine
    query: str
    width: int = 48

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        hits = [
            t
            for t in self.datasource.find_traces(self.query)
            if start_ns <= t.start_ns < end_ns
        ]
        header = f"== {self.title} =="
        if not hits:
            return f"{header}\n(no matching traces)"
        slowest = max(hits, key=lambda t: (t.duration_ns, t.trace_id))
        waterfall = render_trace_waterfall(
            self.datasource.store.trace(slowest.trace_id), self.width
        )
        return f"{header}\n{len(hits)} matching trace(s); slowest:\n{waterfall}"


@dataclass
class HeatmapPanel:
    """An ASCII heatmap: one row per series, shaded cells over time.

    Built for the SLO burn-rate view — rows are (slo, window) series of
    the recorded ``slo_burn_rate`` family — but generic over any query
    whose series are distinguished by ``row_labels``.  Cell intensity
    is the bucket mean normalized against ``scale_max`` (absolute, so a
    14.4x burn always renders hot) or, when ``scale_max`` is 0, against
    the hottest cell on the panel.
    """

    title: str
    datasource: LogQLEngine | PromQLEngine
    query: str
    row_labels: tuple[str, ...] = ("slo", "window")
    width: int = 48
    scale_max: float = 0.0
    shades: str = " .:-=+*#%@"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValidationError("heatmap width must be >= 1")
        if self.scale_max < 0:
            raise ValidationError("heatmap scale_max must be >= 0")
        if len(self.shades) < 2:
            raise ValidationError("heatmap needs at least two shades")

    def _row_name(self, labels) -> str:
        parts = [labels.get(name, "") for name in self.row_labels]
        return "/".join(p for p in parts if p) or str(labels)

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        series = self.datasource.query_range(
            self.query, start_ns, end_ns, step_ns
        )
        header = f"== {self.title} =="
        if not series or end_ns <= start_ns:
            return f"{header}\n(no data)"
        span = end_ns - start_ns
        rows: list[tuple[str, list[float]]] = []
        for s in series:
            sums = [0.0] * self.width
            counts = [0] * self.width
            for ts, value in s.points:
                col = min(
                    int((ts - start_ns) * self.width / span), self.width - 1
                )
                if col < 0:
                    continue
                sums[col] += value
                counts[col] += 1
            cells = [
                sums[i] / counts[i] if counts[i] else 0.0
                for i in range(self.width)
            ]
            rows.append((self._row_name(s.labels), cells))
        rows.sort(key=lambda r: r[0])
        top = self.scale_max or max(
            (c for _, cells in rows for c in cells), default=0.0
        )
        lines = [header]
        label_w = max(len(name) for name, _ in rows)
        for name, cells in rows:
            chars = []
            for cell in cells:
                if top <= 0:
                    idx = 0
                else:
                    frac = min(cell / top, 1.0)
                    idx = min(
                        int(frac * len(self.shades)), len(self.shades) - 1
                    )
                chars.append(self.shades[idx])
            lines.append(f"{name:<{label_w}} |{''.join(chars)}|")
        lines.append(
            f"scale: ' '=0 .. '{self.shades[-1]}'>={top:.4g}"
        )
        return "\n".join(lines)


@dataclass
class StatPanel:
    """A single-value tile evaluated at the window end."""

    title: str
    datasource: LogQLEngine | PromQLEngine
    query: str
    unit: str = ""
    reducer: str = "sum"  # sum | max | min | count over the instant vector

    def __post_init__(self) -> None:
        if self.reducer not in ("sum", "max", "min", "count"):
            raise ValidationError(f"unknown reducer {self.reducer!r}")

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        samples = self.datasource.query_instant(self.query, end_ns)
        values = [s.value for s in samples]
        if not values:
            value = 0.0
        elif self.reducer == "sum":
            value = sum(values)
        elif self.reducer == "max":
            value = max(values)
        elif self.reducer == "min":
            value = min(values)
        else:
            value = float(len(values))
        return render_stat(self.title, value, self.unit)
