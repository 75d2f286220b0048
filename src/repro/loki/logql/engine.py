"""LogQL evaluation engine.

Evaluates parsed queries against a :class:`~repro.loki.store.LokiStore`
(or sharded cluster — anything with ``select``).  The engine implements
the paper's core conversion: log lines, filtered and parsed, become
Prometheus-style instant vectors / range series that Grafana plots and
the Ruler alerts on.

Extracted labels (from ``json`` / ``pattern`` / ``logfmt`` stages) join
the stream labels for grouping, which is exactly how the paper's Figure-5
query groups by ``severity``/``message_id`` that exist only *inside* the
log line.
"""

from __future__ import annotations

import itertools
import json
import re
from bisect import bisect_right
from typing import Callable, Iterable, Protocol, Sequence

from repro.common.errors import QueryError
from repro.common.jsonutil import flatten_json
from repro.common.labels import EMPTY_LABELS, LabelSet, Matcher, validate_label_name
from repro.common.simclock import NANOS_PER_SECOND
from repro.common.vector import Sample, Series
from repro.loki.logql.ast import (
    ArithOp,
    BinOp,
    CmpOp,
    Expr,
    GroupMode,
    LabelFilter,
    LabelFormatStage,
    LineFilter,
    LineFilterOp,
    LineFormatStage,
    LogPipeline,
    MetricExpr,
    ParserKind,
    ParserStage,
    PatternTemplate,
    RangeAgg,
    RangeFunc,
    Scalar,
    UnwrapStage,
    VectorAgg,
    VectorOp,
)
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry

#: Label attached when a parser stage fails on a line (as real Loki does).
ERROR_LABEL = "__error__"

_LINE_FORMAT_RE = re.compile(r"\{\{\s*\.([a-zA-Z_][a-zA-Z0-9_]*)\s*\}\}")


def _render_line_format(template: str, labels: dict, line: str) -> str:
    """Render the ``{{.label}}`` Go-template subset; ``{{.__line__}}``
    expands to the current line, unknown labels to the empty string."""

    def sub(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name == "__line__":
            return line
        return labels.get(name, "")

    return _LINE_FORMAT_RE.sub(sub, template)

_LOGFMT_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)=("(?:[^"\\]|\\.)*"|\S*)')


class LogSource(Protocol):
    """What the engine needs from a store (single-node or sharded)."""

    def select(
        self, matchers: Iterable[Matcher], start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]: ...


class PatternSource(Protocol):
    """What ``detected_patterns`` needs from a pattern store."""

    def query(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
    ) -> list: ...


class LogQLEngine:
    """Evaluates LogQL log and metric queries."""

    def __init__(
        self, source: LogSource, patterns: "PatternSource | None" = None
    ) -> None:
        self._source = source
        self._patterns = patterns
        self._pattern_cache: dict[str, PatternTemplate] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def detected_patterns(
        self,
        selector: str | LogPipeline,
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
    ):
        """Mined templates for streams matching a bare selector, busiest
        first (Loki's ``/loki/api/v1/detected_patterns``).

        Requires a pattern store wired in (``enable_pattern_mining``);
        the selector must carry no pipeline stages — patterns are mined
        from raw lines, so filters cannot apply.
        """
        if self._patterns is None:
            raise QueryError(
                "detected_patterns requires pattern mining "
                "(enable_pattern_mining / REPRO_PATTERNS=1)"
            )
        expr = parse(selector) if isinstance(selector, str) else selector
        if not isinstance(expr, LogPipeline) or expr.stages:
            raise QueryError("detected_patterns requires a bare stream selector")
        if end_ns <= start_ns:
            raise QueryError("detected_patterns requires start < end")
        return self._patterns.query(
            expr.matchers, start_ns, end_ns, tenant=tenant
        )

    def query_logs(
        self, query: str | LogPipeline, start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        """Run a log query; returns entries grouped by final label set,
        each group sorted by timestamp."""
        expr = parse(query) if isinstance(query, str) else query
        if not isinstance(expr, LogPipeline):
            raise QueryError("query_logs requires a log query, not a metric query")
        if expr.unwrap_label is not None:
            raise QueryError("unwrap is only valid inside a range aggregation")
        grouped = self._eval_pipeline(expr, start_ns, end_ns)
        for entries in grouped.values():
            entries.sort()
        return sorted(grouped.items(), key=lambda kv: kv[0].items_tuple())

    def query_instant(self, query: str | Expr, time_ns: int) -> list[Sample]:
        """Evaluate a metric query at one instant; returns a vector.

        The one-step case of :meth:`query_range`: same read, same
        evaluator, one grid point.
        """
        return [
            Sample(labels, points[0][1], time_ns)
            for labels, points in self._evaluate(query, (time_ns,), "instant")
        ]

    def query_range(
        self, query: str | Expr, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        """Evaluate a metric query at each step in ``[start, end]``.

        The store is read once per range aggregation, over the union of
        every step's window; each step then slices that read (see
        :class:`_RangeVector`).
        """
        if step_ns <= 0:
            raise QueryError("step must be positive")
        if end_ns < start_ns:
            raise QueryError("end before start")
        instants = range(start_ns, end_ns + 1, step_ns)
        return [
            Series(labels, tuple(points))
            for labels, points in self._evaluate(query, instants, "range")
        ]

    def _evaluate(
        self, query: str | Expr, instants: Sequence[int], kind: str
    ) -> list[tuple[LabelSet, list[tuple[int, float]]]]:
        """Points per result label set over ascending ``instants``,
        sorted by label set."""
        expr = parse(query) if isinstance(query, str) else query
        if isinstance(expr, LogPipeline):
            raise QueryError(f"{kind} query requires a metric query")
        evaluation = _Evaluation(self, expr, instants[0], instants[-1])
        series: dict[LabelSet, list[tuple[int, float]]] = {}
        for t in instants:
            for labels, value in evaluation.at(expr, t):
                points = series.get(labels)
                if points is None:
                    series[labels] = [(t, value)]
                else:
                    points.append((t, value))
        return sorted(series.items(), key=lambda kv: kv[0].items_tuple())

    # ------------------------------------------------------------------
    # Pipeline evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _line_hints(pipeline: LogPipeline) -> tuple[str, ...]:
        """CONTAINS needles that apply to the *stored* line.

        Filters appearing after a ``line_format`` stage see rewritten
        lines and cannot gate raw chunks.  The hints are purely a
        pruning aid for stores that understand them (bloom blocks);
        every filter is still re-applied here, so a store that ignores
        or over-prunes nothing changes answers.
        """
        needles = []
        for stage in pipeline.stages:
            if isinstance(stage, LineFormatStage):
                break
            if isinstance(stage, LineFilter) and stage.op is LineFilterOp.CONTAINS:
                needles.append(stage.needle)
        return tuple(needles)

    def _select(
        self, pipeline: LogPipeline, start_ns: int, end_ns: int
    ) -> list[tuple[LabelSet, list[LogEntry]]]:
        if getattr(self._source, "supports_line_hints", False):
            return self._source.select(
                pipeline.matchers,
                start_ns,
                end_ns,
                line_contains=self._line_hints(pipeline),
            )
        return self._source.select(pipeline.matchers, start_ns, end_ns)

    def _eval_pipeline(
        self, pipeline: LogPipeline, start_ns: int, end_ns: int
    ) -> dict[LabelSet, list[LogEntry]]:
        """Surviving entries per final label set, each list in the order
        ``select`` produced them (stream order, then entry order).

        Label work is per stream or per distinct label tuple, never per
        entry: stages that cannot rewrite labels keep the stream's own
        ``LabelSet``, and parser output is interned by its label tuple.
        """
        raw = self._select(pipeline, start_ns, end_ns)
        # Unwrap is the range aggregation's business, not a filter.
        stages = tuple(s for s in pipeline.stages if not isinstance(s, UnwrapStage))
        grouped: dict[LabelSet, list[LogEntry]] = {}
        if not stages:
            for stream_labels, entries in raw:
                grouped.setdefault(stream_labels, []).extend(entries)
            return grouped
        # Keyed by the flat (names..., values...) tuple of the label dict.
        interned: dict[tuple[str, ...], LabelSet] = {}
        for stream_labels, entries in raw:
            base = stream_labels.to_dict()
            for entry in entries:
                final = self._apply_stages(stages, base, entry.line)
                if final is None:
                    continue
                labels, line = final
                if labels is base:
                    final_labels = stream_labels
                else:
                    key = (*labels, *labels.values())
                    final_labels = interned.get(key)
                    if final_labels is None:
                        final_labels = interned[key] = LabelSet(labels)
                bucket = grouped.get(final_labels)
                if bucket is None:
                    bucket = grouped[final_labels] = []
                bucket.append(
                    entry if line is entry.line else LogEntry(entry.timestamp_ns, line)
                )
        return grouped

    def _apply_stages(
        self,
        stages: tuple,
        base_labels: dict[str, str],
        line: str,
    ) -> tuple[dict[str, str], str] | None:
        """Run one line through the pipeline; None means dropped.

        Returns the labels and the (possibly rewritten) line.  The
        labels are ``base_labels`` itself — never a copy — unless a
        parser or ``label_format`` stage ran.
        """
        labels = base_labels  # copied before the first write
        for stage in stages:
            if isinstance(stage, LineFilter):
                if not stage.keep(line):
                    return None
            elif isinstance(stage, ParserStage):
                if labels is base_labels:
                    labels = dict(base_labels)
                self._apply_parser(stage, labels, line)
            elif isinstance(stage, LabelFilter):
                if not stage.keep(labels):
                    return None
            elif isinstance(stage, LineFormatStage):
                line = _render_line_format(stage.template, labels, line)
            elif isinstance(stage, LabelFormatStage):
                if labels is base_labels:
                    labels = dict(base_labels)
                if stage.src in labels:
                    labels[stage.dst] = labels[stage.src]
            else:  # pragma: no cover - the parser emits no other kind
                raise QueryError(f"unknown stage {stage!r}")
        return labels, line

    def _apply_parser(
        self, stage: ParserStage, labels: dict[str, str], line: str
    ) -> None:
        if stage.kind is ParserKind.JSON:
            try:
                obj = json.loads(line)
            except (ValueError, TypeError):
                labels[ERROR_LABEL] = "JSONParserErr"
                return
            if not isinstance(obj, dict):
                labels[ERROR_LABEL] = "JSONParserErr"
                return
            for key, value in flatten_json(obj):
                self._set_extracted(labels, key, value)
        elif stage.kind is ParserKind.LOGFMT:
            for m in _LOGFMT_RE.finditer(line):
                key, value = m.group(1), m.group(2)
                if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                    value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                self._set_extracted(labels, key, value)
        elif stage.kind is ParserKind.PATTERN:
            assert stage.arg is not None
            template = self._pattern_cache.get(stage.arg)
            if template is None:
                template = PatternTemplate.compile(stage.arg)
                self._pattern_cache[stage.arg] = template
            extracted = template.match(line)
            if extracted is None:
                labels[ERROR_LABEL] = "PatternParserErr"
                return
            for key, value in extracted.items():
                self._set_extracted(labels, key, value)

    @staticmethod
    def _set_extracted(labels: dict[str, str], key: str, value: str) -> None:
        """Merge an extracted label; collisions with existing labels get the
        ``_extracted`` suffix, as in real Loki."""
        try:
            validate_label_name(key)
        except Exception:
            return  # unextractable key: skip silently (Loki drops them too)
        if key in labels and labels[key] != value:
            labels[f"{key}_extracted"] = value
        else:
            labels[key] = value

    # ------------------------------------------------------------------
    # Metric evaluation: the one read behind every step
    # ------------------------------------------------------------------
    def _range_vector(
        self, expr: RangeAgg, first_ns: int, last_ns: int
    ) -> "_RangeVector":
        """Read ``expr``'s pipeline once for every instant in
        ``[first_ns, last_ns]`` and column it per output series.

        Unwrapped aggregations drop entries whose unwrap label is
        missing or non-numeric (real Loki marks them
        ``__error__=SampleExtractionErr``) and remove the unwrap label
        from the series labels, so several pipeline groups may feed one
        series.
        """
        grouped = self._eval_pipeline(
            expr.pipeline, first_ns - expr.range_ns + 1, last_ns + 1
        )
        unwrap = expr.pipeline.unwrap_label
        sized = expr.func in (RangeFunc.BYTES_OVER_TIME, RangeFunc.BYTES_RATE)
        columns: dict[LabelSet, tuple[list[int], list]] = {}
        for labels, entries in grouped.items():
            extra: list = []
            if unwrap is not None:
                raw = labels.get(unwrap)
                if raw is None:
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    continue
                labels = labels.without(unwrap)
                extra = [value] * len(entries)
            elif sized:
                extra = [len(entry.line.encode()) for entry in entries]
            column = columns.get(labels)
            if column is None:
                column = columns[labels] = ([], [])
            column[0].extend([entry.timestamp_ns for entry in entries])
            column[1].extend(extra)
        groups = []
        for labels in sorted(columns, key=LabelSet.items_tuple):
            ts, extra = columns[labels]
            # One stream's entries arrive in time order; only a series
            # fed by several streams or groups needs the (stable) sort.
            in_order = sorted(ts)
            if in_order != ts:
                if extra:
                    order = sorted(range(len(ts)), key=ts.__getitem__)
                    extra = [extra[i] for i in order]
                ts = in_order
            if sized:
                extra = list(itertools.accumulate(extra, initial=0))
            groups.append((labels, ts, extra))
        return _RangeVector(expr, groups)


#: ``reduce(lo, hi, extra, range_seconds)`` over the window ``ts[lo:hi]``
#: of one series (never empty).  ``extra`` is the running byte total for
#: the bytes functions (``len(ts) + 1`` long, exact integers) and the
#: unwrapped values for the ``*_over_time`` family, summed in time order.
_REDUCERS: dict[RangeFunc, Callable[[int, int, list, float], float]] = {
    RangeFunc.COUNT_OVER_TIME: lambda lo, hi, extra, secs: float(hi - lo),
    RangeFunc.RATE: lambda lo, hi, extra, secs: (hi - lo) / secs,
    RangeFunc.BYTES_OVER_TIME: lambda lo, hi, extra, secs: float(
        extra[hi] - extra[lo]
    ),
    RangeFunc.BYTES_RATE: lambda lo, hi, extra, secs: (extra[hi] - extra[lo]) / secs,
    RangeFunc.SUM_OVER_TIME: lambda lo, hi, extra, secs: sum(extra[lo:hi]),
    RangeFunc.AVG_OVER_TIME: lambda lo, hi, extra, secs: (
        sum(extra[lo:hi]) / (hi - lo)
    ),
    RangeFunc.MAX_OVER_TIME: lambda lo, hi, extra, secs: max(extra[lo:hi]),
    RangeFunc.MIN_OVER_TIME: lambda lo, hi, extra, secs: min(extra[lo:hi]),
}


class _RangeVector:
    """One range aggregation, read once and sliced per step (Loki's
    range-vector iterator).

    Per output series it holds the sorted timestamps of every surviving
    entry; the window ``(t - range, t]`` of any instant is two bisects
    into them.  Series are kept in ascending label order, so the vector
    at ``t`` — and the float summation order of whatever aggregates it —
    depends on the window's content only, not on which other instants
    the same read serves.
    """

    __slots__ = ("_range_ns", "_range_seconds", "_reduce", "_groups")

    def __init__(
        self, expr: RangeAgg, groups: list[tuple[LabelSet, list[int], list]]
    ) -> None:
        self._range_ns = expr.range_ns
        self._range_seconds = expr.range_ns / NANOS_PER_SECOND
        self._reduce = _REDUCERS[expr.func]
        self._groups = groups

    def at(self, time_ns: int) -> list[tuple[LabelSet, float]]:
        reduce, secs = self._reduce, self._range_seconds
        window_start = time_ns - self._range_ns
        out = []
        for labels, ts, extra in self._groups:
            hi = bisect_right(ts, time_ns)
            lo = bisect_right(ts, window_start, 0, hi)
            if lo < hi:
                out.append((labels, reduce(lo, hi, extra, secs)))
        return out


class _Evaluation:
    """One metric query over one set of instants: each range aggregation
    in the expression is read once on construction, and ``by``/``without``
    projections are remembered per input label set."""

    def __init__(
        self, engine: LogQLEngine, expr: MetricExpr, first_ns: int, last_ns: int
    ) -> None:
        self._vectors: dict[int, _RangeVector] = {}
        self._projections: dict[int, dict[LabelSet, LabelSet]] = {}
        pending: list[MetricExpr | Scalar] = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, RangeAgg):
                self._vectors[id(node)] = engine._range_vector(
                    node, first_ns, last_ns
                )
            elif isinstance(node, VectorAgg):
                self._projections[id(node)] = {}
                pending.append(node.expr)
            elif isinstance(node, BinOp):
                pending += [node.lhs, node.rhs]

    def at(self, expr: MetricExpr | Scalar, time_ns: int) -> list[tuple[LabelSet, float]]:
        if isinstance(expr, RangeAgg):
            return self._vectors[id(expr)].at(time_ns)
        if isinstance(expr, VectorAgg):
            return self._vector_agg(expr, time_ns)
        if isinstance(expr, BinOp):
            return self._binop(expr, time_ns)
        raise QueryError(f"cannot evaluate {type(expr).__name__} as a vector")

    def _vector_agg(self, expr: VectorAgg, time_ns: int) -> list[tuple[LabelSet, float]]:
        projected = self._projections[id(expr)]
        groups: dict[LabelSet, list[float]] = {}
        for labels, value in self.at(expr.expr, time_ns):
            key = projected.get(labels)
            if key is None:
                if expr.mode is GroupMode.BY:
                    key = labels.project(expr.labels)
                elif expr.mode is GroupMode.WITHOUT:
                    key = labels.without(*expr.labels)
                else:
                    key = EMPTY_LABELS
                projected[labels] = key
            values = groups.get(key)
            if values is None:
                groups[key] = [value]
            else:
                values.append(value)
        out = []
        for labels, values in groups.items():
            if expr.op is VectorOp.SUM:
                value = sum(values)
            elif expr.op is VectorOp.MIN:
                value = min(values)
            elif expr.op is VectorOp.MAX:
                value = max(values)
            elif expr.op is VectorOp.AVG:
                value = sum(values) / len(values)
            else:  # COUNT
                value = float(len(values))
            out.append((labels, value))
        return out

    def _binop(self, expr: BinOp, time_ns: int) -> list[tuple[LabelSet, float]]:
        scalar_left = isinstance(expr.lhs, Scalar)
        scalar = expr.lhs if scalar_left else expr.rhs
        assert isinstance(scalar, Scalar)
        vector = self.at(expr.rhs if scalar_left else expr.lhs, time_ns)
        out = []
        for labels, value in vector:
            a, b = (scalar.value, value) if scalar_left else (value, scalar.value)
            if isinstance(expr.op, CmpOp):
                if expr.op.apply(a, b):
                    out.append((labels, value))  # comparison filters, keeps value
            else:
                assert isinstance(expr.op, ArithOp)
                out.append((labels, expr.op.apply(a, b)))
        return out
