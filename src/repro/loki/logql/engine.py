"""LogQL evaluation engine.

Evaluates parsed queries against any log store — a
:class:`~repro.loki.store.LokiStore`, the ring, the tiered store — through
the one ``select_columns`` they share (DESIGN §3).  The engine implements
the paper's core conversion: log lines, filtered and parsed, become
Prometheus-style instant vectors / range series that Grafana plots and
the Ruler alerts on.

Extracted labels (from ``json`` / ``pattern`` / ``logfmt`` stages) join
the stream labels for grouping, which is exactly how the paper's Figure-5
query groups by ``severity``/``message_id`` that exist only *inside* the
log line.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import replace
from functools import reduce
from operator import add, itemgetter
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.common.jsonutil import flatten_json
from repro.common.labels import LabelSet, Matcher, MatchOp
from repro.common.simclock import NANOS_PER_SECOND
from repro.common.vector import (
    Evaluation,
    Sample,
    Series,
    Vector,
    instant_grid,
    range_grid,
)
from repro.common.vectorlang import GroupMode, VectorAgg, VectorOp
from repro.loki.logql.ast import (
    UNWRAPPED_FUNCS,
    Expr,
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
    UnwrapStage,
)
from repro.loki.logql.parser import parse
from repro.loki.model import LogEntry

#: Label attached when a parser stage fails on a line (as real Loki does).
ERROR_LABEL = "__error__"

_JSON = ParserStage(ParserKind.JSON)

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
    """What the engine needs from a store: the one log-store read,
    entries and their timestamp column per stream."""

    def select_columns(
        self,
        matchers: Iterable[Matcher],
        start_ns: int,
        end_ns: int,
        shard: tuple[int, int] | None = None,
        line_contains: Sequence[str] = (),
    ) -> list[tuple[LabelSet, list[LogEntry], array]]: ...


#: A pipeline's surviving entries under one final label set, and their
#: timestamps in the same order.
Bucket = tuple[list[LogEntry], array]


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
    """Evaluates LogQL log and metric queries.

    ``shard=(i, n)`` restricts every read to the streams of shard ``i`` of
    ``n`` — one queryx subquery's slice; shards partition streams, so the
    union of all ``n`` engines' answers is the unsharded one.
    """

    #: Compiled pipelines kept; past it the table starts over.
    MAX_COMPILED = 1 << 10

    def __init__(
        self,
        source: LogSource,
        patterns: "PatternSource | None" = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        self._source = source
        self._patterns = patterns
        self._shard = shard
        self._pattern_cache: dict[str, PatternTemplate] = {}
        self._compiled: dict[LogPipeline, tuple] = {}

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
        out = []
        for labels, (entries, _ts) in grouped.items():
            entries.sort()
            out.append((labels, entries))
        return sorted(out, key=lambda kv: kv[0].items_tuple())

    def query_instant(self, query: str | Expr, time_ns: int) -> list[Sample]:
        """Evaluate a metric query at one instant; returns a vector.

        The one-step case of :meth:`query_range`: same read, same
        evaluator, one grid point.
        """
        return self.instant(time_ns).samples(self._metric_expr(query, "instant"))

    def instant(self, time_ns: int) -> Evaluation:
        """One evaluation at one instant for any number of metric
        expressions (a rule group): ``.samples(expr)`` of each, whatever
        they have in common run once."""
        return _Evaluation(self, instant_grid(time_ns))

    def query_range(
        self, query: str | Expr, start_ns: int, end_ns: int, step_ns: int
    ) -> list[Series]:
        """Evaluate a metric query at each step in ``[start, end]``.

        The store is read once per distinct range aggregation, over the
        union of every step's window (see :class:`_Evaluation`).
        """
        steps = range_grid(start_ns, end_ns, step_ns)
        return _Evaluation(self, steps).series(self._metric_expr(query, "range"))

    @staticmethod
    def _metric_expr(query: str | Expr, kind: str) -> MetricExpr:
        expr = parse(query) if isinstance(query, str) else query
        if isinstance(expr, LogPipeline):
            raise QueryError(f"{kind} query requires a metric query")
        return expr

    # ------------------------------------------------------------------
    # Pipeline evaluation
    # ------------------------------------------------------------------
    def _compile(self, pipeline: LogPipeline) -> tuple:
        """``(prefix, stages, contains, needles)`` of ``pipeline``, worked
        out once (DESIGN §3, "compiled pipeline").  ``prefix`` is the
        leading run of line filters, applied a stream at a time;
        ``stages`` are the rest, run line by line, less ``unwrap``, the
        range aggregation's business.  ``contains`` are the ``|=``
        needles of the *stored* line — filters after ``line_format`` see
        rewritten lines — each once: a per-leaf pruning aid for stores with
        blooms, so in ``errors / total`` the ``total`` read is never gated
        by the ``errors`` filter; every filter is still re-applied here, so
        a store that ignores them changes no answer.  ``needles`` are the
        byte prefilter's ``(label, value)`` pairs."""
        if pipeline not in self._compiled:
            if len(self._compiled) >= self.MAX_COMPILED:
                self._compiled.clear()
            stages = tuple(s for s in pipeline.stages if not isinstance(s, UnwrapStage))
            lead = 0
            while lead < len(stages) and isinstance(stages[lead], LineFilter):
                lead += 1
            contains, needles, plain = [], [], True
            for stage in stages:
                if isinstance(stage, LineFormatStage):
                    break
                if isinstance(stage, LineFilter):
                    if stage.op is LineFilterOp.CONTAINS:
                        contains.append(stage.needle)
                elif isinstance(stage, LabelFilter):
                    m = stage.matcher
                    if plain and m and m.op is MatchOp.EQ and m.value and m.name != ERROR_LABEL:
                        try:
                            float(m.value)
                        except ValueError:
                            needles.append((m.name, m.value))
                elif stage != _JSON:
                    plain = False
            self._compiled[pipeline] = (
                stages[:lead],
                stages[lead:],
                tuple(dict.fromkeys(contains)),
                tuple(dict.fromkeys(needles)),
            )
        return self._compiled[pipeline]

    def _eval_pipeline(
        self, pipeline: LogPipeline, start_ns: int, end_ns: int,
        wanted: frozenset[str] | None = None,
    ) -> dict[LabelSet, Bucket]:
        """Surviving entries per final label set, each list in the order
        ``select_columns`` produced them (stream order, then entry
        order; label order for an unwrapped leaf), with their timestamp
        column.

        A stream's list goes through the line-filter prefix and the byte
        prefilter one comprehension at a time; only the entries left run
        the other stages.  A stream's column passes through untouched
        while no entry is dropped; survivors build their own.  Label work
        is per stream or per distinct label tuple, never per entry:
        stages that cannot rewrite labels keep the stream's own
        ``LabelSet``, and parser output is interned by its label tuple.
        ``wanted`` (``None`` = all) is a parser hint (:func:`_sum_hint`).
        """
        prefix, stages, contains, needles = self._compile(pipeline)
        raw = self._source.select_columns(
            pipeline.matchers, start_ns, end_ns, shard=self._shard, line_contains=contains
        )
        if pipeline.unwrap_label is not None:
            # An unwrapped sum adds floats in stream order, and no store
            # orders its streams: read them in label order on every backend.
            raw = sorted(raw, key=lambda triple: triple[0].items_tuple())
        if prefix:
            kept = []
            for stream_labels, entries, ts in raw:
                for stage in prefix:
                    entries = stage.kept(entries)
                if not entries:  # a stream left without entries stays absent
                    continue
                if len(entries) < len(ts):
                    ts = array("q", [entry.timestamp_ns for entry in entries])
                kept.append((stream_labels, entries, ts))
            raw = kept
        grouped: dict[LabelSet, Bucket] = {}
        if not stages:
            for stream_labels, entries, ts in raw:
                bucket = grouped.get(stream_labels)
                if bucket is None:
                    grouped[stream_labels] = (entries, ts)  # fresh: the read contract
                else:
                    bucket[0].extend(entries)
                    bucket[1].extend(ts)
            return grouped
        # Keyed by the flat (names..., values...) tuple of the label dict.
        interned: dict[tuple[str, ...], LabelSet] = {}
        for stream_labels, entries, _ts in raw:
            base = stream_labels.to_dict()
            for value in [value for name, value in needles if name not in base]:
                # A line with an escape in it may spell the value otherwise.
                entries = [e for e in entries if value in (text := e.line) or "\\" in text]
            for entry in entries:
                final = self._apply_stages(stages, base, entry.line, wanted)
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
                    bucket = grouped[final_labels] = ([], array("q"))
                bucket[0].append(
                    entry if line is entry.line else LogEntry(entry.timestamp_ns, line)
                )
                bucket[1].append(entry.timestamp_ns)
        return grouped

    def _apply_stages(
        self,
        stages: tuple,
        base_labels: dict[str, str],
        line: str,
        wanted: frozenset[str] | None = None,
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
                self._apply_parser(stage, labels, line, wanted)
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
        self, stage: ParserStage, labels: dict[str, str], line: str, wanted: frozenset[str] | None
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
            for key, value in flatten_json(obj, wanted):
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
        ``_extracted`` suffix, as in real Loki.  Every parser's keys are
        legal label names: sanitised JSON keys, ``_LOGFMT_RE``'s group and
        the captures ``PatternTemplate.compile`` checks."""
        if key in labels and labels[key] != value:
            labels[f"{key}_extracted"] = value
        else:
            labels[key] = value


def _added(values: list[float]) -> float:
    """``values`` added left to right, one IEEE addition at a time — the
    built-in ``sum`` compensates on Python 3.12 and so would not."""
    return reduce(add, values, 0.0)


#: How an unwrapped aggregation reduces one window's values, given in
#: (timestamp, arrival) order, applied window by window, so a float sum
#: is that window's numbers added left to right whatever the grid — a
#: running total differenced per window is not.
_UNWRAPPED_REDUCERS = {
    RangeFunc.SUM_OVER_TIME: _added,
    RangeFunc.AVG_OVER_TIME: lambda values: _added(values) / len(values),
    RangeFunc.MAX_OVER_TIME: max,
    RangeFunc.MIN_OVER_TIME: min,
}


def _sum_hint(expr: VectorAgg) -> frozenset[str] | None:
    """The labels ``json`` must extract under ``sum [by (…)]`` of a
    ``count_over_time``/``bytes_over_time`` of line filters, one ``json``
    and label filters (DESIGN §3, "compiled pipeline"); None (all) under
    any other shape.  They are the ``by`` and label-filter names, closed
    under stripping ``_extracted``: ``k`` decides where ``k``'s value goes."""
    agg = expr.expr
    if (expr.op is not VectorOp.SUM or expr.mode is GroupMode.WITHOUT
            or not isinstance(agg, RangeAgg)
            or agg.func not in (RangeFunc.COUNT_OVER_TIME, RangeFunc.BYTES_OVER_TIME)
            or [s for s in agg.pipeline.stages if not isinstance(s, (LineFilter, LabelFilter))]
            != [_JSON]):
        return None
    filters = (s for s in agg.pipeline.stages if isinstance(s, LabelFilter))
    wanted = set()
    for name in (*expr.labels, *(f.name or f.matcher.name for f in filters)):
        wanted.add(name)
        while name.endswith("_extracted"):
            name = name[: -len("_extracted")]
            wanted.add(name)
    return frozenset(wanted)


class _Evaluation(Evaluation):
    """LogQL's leaf over one grid of steps: a range aggregation runs its
    pipeline once, over the union of the windows ``(t - range, t]`` of
    every step ``t`` (Loki's range-vector iterator, for all steps at
    once).  One row per output series in ascending label order — what a
    leaf owes the operators above it — present where the window holds an
    entry."""

    def __init__(self, engine: LogQLEngine, steps: np.ndarray) -> None:
        super().__init__(steps)
        self._engine = engine

    def leaf(self, expr: MetricExpr | tuple) -> Vector:
        wanted = None
        if isinstance(expr, tuple):  # (RangeAgg, wanted): see `_aggregate`
            expr, wanted = expr
        if not isinstance(expr, RangeAgg):
            raise QueryError(f"cannot evaluate {type(expr).__name__} as a vector")
        grouped = self._engine._eval_pipeline(
            expr.pipeline,
            int(self.steps[0]) - expr.range_ns + 1,
            int(self.steps[-1]) + 1,
            wanted,
        )
        if expr.func in UNWRAPPED_FUNCS:
            return self._unwrapped(expr, grouped)
        return self._counted(expr, grouped)

    def _aggregate(self, expr: VectorAgg) -> Vector:
        # A hinted leaf is its own node in the table, apart from the same
        # RangeAgg read whole: a rule group may read both.
        wanted = _sum_hint(expr)
        if wanted is not None:
            expr = replace(expr, expr=(expr.expr, wanted))
        return super()._aggregate(expr)

    def _counted(self, expr: RangeAgg, grouped: dict[LabelSet, Bucket]) -> Vector:
        """``count_over_time``/``rate``/``bytes_*``: every entry is added
        to the steps whose window it is in — from the first step at or
        after it up to the first a whole range after it — for all series
        at once, as a difference array summed along the steps.  Entry
        order does not matter: counts and byte totals are exact integers.
        The series' timestamp columns are laid end to end and read as one
        array; no entry is visited for a count."""
        series = sorted(grouped.items(), key=lambda kv: kv[0].items_tuple())
        if not series:
            return Vector([], *self._empty())
        steps, width = self.steps, len(self.steps) + 1
        column = array("q")
        for _labels, (_entries, stamps) in series:
            column += stamps
        ts = np.frombuffer(column, dtype=np.int64)
        row_start = np.repeat(
            np.arange(len(series)) * width,
            [len(stamps) for _labels, (_entries, stamps) in series],
        )
        enters = row_start + steps.searchsorted(ts, "left")
        leaves = row_start + steps.searchsorted(ts + expr.range_ns, "left")

        def over_windows(weights: np.ndarray | None) -> np.ndarray:
            cells = len(series) * width
            change = np.bincount(enters, weights, cells) - np.bincount(
                leaves, weights, cells
            )
            return change.reshape(len(series), width)[:, :-1].cumsum(axis=1)

        count = over_windows(None)
        values = count
        if expr.func in (RangeFunc.BYTES_OVER_TIME, RangeFunc.BYTES_RATE):
            line_bytes = [
                len(entry.line.encode())
                for _labels, (entries, _stamps) in series
                for entry in entries
            ]
            values = over_windows(np.array(line_bytes, dtype=np.float64))
        if expr.func in (RangeFunc.RATE, RangeFunc.BYTES_RATE):
            values = values / (expr.range_ns / NANOS_PER_SECOND)
        return Vector(
            [labels for labels, _bucket in series],
            values.astype(np.float64, copy=False),
            count > 0,
        )

    def _unwrapped(self, expr: RangeAgg, grouped: dict[LabelSet, Bucket]) -> Vector:
        """``sum/avg/min/max_over_time`` of an unwrapped label.  Entries
        whose unwrap label is missing or non-numeric are dropped (real
        Loki marks them ``__error__=SampleExtractionErr``) and the unwrap
        label leaves the series labels, so several pipeline groups may
        feed one series."""
        unwrap = expr.pipeline.unwrap_label
        columns: dict[LabelSet, list[tuple[int, float]]] = {}
        for labels, (_entries, stamps) in grouped.items():
            try:
                value = float(labels[unwrap])
            except (KeyError, ValueError):
                continue
            columns.setdefault(labels.without(unwrap), []).extend(
                (t, value) for t in stamps
            )
        in_order = sorted(columns, key=LabelSet.items_tuple)
        reducer = _UNWRAPPED_REDUCERS[expr.func]
        values, present = self._empty(len(in_order))
        for row, labels in enumerate(in_order):
            # Stable, so equal timestamps keep their arrival order.
            column = sorted(columns[labels], key=itemgetter(0))
            ts = np.array([t for t, _value in column], dtype=np.int64)
            samples = [value for _t, value in column]
            end = ts.searchsorted(self.steps, "right")
            first = ts.searchsorted(self.steps - expr.range_ns, "right")
            present[row] = first < end
            for step in np.flatnonzero(present[row]).tolist():
                values[row, step] = reducer(samples[first[step] : end[step]])
        return Vector(in_order, values, present)
