"""repro.tempo.traceql — a TraceQL subset over the trace store.

Supports the span-filter core of Grafana Tempo's query language::

    { span.service = "loki" && duration > 5ms }
    { name =~ "push|write" || span.alertname != "" }
    { (span.service = "ruler" || span.service = "vmalert") && duration >= 30s }

Layout mirrors ``repro.loki.logql``: the lexer and token cursor LogQL and
PromQL use (:mod:`repro.common.vectorlang`) → :mod:`parser` → :mod:`ast`
nodes → :mod:`engine` evaluation.
"""

from repro.tempo.traceql.ast import (
    BinaryOp,
    DurationPredicate,
    FieldPredicate,
    PredicateExpr,
    SpanFilter,
)
from repro.tempo.traceql.engine import TraceQLEngine
from repro.tempo.traceql.parser import parse_query

__all__ = [
    "BinaryOp",
    "DurationPredicate",
    "FieldPredicate",
    "PredicateExpr",
    "SpanFilter",
    "TraceQLEngine",
    "parse_query",
]
