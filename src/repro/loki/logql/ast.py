"""LogQL abstract syntax tree: what is LogQL's own.

Two expression families share the tree:

* **log queries** evaluate to filtered log lines (:class:`LogPipeline`);
* **metric queries** evaluate to instant vectors.  Their one leaf is
  :class:`RangeAgg`, a range aggregation over a log pipeline; every node
  above it is the vector language shared with PromQL
  (:mod:`repro.common.vectorlang`).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.common.errors import QueryError, ValidationError
from repro.common.labels import Matcher
from repro.common.vectorlang import BinOp, CmpOp, SetExpr, TopK, VectorAgg, node

if TYPE_CHECKING:
    from repro.loki.model import LogEntry


class LineFilterOp(enum.Enum):
    CONTAINS = "|="
    NOT_CONTAINS = "!="
    MATCHES = "|~"
    NOT_MATCHES = "!~"


@dataclass(frozen=True)
class LineFilter:
    """A content filter stage (``|= "needle"`` and friends)."""

    op: LineFilterOp
    needle: str

    def __post_init__(self) -> None:
        if self.op in (LineFilterOp.MATCHES, LineFilterOp.NOT_MATCHES):
            try:
                object.__setattr__(self, "_regex", re.compile(self.needle))
            except re.error as exc:
                raise QueryError(f"bad line-filter regex: {exc}") from exc

    def keep(self, line: str) -> bool:
        if self.op is LineFilterOp.CONTAINS:
            return self.needle in line
        if self.op is LineFilterOp.NOT_CONTAINS:
            return self.needle not in line
        hit = self._regex.search(line) is not None  # type: ignore[attr-defined]
        return hit if self.op is LineFilterOp.MATCHES else not hit

    def kept(self, entries: list[LogEntry]) -> list[LogEntry]:
        """The entries whose lines :meth:`keep` keeps, in order, as a new
        list: one pass over a stream, not one call per line."""
        needle = self.needle
        if self.op is LineFilterOp.CONTAINS:
            return [e for e in entries if needle in e.line]
        if self.op is LineFilterOp.NOT_CONTAINS:
            return [e for e in entries if needle not in e.line]
        search = self._regex.search  # type: ignore[attr-defined]
        if self.op is LineFilterOp.MATCHES:
            return [e for e in entries if search(e.line)]
        return [e for e in entries if not search(e.line)]


class ParserKind(enum.Enum):
    JSON = "json"
    LOGFMT = "logfmt"
    PATTERN = "pattern"


@dataclass(frozen=True)
class ParserStage:
    """A label-extraction stage (``| json``, ``| pattern "..."``)."""

    kind: ParserKind
    arg: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ParserKind.PATTERN and not self.arg:
            raise QueryError("pattern parser requires a template argument")


@dataclass(frozen=True)
class LabelFilter:
    """A post-parser filter on (stream + extracted) labels.

    Either a string matcher (``severity="Warning"``) or a numeric
    comparison (``value > 10``) — picked by whether ``number`` is set.
    """

    matcher: Matcher | None = None
    name: str | None = None
    cmp: CmpOp | None = None
    number: float | None = None

    def __post_init__(self) -> None:
        string_form = self.matcher is not None
        numeric_form = (
            self.name is not None and self.cmp is not None and self.number is not None
        )
        if string_form == numeric_form:
            raise ValidationError("label filter must be string XOR numeric")

    def keep(self, labels: dict[str, str]) -> bool:
        if self.matcher is not None:
            return self.matcher.matches(labels)
        value = labels.get(self.name or "")
        if value is None:
            return False
        try:
            num = float(value)
        except ValueError:
            return False
        assert self.cmp is not None and self.number is not None
        return self.cmp.apply(num, self.number)


@dataclass(frozen=True)
class LineFormatStage:
    """``| line_format "{{.severity}}: {{.msg}}"`` — rewrite the line from
    a Go-template subset (``{{.label}}`` substitutions; ``{{.__line__}}``
    inserts the current line)."""

    template: str

    def __post_init__(self) -> None:
        if not self.template:
            raise QueryError("line_format needs a template")


@dataclass(frozen=True)
class LabelFormatStage:
    """``| label_format dst=src`` — rename/copy a label (dst gets src's
    value; src is kept, as in real Loki)."""

    dst: str
    src: str

    def __post_init__(self) -> None:
        if not self.dst or not self.src:
            raise QueryError("label_format needs dst=src")


@dataclass(frozen=True)
class UnwrapStage:
    """``| unwrap latency_ms`` — promote a label to the sample value.

    Must be the last pipeline stage; enables the unwrapped range
    aggregations (``sum_over_time``, ``avg_over_time``, ...).  The
    unwrapped label is removed from the result labels, as in real Loki.
    """

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise QueryError("unwrap needs a label name")


PipelineStage = Union[
    LineFilter,
    ParserStage,
    LabelFilter,
    UnwrapStage,
    LineFormatStage,
    LabelFormatStage,
]


@node
class LogPipeline:
    """A stream selector plus its ordered pipeline stages."""

    matchers: tuple[Matcher, ...]
    stages: tuple[PipelineStage, ...] = ()

    def __post_init__(self) -> None:
        if not self.matchers:
            raise QueryError("selector needs at least one matcher")
        unwraps = [i for i, s in enumerate(self.stages)
                   if isinstance(s, UnwrapStage)]
        if len(unwraps) > 1:
            raise QueryError("at most one unwrap stage is allowed")
        if unwraps and unwraps[0] != len(self.stages) - 1:
            raise QueryError("unwrap must be the final pipeline stage")

    @property
    def unwrap_label(self) -> str | None:
        if self.stages and isinstance(self.stages[-1], UnwrapStage):
            return self.stages[-1].label
        return None


class RangeFunc(enum.Enum):
    COUNT_OVER_TIME = "count_over_time"
    RATE = "rate"
    BYTES_OVER_TIME = "bytes_over_time"
    BYTES_RATE = "bytes_rate"
    # Unwrapped aggregations (require `| unwrap <label>` in the pipeline):
    SUM_OVER_TIME = "sum_over_time"
    AVG_OVER_TIME = "avg_over_time"
    MAX_OVER_TIME = "max_over_time"
    MIN_OVER_TIME = "min_over_time"


#: Range functions operating on unwrapped numeric sample values.
UNWRAPPED_FUNCS = frozenset(
    {
        RangeFunc.SUM_OVER_TIME,
        RangeFunc.AVG_OVER_TIME,
        RangeFunc.MAX_OVER_TIME,
        RangeFunc.MIN_OVER_TIME,
    }
)


@node
class RangeAgg:
    """``count_over_time({...} |= "x" | json [60m])`` — log range aggregation."""

    func: RangeFunc
    pipeline: LogPipeline
    range_ns: int

    def __post_init__(self) -> None:
        if self.range_ns <= 0:
            raise QueryError("range window must be positive")
        has_unwrap = any(
            isinstance(stage, UnwrapStage) for stage in self.pipeline.stages
        )
        if self.func in UNWRAPPED_FUNCS and not has_unwrap:
            raise QueryError(
                f"{self.func.value} requires an `| unwrap <label>` stage"
            )
        if self.func not in UNWRAPPED_FUNCS and has_unwrap:
            raise QueryError(
                f"{self.func.value} cannot be applied to an unwrapped pipeline"
            )


MetricExpr = Union[RangeAgg, VectorAgg, BinOp, SetExpr, TopK]
Expr = Union[LogPipeline, MetricExpr]


@dataclass(frozen=True)
class PatternTemplate:
    """Compiled ``pattern`` template: alternating literals and captures.

    ``[<severity>] problem:<problem>, xname:<xname>, state:<state>``
    captures four fields; ``<_>`` skips anonymously.
    """

    literals: tuple[str, ...] = field(default=())
    captures: tuple[str | None, ...] = field(default=())

    @classmethod
    def compile(cls, template: str) -> "PatternTemplate":
        literals: list[str] = []
        captures: list[str | None] = []
        buf: list[str] = []
        i = 0
        while i < len(template):
            ch = template[i]
            if ch == "<":
                end = template.find(">", i)
                if end == -1:
                    raise QueryError("unterminated capture in pattern template")
                name = template[i + 1 : end]
                if name != "_" and not re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*$", name):
                    raise QueryError(f"bad capture name {name!r} in pattern")
                literals.append("".join(buf))
                buf = []
                captures.append(None if name == "_" else name)
                i = end + 1
            else:
                buf.append(ch)
                i += 1
        literals.append("".join(buf))
        if not captures:
            raise QueryError("pattern template has no captures")
        for k in range(1, len(literals) - 1):
            if literals[k] == "":
                raise QueryError("pattern captures must be separated by literals")
        return cls(tuple(literals), tuple(captures))

    def match(self, line: str) -> dict[str, str] | None:
        """Extract capture values, or ``None`` if the line doesn't match."""
        pos = 0
        first = self.literals[0]
        if first:
            if not line.startswith(first):
                return None
            pos = len(first)
        out: dict[str, str] = {}
        for idx, name in enumerate(self.captures):
            nxt = self.literals[idx + 1]
            if nxt == "":
                # Final capture swallows the remainder.
                value = line[pos:]
                pos = len(line)
            else:
                end = line.find(nxt, pos)
                if end == -1:
                    return None
                value = line[pos:end]
                pos = end + len(nxt)
            if name is not None:
                out[name] = value
        # Non-greedy, whole-line semantics: anything left after the final
        # literal means the line does not fit the template.
        if pos != len(line):
            return None
        return out
