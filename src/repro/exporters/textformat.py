"""Prometheus text exposition format: render and parse.

The format every exporter speaks::

    # HELP node_temp_celsius Node temperature.
    # TYPE node_temp_celsius gauge
    node_temp_celsius{xname="x1000c0s0b0n0"} 34.72

vmagent parses this back into samples, so the scrape path exercises the
real wire format instead of passing Python objects around.

Two functions format it and nothing else under ``src/`` does:
:func:`family_header` (the ``# HELP`` / ``# TYPE`` lines, validated) and
:func:`sample_line`.  The renderer every exporter serves from is
:meth:`repro.exporters.exporter.Exporter.scrape`, which groups a scrape's
readings under headers it rendered when it was built;
:func:`render_exposition` here is the same two functions over whole
:class:`MetricFamily` objects, for tests and one-off views.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Mapping

from repro.common.errors import ValidationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_PREFIX_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*')


@dataclass(frozen=True)
class MetricPoint:
    """One sample line."""

    name: str
    labels: dict[str, str]
    value: float
    timestamp_ms: int | None = None


def family_header(name: str, type: str, help: str) -> str:
    """The ``# HELP`` / ``# TYPE`` lines of a family, validated: the one
    place a family header is formatted."""
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name: {name!r}")
    if type not in ("gauge", "counter", "untyped"):
        raise ValidationError(f"invalid metric type: {type!r}")
    type_line = f"# TYPE {name} {type}"
    return f"# HELP {name} {help}\n{type_line}" if help else type_line


@dataclass
class MetricFamily:
    """A named family: HELP/TYPE header plus its points."""

    name: str
    help: str = ""
    type: str = "gauge"  # gauge | counter | untyped
    points: list[MetricPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        family_header(self.name, self.type, self.help)

    def add(self, value: float, **labels: str) -> None:
        self.points.append(MetricPoint(self.name, labels, value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if type(value) is not float:  # the common case skips both checks
        if isinstance(value, Integral):  # int, bool, NumPy integers
            return str(int(value))
        # A float subclass (np.float64) must not spell its own type out.
        value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def sample_line(
    name: str,
    labels: Mapping[str, str] | None,
    value: float,
    timestamp_ms: int | None = None,
) -> str:
    """One sample line, labels sorted by key: the one place a sample is
    formatted."""
    if labels:
        label_text = ",".join(
            f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
        )
        head = f"{name}{{{label_text}}}"
    else:
        head = name
    line = f"{head} {_format_value(value)}"
    if timestamp_ms is not None:
        line += f" {timestamp_ms}"
    return line


def render_exposition(families: list[MetricFamily]) -> str:
    """Render whole families to exposition text."""
    lines: list[str] = []
    for family in families:
        lines.append(family_header(family.name, family.type, family.help))
        for point in family.points:
            if point.name != family.name:
                raise ValidationError(
                    f"point {point.name!r} inside family {family.name!r}"
                )
            lines.append(
                sample_line(point.name, point.labels, point.value, point.timestamp_ms)
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_exposition(text: str) -> list[MetricPoint]:
    """Parse exposition text into points (HELP/TYPE lines are skipped)."""
    points: list[MetricPoint] = []
    for lineno, line in sample_lines(text):
        name, labels, pos = parse_sample_head(line, lineno)
        points.append(MetricPoint(name, labels, *parse_sample_fields(line, pos, lineno)))
    return points


def sample_lines(text: str) -> Iterator[tuple[int, str]]:
    """The sample lines of an exposition, stripped, with their 1-based
    line numbers; blank lines and ``#`` comments are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_sample_head(line: str, lineno: int) -> tuple[str, dict[str, str], int]:
    """The ``name{labels}`` head of a sample line: the metric name, its
    labels unescaped, and the position the value field starts at."""
    name_match = _NAME_PREFIX_RE.match(line)
    if not name_match:
        raise ValidationError(f"bad exposition line {lineno}: {line!r}")
    name = name_match.group()
    pos = name_match.end()
    labels: dict[str, str] = {}
    if pos < len(line) and line[pos] == "{":
        pos += 1
        while pos < len(line) and line[pos] != "}":
            lm = _LABEL_RE.match(line, pos)
            if not lm:
                raise ValidationError(
                    f"bad label pair on exposition line {lineno}: {line!r}"
                )
            labels[lm.group(1)] = _unescape(lm.group(2))
            pos = lm.end()
            if pos < len(line) and line[pos] == ",":
                pos += 1
        if pos >= len(line) or line[pos] != "}":
            raise ValidationError(f"unterminated labels on line {lineno}: {line!r}")
        pos += 1
    return name, labels, pos


def parse_sample_fields(line: str, pos: int, lineno: int) -> tuple[float, int | None]:
    """The value and optional millisecond timestamp after a sample
    line's head, which ends at ``pos``."""
    rest = line[pos:].split()
    if not rest or len(rest) > 2:
        raise ValidationError(f"bad exposition line {lineno}: {line!r}")
    value_text = rest[0]
    try:
        if value_text == "NaN":
            value = float("nan")
        elif value_text in ("+Inf", "Inf"):
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
    except ValueError:
        raise ValidationError(
            f"bad value on exposition line {lineno}: {value_text!r}"
        ) from None
    ts: int | None = None
    if len(rest) == 2:
        try:
            ts = int(rest[1])
        except ValueError:
            raise ValidationError(
                f"bad timestamp on exposition line {lineno}: {rest[1]!r}"
            ) from None
    return value, ts
