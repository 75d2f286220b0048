"""Prometheus text exposition format: render and parse.

The format every exporter speaks::

    # HELP node_temp_celsius Node temperature.
    # TYPE node_temp_celsius gauge
    node_temp_celsius{xname="x1000c0s0b0n0"} 34.72

It is the ``/metrics`` view of an exporter's scrape, not the way a
scrape reaches vmagent: exporter and vmagent share one process, so
vmagent stores the typed batch :meth:`repro.exporters.exporter.Exporter.scrape`
returns, and the text is rendered only when someone asks for it —
:meth:`repro.exporters.exporter.Scrape.text`, pinned byte for byte by
``tests/exposition_golden.json``.

Two functions format it and nothing else under ``src/`` does:
:func:`family_header` (the ``# HELP`` / ``# TYPE`` lines, validated) and
:func:`sample_line`; ``Scrape.text`` is the one renderer built on them.
:func:`parse_exposition` reads any of it back.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral
from typing import Mapping

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


def sample_line(name: str, labels: Mapping[str, str] | None, value: float) -> str:
    """One sample line, labels sorted by key: the one place a sample is
    formatted."""
    if labels:
        label_text = ",".join(
            f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
        )
        head = f"{name}{{{label_text}}}"
    else:
        head = name
    return f"{head} {_format_value(value)}"


def parse_exposition(text: str) -> list[MetricPoint]:
    """Parse exposition text into points (HELP/TYPE lines are skipped)."""
    points: list[MetricPoint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_match = _NAME_PREFIX_RE.match(line)
        if not name_match:
            raise ValidationError(f"bad exposition line {lineno}: {line!r}")
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
        points.append(MetricPoint(name_match.group(), labels, value, ts))
    return points
