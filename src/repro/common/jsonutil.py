"""Strict JSON helpers for telemetry payloads.

The Telemetry API publishes Redfish events as nested JSON (paper Fig. 2);
the transformation in §IV.A flattens that into Loki's push format (Fig. 3).
These helpers centralise the fiddly parts: compact canonical encoding,
nested-path extraction for the LogQL ``json`` parser, and ISO-8601 ↔
nanosecond-epoch conversion.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import AbstractSet, Any, Iterator, Mapping

from repro.common.errors import ValidationError
from repro.common.simclock import NANOS_PER_SECOND

# One encoder and one decoder for the process: ``json.dumps`` with
# non-default arguments builds a ``JSONEncoder`` on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()


def dumps_compact(obj: Any) -> str:
    """Canonical compact JSON (no spaces, sorted keys) for stable payloads."""
    return _ENCODER.encode(obj)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(value: float) -> str:
    """A float as :func:`dumps_compact` writes it: ``float.__repr__``, and
    ``NaN`` / ``Infinity`` / ``-Infinity`` for the values JSON lacks.  The
    pre-encoded telemetry envelopes splice readings in with this."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def loads(text: str) -> Any:
    """Parse JSON, converting failures into :class:`ValidationError`."""
    try:
        return _DECODER.decode(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc


class LogEnvelopeEncoder:
    """Encodes the log-line envelope ``{"labels": …, "ts": …, "line": …}``
    that rsyslog aggregators, container runtimes and the console publish
    and :func:`decode_log_envelope` reads.

    The bytes are :func:`dumps_compact`'s.  With sorted keys the labels
    object leads, so that head is encoded once per label mapping *as
    given* (same keys, same order, same values) and only the line and the
    timestamp are encoded per line.  The table holds one entry per
    distinct all-``str`` mapping a producer has sent — streams times key
    orders, never lines — and starts over at :attr:`MAX_HEADS`, so a
    producer that labels by something unique per line costs itself the
    memo, not the memory; any other mapping is encoded afresh each time
    and left for the consumer to refuse.
    """

    MAX_HEADS = 1 << 16

    def __init__(self) -> None:
        self._heads: dict[tuple, str] = {}

    def encode(self, labels: Mapping[str, str], timestamp_ns: int, line: str) -> str:
        ref = tuple(labels.items())
        try:
            head = self._heads.get(ref)
        except TypeError:  # an unhashable label value
            head = None
        if head is None:
            head = f'{{"labels":{dumps_compact(labels)},"line":'
            if all(type(k) is str and type(v) is str for k, v in ref):
                if len(self._heads) >= self.MAX_HEADS:
                    self._heads.clear()
                self._heads[ref] = head
        try:
            return f'{head}{_quote(line)},"ts":{timestamp_ns:d}}}'
        except (TypeError, ValueError):
            raise ValidationError(
                "a log envelope takes a str line and an int timestamp, got "
                f"{type(line).__name__} and {type(timestamp_ns).__name__}"
            ) from None


def decode_log_envelope(text: str) -> tuple[dict[str, Any], int, str]:
    """``(labels, timestamp_ns, line)`` of one published envelope.

    Checks the envelope's shape — an object whose ``labels`` is an object
    and whose ``line`` is a string — on every line; whether the labels
    name a legal stream is for the store to say, once per stream.
    """
    envelope = loads(text)
    try:
        labels = envelope["labels"]
        timestamp_ns = int(envelope["ts"])
        line = envelope["line"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValidationError(f"malformed log envelope: {text[:80]}") from None
    if not isinstance(labels, dict) or not isinstance(line, str):
        raise ValidationError(f"malformed log envelope: {text[:80]}")
    return labels, timestamp_ns, line


def iso8601_to_ns(text: str) -> int:
    """Convert an ISO-8601 timestamp (e.g. ``2022-03-03T01:47:57+00:00``)
    to integer nanoseconds since the Unix epoch.

    Redfish event timestamps arrive in this format; Loki wants nanoseconds.
    """
    try:
        dt = _dt.datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValidationError(f"invalid ISO-8601 timestamp: {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=_dt.timezone.utc)
    return int(dt.timestamp() * NANOS_PER_SECOND)


def ns_to_iso8601(ts_ns: int) -> str:
    """Inverse of :func:`iso8601_to_ns` (UTC, second precision)."""
    dt = _dt.datetime.fromtimestamp(ts_ns / NANOS_PER_SECOND, tz=_dt.timezone.utc)
    return dt.isoformat(timespec="seconds")


def flatten_json(
    obj: Any, wanted: AbstractSet[str] | None = None, prefix: str = ""
) -> Iterator[tuple[str, str]]:
    """Yield ``(flattened_key, string_value)`` pairs from nested JSON.

    This implements the extraction semantics of LogQL's ``| json`` stage:
    nested keys are joined with ``_``, array indices with ``_<i>_``-style
    suffixes, and scalar values are stringified.  Keys are sanitised to be
    legal label names (every character outside ``[A-Za-z0-9_]`` becomes
    ``_``, as Loki's ``sanitizeLabelKey`` does).  ``wanted`` (``None`` =
    all) keeps only the pairs whose key it holds, in the same order.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            clean = _sanitize_key(key)
            new_prefix = f"{prefix}_{clean}" if prefix else clean
            yield from flatten_json(value, wanted, new_prefix)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            new_prefix = f"{prefix}_{i}" if prefix else str(i)
            yield from flatten_json(value, wanted, new_prefix)
    elif wanted is not None and prefix not in wanted:
        return
    elif isinstance(obj, bool):
        yield prefix, "true" if obj else "false"
    elif obj is None:
        yield prefix, ""
    elif isinstance(obj, float) and obj.is_integer():
        yield prefix, str(int(obj))
    else:
        yield prefix, str(obj)


@lru_cache(maxsize=4096)
def _sanitize_key(key: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9_]", "_", key)
    if clean[:1].isdigit():
        clean = "_" + clean
    return clean or "_"
