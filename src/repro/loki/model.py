"""Loki data model: entries, push payloads.

The push format mirrors the paper's Figure 3 / the Loki HTTP push API:

.. code-block:: json

    {"streams": [{
        "stream": {"Context": "x1102c4s0b0", "cluster": "perlmutter",
                   "data_type": "redfish_event"},
        "values": [["1646272077000000000", "{\"Severity\":\"Warning\",...}"]]
    }]}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet


@dataclass(frozen=True, order=True)
class LogEntry:
    """One log line: nanosecond timestamp + content string."""

    timestamp_ns: int
    line: str

    def size_bytes(self) -> int:
        """UTF-8 length of the line.  ASCII is known from the string's
        header; only other text is encoded to be measured."""
        line = self.line
        return len(line) if line.isascii() else len(line.encode())


@dataclass(frozen=True)
class PushStream:
    """One stream's worth of entries in a push request."""

    labels: LabelSet
    entries: tuple[LogEntry, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValidationError("a log stream needs at least one label")
        if not self.entries:
            raise ValidationError("push stream has no entries")


@dataclass(frozen=True)
class PushRequest:
    """A batch of streams, as accepted by the push API."""

    streams: tuple[PushStream, ...]

    @classmethod
    def single(
        cls,
        labels: Mapping[str, str] | LabelSet,
        entries: Iterable[tuple[int, str]],
    ) -> "PushRequest":
        """Build a one-stream request from ``(timestamp_ns, line)`` pairs."""
        labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
        return cls(
            streams=(
                PushStream(
                    labels=labelset,
                    entries=tuple(LogEntry(ts, line) for ts, line in entries),
                ),
            )
        )

    def to_json_obj(self) -> dict[str, Any]:
        """Serialise back to the Figure-3 wire format."""
        return {
            "streams": [
                {
                    "stream": s.labels.to_dict(),
                    "values": [[str(e.timestamp_ns), e.line] for e in s.entries],
                }
                for s in self.streams
            ]
        }

    def total_entries(self) -> int:
        return sum(len(s.entries) for s in self.streams)
