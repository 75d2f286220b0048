"""Label sets and label matchers — the Prometheus/Loki data model core.

A *label set* is an immutable mapping of label name → value.  In Loki a
unique combination of labels identifies a **log stream**; in the TSDB a
metric name plus labels identifies a **time series**.  Both subsystems
share this implementation so the "logs become metrics" conversion the
paper leans on (LogQL ``count_over_time`` + ``sum by``) is a natural
operation rather than a format shim.

Label *matchers* implement the four Prometheus selector operators
(``=``, ``!=``, ``=~``, ``!~``) used by both query languages.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator, Mapping

from repro.common.errors import ValidationError
from repro.common.hashing import fnv1a_64, mix64

_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Reserved label carrying the metric name in the TSDB, as in Prometheus.
METRIC_NAME_LABEL = "__name__"


def validate_label_name(name: str) -> str:
    """Return ``name`` if it is a legal label name, else raise."""
    if not _LABEL_NAME_RE.match(name):
        raise ValidationError(f"invalid label name: {name!r}")
    return name


class LabelSet(Mapping[str, str]):
    """Immutable, hashable set of ``name=value`` labels.

    Instances are canonicalised (sorted by name) so that equal mappings
    always hash equally — the property stream identity depends on.
    """

    # ``_fingerprint`` is left unset until :meth:`fingerprint` is first
    # asked for it: most label sets (every TSDB series, every query
    # result) never place on a ring and should not pay for the slot's
    # initialisation.  ``_nameless`` likewise, until :meth:`nameless`.
    __slots__ = ("_items", "_hash", "_fingerprint", "_nameless")

    def __init__(self, labels: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        if isinstance(labels, Mapping):
            pairs = list(labels.items())
        else:
            pairs = list(labels)
        for name, value in pairs:
            validate_label_name(name)
            if not isinstance(value, str):
                raise ValidationError(
                    f"label {name!r} value must be str, got {type(value).__name__}"
                )
        items = tuple(sorted(pairs))
        names = [n for n, _ in items]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate label names in {names}")
        self._items: tuple[tuple[str, str], ...] = items
        self._hash = hash(items)

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, key: str) -> str:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default: str | None = None) -> str | None:
        # Not the Mapping mixin's, which raises and catches a KeyError
        # for every absent name: the write path asks on every push.
        for name, value in self._items:
            if name == key:
                return value
        return default

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelSet):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f'{n}="{v}"' for n, v in self._items)
        return "{" + inner + "}"

    # -- Operations ------------------------------------------------------
    @classmethod
    def _trusted(cls, items: tuple[tuple[str, str], ...]) -> "LabelSet":
        """Wrap an already-canonical ``items`` tuple — validated names,
        ``str`` values, sorted, no duplicates — without checking it again.
        Only for tuples derived from another label set's ``_items``."""
        self = cls.__new__(cls)
        self._items = items
        self._hash = hash(items)
        return self

    def with_labels(self, **extra: str) -> "LabelSet":
        """Return a new set with ``extra`` labels added/overridden."""
        merged = dict(self._items)
        for name, value in extra.items():
            if name not in merged:
                validate_label_name(name)
            if not isinstance(value, str):
                raise ValidationError(
                    f"label {name!r} value must be str, got {type(value).__name__}"
                )
            merged[name] = value
        return LabelSet._trusted(tuple(sorted(merged.items())))

    def without(self, *names: str) -> "LabelSet":
        """Return a new set dropping the given label names."""
        return self._subset(tuple(p for p in self._items if p[0] not in names))

    def nameless(self) -> "LabelSet":
        """This set without its metric name — itself, if it has none:
        what binary operators match series on and what range functions
        and rules call their rows.  Worked out on first use and kept (a
        series is asked at every evaluation that reads it), as ``None``
        for "itself" so that a set never refers to itself."""
        try:
            dropped = self._nameless
        except AttributeError:
            dropped = self.without(METRIC_NAME_LABEL)
            if dropped is self:
                dropped = None
            else:
                dropped._nameless = None
            self._nameless = dropped
        return self if dropped is None else dropped

    def project(self, names: Iterable[str]) -> "LabelSet":
        """Return a new set keeping only the given label names (``by`` clause)."""
        keep = set(names)
        return self._subset(tuple(p for p in self._items if p[0] in keep))

    def _subset(self, items: tuple[tuple[str, str], ...]) -> "LabelSet":
        # A subset of a canonical tuple is canonical: nothing to re-validate.
        return self if len(items) == len(self._items) else LabelSet._trusted(items)

    def items_tuple(self) -> tuple[tuple[str, str], ...]:
        """The canonical sorted ``(name, value)`` tuple (cheap identity key)."""
        return self._items

    def to_dict(self) -> dict[str, str]:
        return dict(self._items)

    def stream_key(self) -> str:
        """Canonical ``name=value;...`` string: the ring key of the
        stream this label set identifies."""
        return ";".join(f"{n}={v}" for n, v in self._items)

    def fingerprint(self) -> int:
        """Stable 64-bit fingerprint, ``mix64(fnv1a_64(stream_key))``:
        the stream's point on the hash ring and its object-store key
        prefix.  Computed on first use and kept — the FNV loop is pure
        Python, and a stream is placed on every push."""
        try:
            return self._fingerprint
        except AttributeError:
            self._fingerprint = mix64(fnv1a_64(self.stream_key().encode()))
            return self._fingerprint


EMPTY_LABELS = LabelSet()


class MatchOp(enum.Enum):
    """The four Prometheus/Loki label-matching operators."""

    EQ = "="
    NEQ = "!="
    RE = "=~"
    NRE = "!~"


class Matcher:
    """A single label matcher, e.g. ``cluster=~"perl.*"``."""

    __slots__ = ("name", "op", "value", "_regex", "_hash")

    def __init__(self, name: str, op: MatchOp, value: str) -> None:
        validate_label_name(name)
        self.name = name
        self.op = op
        self.value = value
        # Kept: query engines key their per-query reads by matcher tuples.
        self._hash = hash((name, op, value))
        if op in (MatchOp.RE, MatchOp.NRE):
            try:
                # Prometheus fully anchors selector regexes.
                self._regex = re.compile(r"(?:" + value + r")\Z")
            except re.error as exc:
                raise ValidationError(f"bad regex in matcher {name}: {exc}") from exc
        else:
            self._regex = None

    def matches(self, labels: Mapping[str, str]) -> bool:
        """Whether ``labels`` satisfies this matcher.

        As in Prometheus, a missing label is treated as the empty string, so
        ``foo!="bar"`` matches series without a ``foo`` label.
        """
        return self.matches_value(labels.get(self.name, ""))

    def matches_value(self, actual: str) -> bool:
        """Whether a label holding ``actual`` ("" if absent) satisfies this."""
        if self.op is MatchOp.EQ:
            return actual == self.value
        if self.op is MatchOp.NEQ:
            return actual != self.value
        assert self._regex is not None
        hit = self._regex.match(actual) is not None
        return hit if self.op is MatchOp.RE else not hit

    def __repr__(self) -> str:
        return f'{self.name}{self.op.value}"{self.value}"'

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matcher):
            return NotImplemented
        return (self.name, self.op, self.value) == (other.name, other.op, other.value)

    def __hash__(self) -> int:
        return self._hash


def label_matcher(name: str, op: str, value: str) -> Matcher:
    """Convenience constructor taking the operator as its literal string."""
    return Matcher(name, MatchOp(op), value)


def matches_all(labels: Mapping[str, str], matchers: Iterable[Matcher]) -> bool:
    """Whether ``labels`` satisfies every matcher in ``matchers``."""
    return all(m.matches(labels) for m in matchers)
