"""HPE Shasta component naming ("xnames").

Shasta addresses every physical component with a hierarchical *xname*:

``x1203c1b0``  → cabinet 1203, chassis 1, BMC 0 (a chassis controller)
``x1102c4s0b0`` → cabinet 1102, chassis 4, slot 0, BMC 0 (a node controller)
``x1002c1r7b0`` → cabinet 1002, chassis 1, Rosetta switch 7, BMC 0

The paper's Figures 2, 3 and 7 use exactly these three forms, so the
topology model generates and parses them faithfully.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.common.errors import ValidationError

_XNAME_RE = re.compile(
    r"^x(?P<cabinet>\d+)"
    r"(?:c(?P<chassis>\d+)"
    r"(?:s(?P<slot>\d+)|r(?P<switch>\d+))?"
    r"(?:b(?P<bmc>\d+)"
    r"(?:n(?P<node>\d+))?)?)?$"
)


def _level(v: int | None) -> int:
    return -1 if v is None else v


@dataclass(frozen=True)
class XName:
    """Parsed xname. ``None`` fields mean the level is absent.

    ``slot`` and ``switch`` are mutually exclusive: compute blades sit in
    slots (``s``) while Rosetta switch blades use ``r``.
    """

    cabinet: int
    chassis: int | None = None
    slot: int | None = None
    switch: int | None = None
    bmc: int | None = None
    node: int | None = None

    def __post_init__(self) -> None:
        if self.slot is not None and self.switch is not None:
            raise ValidationError("xname cannot have both a slot and a switch")
        if (self.slot is not None or self.switch is not None or self.bmc is not None) \
                and self.chassis is None:
            raise ValidationError("slot/switch/bmc require a chassis level")
        if self.node is not None and self.bmc is None:
            raise ValidationError("a node requires a BMC level")
        # The text, the sort key and the hash depend on the fields alone,
        # and the fields never change: each is computed here, once, and
        # ``__str__``, the comparisons and ``__hash__`` only read it.
        object.__setattr__(self, "_text", self._format())
        # Total order across mixed depths: absent levels sort first.
        object.__setattr__(self, "_sort_key", (
            self.cabinet,
            _level(self.chassis),
            0 if self.switch is None else 1,  # slots before switches
            _level(self.slot if self.switch is None else self.switch),
            _level(self.bmc),
            _level(self.node),
        ))
        # The dataclass's own hash, so set and dict order cannot move.
        object.__setattr__(self, "_hash", hash(
            (self.cabinet, self.chassis, self.slot, self.switch, self.bmc, self.node)
        ))

    def _format(self) -> str:
        out = f"x{self.cabinet}"
        if self.chassis is not None:
            out += f"c{self.chassis}"
        if self.slot is not None:
            out += f"s{self.slot}"
        elif self.switch is not None:
            out += f"r{self.switch}"
        if self.bmc is not None:
            out += f"b{self.bmc}"
        if self.node is not None:
            out += f"n{self.node}"
        return out

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "XName") -> bool:
        if not isinstance(other, XName):
            return NotImplemented
        return self._sort_key < other._sort_key

    def __le__(self, other: "XName") -> bool:
        if not isinstance(other, XName):
            return NotImplemented
        return self._sort_key <= other._sort_key

    def __gt__(self, other: "XName") -> bool:
        if not isinstance(other, XName):
            return NotImplemented
        return self._sort_key > other._sort_key

    def __ge__(self, other: "XName") -> bool:
        if not isinstance(other, XName):
            return NotImplemented
        return self._sort_key >= other._sort_key

    @classmethod
    def parse(cls, text: str) -> "XName":
        """Parse an xname string such as ``x1102c4s0b0``."""
        m = _XNAME_RE.match(text)
        if not m:
            raise ValidationError(f"invalid xname: {text!r}")
        g = {k: (int(v) if v is not None else None) for k, v in m.groupdict().items()}
        return cls(**g)

    def __str__(self) -> str:
        return self._text

    # -- hierarchy helpers -------------------------------------------------
    @property
    def is_switch(self) -> bool:
        return self.switch is not None and self.node is None

    @property
    def is_controller(self) -> bool:
        """Whether this names a BMC (board management controller)."""
        return self.bmc is not None and self.node is None

    def parent(self) -> "XName | None":
        """The enclosing component, or ``None`` for a cabinet."""
        if self.node is not None:
            return XName(self.cabinet, self.chassis, self.slot, self.switch, self.bmc)
        if self.bmc is not None:
            return XName(self.cabinet, self.chassis, self.slot, self.switch)
        if self.slot is not None or self.switch is not None:
            return XName(self.cabinet, self.chassis)
        if self.chassis is not None:
            return XName(self.cabinet)
        return None

    def contains(self, other: "XName") -> bool:
        """Whether ``other`` is this component or nested inside it."""
        if other.cabinet != self.cabinet:
            return False
        for mine, theirs in (
            (self.chassis, other.chassis),
            (self.slot, other.slot),
            (self.switch, other.switch),
            (self.bmc, other.bmc),
            (self.node, other.node),
        ):
            if mine is not None and mine != theirs:
                return False
        return True

    def cabinet_xname(self) -> "XName":
        return XName(self.cabinet)

    def chassis_xname(self) -> "XName":
        if self.chassis is None:
            raise ValidationError(f"{self} has no chassis level")
        return XName(self.cabinet, self.chassis)
