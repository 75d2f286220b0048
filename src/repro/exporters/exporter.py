"""The one exporter: metric tables in, exposition text out.

Every exporter under :mod:`repro.exporters` is this class over its own
tables.  A *table* is data, declared once at import: one
``(name, type, help)`` row per metric family.  Beside each table stands
one plain *read function* that turns a component's existing attributes
and ``counters()`` into readings ``(family, value, labels)`` — the
exporter stays a reader; no component keeps a metric object.  A *part*
is ``(table, read, *components)``: ``read(*components)`` is called once
per scrape, and a part any of whose components is ``None`` is left out
when the exporter is built, families and all (the store-gateway's
metrics exist iff there is a store-gateway).

:meth:`Exporter.scrape` is the only ``scrape`` in the package: it groups
the readings under their family's pre-rendered ``# HELP`` / ``# TYPE``
header in table order — a family with no reading this scrape is still a
header — keeps readings of one family in the order they were read, and
formats every sample through :func:`~repro.exporters.textformat.sample_line`.
Values are rendered as floats (``3`` reads ``3.0``), so a read function
hands counters over as they are.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Mapping

from repro.common.errors import ValidationError
from repro.exporters.textformat import family_header, sample_line

#: ``(family, value, labels)``; ``None`` for a sample without labels.
Reading = tuple[str, float, Mapping[str, str] | None]


class Exporter:
    """Serves ``scrape() -> str`` over ``(table, read, *components)`` parts."""

    def __init__(self, *parts: tuple) -> None:
        self._headers: dict[str, str] = {}
        self._reads: list[tuple[Callable[..., Iterable[Reading]], list]] = []
        for table, read, *components in parts:
            if any(component is None for component in components):
                continue
            for name, type_, help_ in table:
                if name in self._headers:
                    raise ValidationError(f"metric family declared twice: {name!r}")
                self._headers[name] = family_header(name, type_, help_)
            self._reads.append((read, components))
        self.scrapes_served = 0

    def scrape(self) -> str:
        lines = {name: [header] for name, header in self._headers.items()}
        for read, components in self._reads:
            for family, value, labels in read(*components):
                samples = lines.get(family)
                if samples is None:
                    raise ValidationError(
                        f"reading for undeclared metric family {family!r}"
                    )
                samples.append(sample_line(family, labels, float(value)))
        self.scrapes_served += 1
        return "\n".join(chain.from_iterable(lines.values())) + "\n"
