"""The one exporter: metric tables in, a typed batch of readings out.

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

:meth:`Exporter.scrape` is the only ``scrape`` in the package.  It hands
back a :class:`Scrape`: the readings grouped under their family in
table order — a family with no reading this scrape is still there,
empty — readings of one family in the order they were read, every value
a ``float`` (a read function hands counters over as they are).  That
batch is what the in-process vmagent stores, sample by sample; its
:meth:`Scrape.text` is the ``/metrics`` view of the same batch, the
Prometheus text exposition, rendered only when someone asks for it.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from repro.common.errors import ValidationError
from repro.exporters.textformat import family_header, sample_line

#: ``(family, value, labels)``; ``None`` for a sample without labels.
Reading = tuple[str, float, Mapping[str, str] | None]


class Scrape:
    """One scrape's readings: per family, in table order, the readings
    read for it, in the order they were read, each value a ``float``."""

    __slots__ = ("families", "_headers")

    def __init__(
        self, headers: Mapping[str, str], families: dict[str, list[Reading]]
    ) -> None:
        #: Family name → its readings.
        self.families = families
        self._headers = headers

    def __iter__(self) -> Iterator[Reading]:
        """The readings, family by family."""
        return chain.from_iterable(self.families.values())

    def text(self) -> str:
        """The batch as Prometheus text exposition: each family's
        ``# HELP`` / ``# TYPE`` header, then its sample lines."""
        return "\n".join(
            chain.from_iterable(
                chain(
                    (self._headers[family],),
                    (sample_line(name, labels, value) for name, value, labels in readings),
                )
                for family, readings in self.families.items()
            )
        ) + "\n"


class Exporter:
    """Serves ``scrape() -> Scrape`` over ``(table, read, *components)`` parts."""

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

    def scrape(self) -> Scrape:
        families: dict[str, list] = {name: [] for name in self._headers}
        for read, components in self._reads:
            for family, value, labels in read(*components):
                samples = families.get(family)
                if samples is None:
                    raise ValidationError(
                        f"reading for undeclared metric family {family!r}"
                    )
                samples.append((family, float(value), labels))
        self.scrapes_served += 1
        return Scrape(self._headers, families)
