"""vmagent: scrapes Prometheus-style exporters into VictoriaMetrics.

Paper §IV workflow: "VMagent directly pushes metrics to the
VictoriaMetrics cluster in OMNI."  Each scrape target gets the standard
``job``/``instance`` labels added to every sample it hands over.

An exporter and vmagent share one process, so a scrape is the exporter's
typed batch of readings (:class:`~repro.exporters.exporter.Scrape`), not
its text: nothing is formatted to be parsed back.  A reading names its
series by ``(family, labels)``; a target resolves each such key to the
series' label set once, and forgets them all once they outnumber twice
a scrape's readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.tsdb.storage import TimeSeriesStore

#: ``(family, labels items)`` of a reading (the family alone if it has
#: no labels) → its series' name and label set, ``job``/``instance``
#: added.
_Series = dict[tuple | str, tuple[str, LabelSet]]


class Scrapable(Protocol):
    def scrape(self) -> Iterable[tuple[str, float, Mapping[str, str] | None]]: ...


@dataclass(frozen=True)
class ScrapeTarget:
    """One exporter endpoint with its job/instance identity."""

    job: str
    instance: str
    exporter: Scrapable

    def __post_init__(self) -> None:
        if not self.job or not self.instance:
            raise ValidationError("scrape target needs job and instance")


class VMAgent:
    """Deterministic scraper over the simulated clock."""

    def __init__(self, store: TimeSeriesStore, clock: SimClock) -> None:
        self._store = store
        self._clock = clock
        self._targets: list[ScrapeTarget] = []
        # Per target, the series its scrapes named, forgotten once they
        # outnumber twice a scrape's readings (so a target whose label
        # values churn does not grow the memo).
        self._series: list[_Series] = []
        self.scrapes_done = 0
        self.samples_pushed = 0
        self.scrape_errors = 0

    def add_target(self, target: ScrapeTarget) -> None:
        if any(
            t.job == target.job and t.instance == target.instance
            for t in self._targets
        ):
            raise ValidationError(
                f"duplicate target {target.job}/{target.instance}"
            )
        self._targets.append(target)
        self._series.append({})

    def targets(self) -> list[ScrapeTarget]:
        return list(self._targets)

    def scrape_all(self) -> int:
        """Scrape every target once; returns samples pushed.

        A scrape is all or nothing: if the exporter fails, or any of its
        readings does not name a valid series, nothing of it is stored
        and the target's ``up`` is 0."""
        now = self._clock.now_ns
        ingest = self._store.ingest
        pushed = 0
        for i, target in enumerate(self._targets):
            up = {"job": target.job, "instance": target.instance}
            try:
                points = self._resolve(target, target.exporter.scrape(), self._series[i])
            except Exception:
                self.scrape_errors += 1
                # Synthesise the `up` metric Prometheus would record.
                ingest("up", up, 0.0, now)
                continue
            for (name, labels), value in points:
                pushed += ingest(name, labels, value, now)
            ingest("up", up, 1.0, now)
            self.scrapes_done += 1
        self.samples_pushed += pushed
        return pushed

    @staticmethod
    def _resolve(
        target: ScrapeTarget,
        readings: Iterable[tuple[str, float, Mapping[str, str] | None]],
        known: _Series,
    ) -> list[tuple[tuple[str, LabelSet], float]]:
        """Each reading of one scrape with the series it names.  Only a
        key ``known`` does not hold builds (and so validates) a label
        set; the exporter's own ``job`` or ``instance`` wins over the
        target's."""
        points = []
        for family, value, labels in readings:
            key = (family, tuple(labels.items())) if labels else family
            series = known.get(key)
            if series is None:
                full = dict(labels) if labels else {}
                full.setdefault("job", target.job)
                full.setdefault("instance", target.instance)
                series = known[key] = (family, LabelSet(full))
            points.append((series, value))
        if len(known) > 2 * len(points):
            known.clear()  # label values churn: keep no more than they need
        return points
