"""vmagent: scrapes Prometheus-style exporters into VictoriaMetrics.

Paper §IV workflow: "VMagent directly pushes metrics to the
VictoriaMetrics cluster in OMNI."  Each scrape target gets the standard
``job``/``instance`` labels added to every parsed sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.exporters.textformat import (
    parse_sample_fields,
    parse_sample_head,
    sample_lines,
)
from repro.tsdb.storage import TimeSeriesStore

#: Exposition line head exactly as rendered (``name{label-string}``) →
#: the series it names once job/instance are added.
_Heads = dict[str, tuple[str, LabelSet]]


class Scrapable(Protocol):
    def scrape(self) -> str: ...


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
        # Per target, the heads of its last good scrape (so a target whose
        # label values churn does not grow the memo).
        self._heads: list[_Heads] = []
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
        self._heads.append({})

    def targets(self) -> list[ScrapeTarget]:
        return list(self._targets)

    def scrape_all(self) -> int:
        """Scrape every target once; returns samples pushed."""
        now = self._clock.now_ns
        pushed = 0
        for i, target in enumerate(self._targets):
            up = {"job": target.job, "instance": target.instance}
            try:
                points, self._heads[i] = self._parse(
                    target, target.exporter.scrape(), self._heads[i]
                )
            except Exception:
                self.scrape_errors += 1
                # Synthesise the `up` metric Prometheus would record.
                self._store.ingest("up", up, 0.0, now)
                continue
            for name, labels, value in points:
                if self._store.ingest(name, labels, value, now):
                    pushed += 1
            self._store.ingest("up", up, 1.0, now)
            self.scrapes_done += 1
        self.samples_pushed += pushed
        return pushed

    @staticmethod
    def _parse(
        target: ScrapeTarget, text: str, known: _Heads
    ) -> tuple[list[tuple[str, LabelSet, float]], _Heads]:
        """Parse one exposition into (name, labels, value) samples and the
        heads it carried.  Only a head ``known`` does not hold goes
        through the label grammar; the value and timestamp fields of
        every line are parsed and validated."""
        points = []
        heads: _Heads = {}
        for lineno, line in sample_lines(text):
            # No field can hold a `}`, so the last one closes the labels;
            # a line without labels has its name end at the first blank.
            end = line.rfind("}") + 1 or len(line.split(None, 1)[0])
            head = line[:end]
            series = known.get(head)
            if series is None:
                name, labels, end = parse_sample_head(line, lineno)
                labels.setdefault("job", target.job)
                labels.setdefault("instance", target.instance)
                series = (name, LabelSet(labels))
            if end == len(head):
                # Else the grammar ends the head elsewhere (`m1.5 2` is
                # `m1` with value .5): such a line is parsed in full
                # every time.
                heads[head] = series
            value, _timestamp_ms = parse_sample_fields(line, end, lineno)
            points.append((*series, value))
        return points, heads
