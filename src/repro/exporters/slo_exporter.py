"""SLO exporter: SLI counters and budget gauges for vmagent.

This exporter closes the SLO plane's metric loop: the manager's SLI
collectors are published as cumulative ``slo_sli_good_total`` /
``slo_sli_total`` counters, vmagent scrapes them into the TSDB, the
recording engine derives per-window burn rates from them, and vmalert
pages on the derived series.  Budget gauges ride along for dashboards
and ``logcli slo``.

``slo_bad_events_recent`` is the since-last-scrape bad-event burst via
the shared :class:`~repro.exporters.deltas.RecentDelta` helper — the
same self-resolving alert-signal convention the tenancy and queryx
exporters use.
"""

from __future__ import annotations

from typing import Iterator

from repro.exporters.deltas import RecentDelta
from repro.exporters.exporter import Exporter, Reading
from repro.slo.manager import SloManager
from repro.slo.model import SLO_LABEL

_SLOS = (
    ("slo_sli_good_total", "counter",
     "Cumulative good events per SLO (SLI numerator)."),
    ("slo_sli_total", "counter",
     "Cumulative total events per SLO (SLI denominator)."),
    ("slo_objective", "gauge",
     "Configured objective per SLO (fraction, e.g. 0.999)."),
    ("slo_budget_remaining_ratio", "gauge",
     "Error budget left over the SLO window (1 untouched, "
     "0 exhausted, negative when overspent)."),
    ("slo_budget_exhausted", "gauge",
     "1 while the SLO's error budget is spent, else 0."),
    ("slo_bad_events_recent", "gauge",
     "Bad events since the last scrape (alert signal; "
     "self-resolves on the next quiet scrape)."),
)


def _read_slos(manager: SloManager, recent_bad: RecentDelta) -> Iterator[Reading]:
    for slo in manager.slos():
        labels = {SLO_LABEL: slo.name}
        snap = manager.collector(slo.name).snapshot()
        budget = manager.budget(slo.name)
        yield "slo_sli_good_total", snap.good, labels
        yield "slo_sli_total", snap.total, labels
        yield "slo_objective", slo.objective, labels
        yield "slo_budget_remaining_ratio", budget.remaining_ratio(), labels
        yield "slo_budget_exhausted", budget.exhausted, labels
        recent = recent_bad.observe(slo.name, snap.bad)
        yield "slo_bad_events_recent", recent, labels


class SloExporter(Exporter):
    """Exports per-SLO SLI counters and error-budget gauges."""

    def __init__(self, manager: SloManager) -> None:
        super().__init__((_SLOS, _read_slos, manager, RecentDelta()))
