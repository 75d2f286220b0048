"""SloManager: recording rules, budgets, burn alerts, escalation.

The manager owns the whole derived-data pipeline for every registered
SLO:

1. **Recording rules** — for each SLO and each distinct alerting
   window it registers burn-rate and raw error-ratio rules with the
   :class:`~repro.tsdb.recording.RecordingEngine`; vmalert rules and
   dashboards then read precomputed series (``slo_burn_rate_5m``) not
   raw counters.  A labelled ``slo_burn_rate{window=...}`` alias family
   is chained off the suffixed series for the heatmap panel.
2. **Alerting rules** — one vmalert :class:`RuleSpec` per burn tier,
   global across SLOs (the ``slo`` label rides in from the series):
   ``slo_burn_rate_5m > 14.4 and slo_burn_rate_1h > 14.4``.  Pages
   carry ``severity=critical`` (ServiceNow incident); tickets carry
   ``severity=warning`` (annotation only).
3. **Error budgets** — cumulative SLI snapshots feed an
   :class:`~repro.slo.budget.ErrorBudget` per SLO; first exhaustion
   emits a critical ``SloErrorBudgetExhausted`` alert directly into
   Alertmanager with the recent burn history attached, and a resolve
   follows once the budget recovers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.alerting.events import (
    ALERTNAME_LABEL,
    SEVERITY_LABEL,
    AlertEvent,
    AlertState,
)
from repro.alerting.rules import RuleSpec
from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import NANOS_PER_SECOND, SimClock
from repro.slo.budget import ErrorBudget
from repro.slo.burnrate import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    burn_metric_name,
    error_ratio_metric_name,
)
from repro.slo.model import SLO, SLO_LABEL
from repro.slo.sources import SliCollector, SliSource
from repro.tempo.tracer import Tracer
from repro.tsdb.promql import PromQLEngine, parse_promql
from repro.tsdb.recording import RecordingEngine, RecordingRule
from repro.tsdb.storage import TimeSeriesStore

#: Alert label marking every alert the SLO plane emits; the framework
#: routes on it (pages also match the severity=critical ServiceNow
#: route, which comes first with continue enabled).
CATEGORY_LABEL = "category"
CATEGORY_SLO = "slo"
TIER_LABEL = "tier"

#: How many (timestamp, burns) rows each SLO retains for the
#: budget-exhaustion incident's attached history.
BURN_HISTORY_LEN = 48


@dataclass
class _SloEntry:
    slo: SLO
    collector: SliCollector
    budget: ErrorBudget
    history: deque = field(default_factory=lambda: deque(maxlen=BURN_HISTORY_LEN))
    exhausted: bool = False
    exhausted_since_ns: int | None = None


def _severity_label(window: BurnWindow) -> str:
    return "critical" if window.is_page else "warning"


class SloManager:
    """Registers SLOs and drives recording, budgets, and escalation."""

    def __init__(
        self,
        clock: SimClock,
        promql: PromQLEngine,
        store: TimeSeriesStore,
        notifier: Callable[[AlertEvent], None] | None = None,
        *,
        windows: Iterable[BurnWindow] = DEFAULT_BURN_WINDOWS,
        cluster: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.windows = tuple(windows)
        if not self.windows:
            raise ValidationError("at least one burn window is required")
        self._clock = clock
        self._notifier = notifier
        self._cluster = cluster
        self._tracer = tracer
        self.recording = RecordingEngine(promql, store, clock, tracer)
        #: Per distinct window, the recorded burn family every tick reads
        #: back — all SLOs' series of it at once, the seven families as
        #: one group.
        self._burn_families = {
            window: parse_promql(burn_metric_name(window))
            for window in self._distinct_windows()
        }
        self._burn_group = promql.group(self._burn_families.values())
        self._first_alias: RecordingRule | None = None
        self._entries: dict[str, _SloEntry] = {}
        self.evaluations = 0
        self.exhaustion_events = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, slo: SLO, source: SliSource) -> SliCollector:
        """Register ``slo`` backed by ``source``; install its rules."""
        if slo.name in self._entries:
            raise ValidationError(f"SLO {slo.name!r} already registered")
        collector = SliCollector(source)
        self._entries[slo.name] = _SloEntry(
            slo=slo,
            collector=collector,
            budget=ErrorBudget(slo),
        )
        # The window aliases re-emit what the burn rules of *every* SLO
        # just recorded, so they stay behind all of them: a later SLO's
        # rules go in ahead of the first alias.  (Behind only the first
        # SLO's, an alias read the others' previous cycle.)
        for window in self._distinct_windows():
            for rule in (self._burn_rule(slo, window), self._ratio_rule(slo, window)):
                self.recording.add_rule(rule, before=self._first_alias)
        if self._first_alias is None:
            # Chained aliases: read the suffixed series just recorded and
            # re-emit them with a window label for the dashboard heatmap.
            aliases = [
                RecordingRule(
                    record="slo_burn_rate",
                    expr=burn_metric_name(window),
                    labels={"window": window},
                )
                for window in self._distinct_windows()
            ]
            for alias in aliases:
                self.recording.add_rule(alias)
            self._first_alias = aliases[0]
        return collector

    def _distinct_windows(self) -> list[str]:
        seen: list[str] = []
        for w in self.windows:
            for d in (w.short, w.long):
                if d not in seen:
                    seen.append(d)
        return seen

    def _burn_rule(self, slo: SLO, window: str) -> RecordingRule:
        # The `> 0` guard drops the sample when the window saw no
        # traffic: no sample means the burn alert *cannot* fire, which
        # is the correct reading of "nothing happened".
        good, total = slo.good_expr, slo.total_expr
        expr = (
            f"(increase({total}[{window}]) - increase({good}[{window}]))"
            f" / (increase({total}[{window}]) > 0)"
            f" / {slo.budget_rate:g}"
        )
        return RecordingRule(record=burn_metric_name(window), expr=expr)

    def _ratio_rule(self, slo: SLO, window: str) -> RecordingRule:
        good, total = slo.good_expr, slo.total_expr
        expr = (
            f"(increase({total}[{window}]) - increase({good}[{window}]))"
            f" / (increase({total}[{window}]) > 0)"
        )
        return RecordingRule(record=error_ratio_metric_name(window), expr=expr)

    # ------------------------------------------------------------------
    # Alerting rules (vmalert)
    # ------------------------------------------------------------------
    def rule_specs(self) -> list[RuleSpec]:
        """Multi-window burn alerting rules, one per configured tier.

        Global across SLOs: the expressions select every recorded burn
        series and the per-SLO labels ride through, so registering a
        new SLO needs no new alerting rules.  ``for_`` stays 0 — the
        long window *is* the sustain condition.
        """
        specs: list[RuleSpec] = []
        for w in self.windows:
            short_m = burn_metric_name(w.short)
            long_m = burn_metric_name(w.long)
            labels = {
                SEVERITY_LABEL: _severity_label(w),
                CATEGORY_LABEL: CATEGORY_SLO,
                TIER_LABEL: w.severity,
                "long_window": w.long,
            }
            if self._cluster:
                labels["cluster"] = self._cluster
            specs.append(
                RuleSpec(
                    name=f"Slo{w.severity.capitalize()}Burn_{w.short}_{w.long}",
                    expr=(
                        f"{short_m} > {w.factor:g}"
                        f" and {long_m} > {w.factor:g}"
                    ),
                    for_="0s",
                    labels=labels,
                    annotations={
                        "summary": (
                            "SLO {{ $labels.slo }} burning error budget at "
                            "{{ $value }}x the allowed rate over "
                            f"{w.short} (also above {w.factor:g}x over "
                            f"{w.long})"
                        ),
                        "runbook": (
                            "Budget burns at this pace exhaust the SLO "
                            "window early; inspect the SLO Overview "
                            "dashboard burn heatmap."
                        ),
                    },
                )
            )
        return specs

    # ------------------------------------------------------------------
    # Periodic evaluation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One evaluation cycle: recording rules, then budgets."""
        self.recording.evaluate_all()
        self.evaluate_budgets()

    def evaluate_budgets(self) -> None:
        now = self._clock.now_ns
        burns = self._current_burns()
        for name, entry in self._entries.items():
            entry.budget.observe(now, entry.collector.snapshot())
            entry.history.append((now, burns.get(name, {})))
            self._check_exhaustion(entry, now)
        self.evaluations += 1
        if self._tracer is not None:
            self._tracer.record(
                "slo",
                "evaluate_budgets",
                None,
                now,
                now,
                attributes={"slos": str(len(self._entries))},
            )

    def _current_burns(self) -> dict[str, dict[str, float]]:
        """Latest recorded burn per SLO and distinct window: one
        evaluation reads the families back, each once for every SLO."""
        burns: dict[str, dict[str, float]] = {}
        evaluation = self._burn_group.instant(self._clock.now_ns)
        for window, family in self._burn_families.items():
            for sample in evaluation.samples(family):
                # An SLO's first series in label order, should it have
                # recorded several.
                burns.setdefault(sample.labels.get(SLO_LABEL, ""), {}).setdefault(
                    window, sample.value
                )
        return burns

    def _check_exhaustion(self, entry: _SloEntry, now: int) -> None:
        exhausted = entry.budget.exhausted
        if exhausted and not entry.exhausted:
            entry.exhausted = True
            entry.exhausted_since_ns = now
            self._notify_exhaustion(entry, now, AlertState.FIRING)
        elif not exhausted and entry.exhausted:
            entry.exhausted = False
            self._notify_exhaustion(entry, now, AlertState.RESOLVED)
            entry.exhausted_since_ns = None

    def _notify_exhaustion(
        self, entry: _SloEntry, now: int, state: AlertState
    ) -> None:
        if self._notifier is None:
            return
        labels = {
            ALERTNAME_LABEL: "SloErrorBudgetExhausted",
            SEVERITY_LABEL: "critical",
            CATEGORY_LABEL: CATEGORY_SLO,
            TIER_LABEL: "page",
            SLO_LABEL: entry.slo.name,
        }
        if self._cluster:
            labels["cluster"] = self._cluster
        remaining = entry.budget.remaining_ratio()
        event = AlertEvent(
            labels=LabelSet(labels),
            annotations={
                "summary": (
                    f"SLO {entry.slo.name} has exhausted its "
                    f"{entry.slo.window} error budget "
                    f"(remaining {remaining * 100.0:.1f}%)"
                ),
                "burn_history": self._format_history(entry),
                "description": entry.slo.describe(),
            },
            state=state,
            value=remaining,
            started_at_ns=entry.exhausted_since_ns or now,
            fired_at_ns=now,
            generator="slo-manager",
        )
        self.exhaustion_events += 1
        self._notifier(event)

    def _format_history(self, entry: _SloEntry) -> str:
        """Compact burn history attached to the exhaustion incident."""
        rows = []
        for ts, burns in list(entry.history)[-12:]:
            pairs = " ".join(
                f"{w}={v:.1f}x" for w, v in sorted(burns.items())
            )
            rows.append(f"t={ts / NANOS_PER_SECOND:.0f}s {pairs or '-'}")
        return "; ".join(rows)

    # ------------------------------------------------------------------
    # Introspection / injection
    # ------------------------------------------------------------------
    def slos(self) -> list[SLO]:
        return [e.slo for e in self._entries.values()]

    def collector(self, name: str) -> SliCollector:
        entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(
                f"unknown SLO {name!r}; registered: "
                f"{sorted(self._entries) or 'none'}"
            )
        return entry.collector

    def inject(self, name: str, good: float, bad: float) -> None:
        """Degrade (or boost) an SLI synthetically — the fault hook."""
        self.collector(name).inject(good, bad)

    def budget(self, name: str) -> ErrorBudget:
        entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(f"unknown SLO {name!r}")
        return entry.budget

    def burn_history(self, name: str) -> list[tuple[int, dict[str, float]]]:
        entry = self._entries.get(name)
        if entry is None:
            raise ValidationError(f"unknown SLO {name!r}")
        return list(entry.history)

    def status(self) -> list[dict[str, object]]:
        """Per-SLO status rows for ``logcli slo`` and health summaries.

        Fast/slow burn are the first (fastest-paging) configured tier's
        short- and long-window recorded burns.
        """
        fast_w = self.windows[0].short
        slow_w = self.windows[0].long
        rows: list[dict[str, object]] = []
        current = self._current_burns()
        for name in sorted(self._entries):
            entry = self._entries[name]
            burns = current.get(name, {})
            state = "ok"
            if entry.exhausted:
                state = "exhausted"
            else:
                for w in self.windows:
                    short_b = burns.get(w.short, 0.0)
                    long_b = burns.get(w.long, 0.0)
                    if short_b > w.factor and long_b > w.factor:
                        state = w.severity
                        if w.is_page:
                            break
            rows.append(
                {
                    "slo": name,
                    "objective": entry.slo.objective,
                    "window": entry.slo.window,
                    "budget_remaining": entry.budget.remaining_ratio(),
                    "fast_burn": burns.get(fast_w, 0.0),
                    "slow_burn": burns.get(slow_w, 0.0),
                    "state": state,
                }
            )
        return rows
