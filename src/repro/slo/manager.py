"""SloManager: recording rules, budgets, burn alerts, escalation.

The manager owns the whole derived-data pipeline for every registered
SLO:

1. **Recording rules** — one error-ratio rule per distinct alerting
   window, over every SLO's SLI counters at once (the ``slo`` label
   rides through the join).  Each ratio sample of a registered SLO,
   divided by that SLO's budget, is its burn-rate sample; vmalert rules
   and dashboards then read precomputed series (``slo_burn_rate_5m``)
   not raw counters.  One read-back of the burn families feeds the
   labelled ``slo_burn_rate{window=...}`` alias family of the heatmap
   panel and the budgets' burn history.  The
   :class:`~repro.tsdb.recording.RecordingEngine` ingests and counts
   all three families.
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
from repro.common.vector import Evaluation
from repro.slo.budget import ErrorBudget
from repro.slo.burnrate import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    burn_metric_name,
    error_ratio_metric_name,
)
from repro.slo.model import SLI_GOOD_METRIC, SLI_TOTAL_METRIC, SLO, SLO_LABEL
from repro.slo.sources import SliCollector, SliSource
from repro.tempo.tracer import Tracer
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.recording import RecordingEngine, RecordingRule, recorded_as
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
    #: What a burn sample is its ratio sample over: the budget rate as a
    #: rule's ``{budget_rate:g}`` literal reads, which the recorded
    #: values have always been divided by.
    budget_literal: float
    history: deque = field(default_factory=lambda: deque(maxlen=BURN_HISTORY_LEN))
    exhausted: bool = False
    exhausted_since_ns: int | None = None


def _severity_label(window: BurnWindow) -> str:
    return "critical" if window.is_page else "warning"


def _ratio_rule(window: str) -> RecordingRule:
    # The `> 0` guard drops the sample when the window saw no traffic:
    # no sample means the burn alert *cannot* fire, which is the correct
    # reading of "nothing happened".
    total = f"increase({SLI_TOTAL_METRIC}[{window}])"
    good = f"increase({SLI_GOOD_METRIC}[{window}])"
    return RecordingRule(
        record=error_ratio_metric_name(window),
        expr=f"({total} - {good}) / ({total} > 0)",
    )


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
        tracer: Tracer,
    ) -> None:
        self.windows = tuple(windows)
        if not self.windows:
            raise ValidationError("at least one burn window is required")
        self._clock = clock
        self._notifier = notifier
        self._cluster = cluster
        self._tracer = tracer
        self.recording = RecordingEngine(store, clock)
        windows = self._distinct_windows()
        #: Per distinct window, its error-ratio rule over every SLO; the
        #: windows' rules are one group, sharing its two SLI reads.
        self._ratio_rules = {window: _ratio_rule(window) for window in windows}
        self._ratio_group = promql.group(
            rule.ast for rule in self._ratio_rules.values()
        )
        #: Per distinct window, the heatmap alias of its burn family, with
        #: its :func:`recorded_as` table.  The aliases' reads are one
        #: group: the burn families read back, every SLO's series at
        #: once, which also feeds the budgets' burn history.
        self._aliases: dict[str, tuple[RecordingRule, dict[LabelSet, LabelSet]]] = {
            window: (
                RecordingRule(
                    record="slo_burn_rate",
                    expr=burn_metric_name(window),
                    labels={"window": window},
                ),
                {},
            )
            for window in windows
        }
        self._burn_group = promql.group(
            alias.ast for alias, _ in self._aliases.values()
        )
        self._entries: dict[str, _SloEntry] = {}
        self.evaluations = 0
        self.exhaustion_events = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, slo: SLO, source: SliSource) -> SliCollector:
        """Register ``slo`` backed by ``source``: the per-window rules
        record its series from the next tick on."""
        if slo.name in self._entries:
            raise ValidationError(f"SLO {slo.name!r} already registered")
        collector = SliCollector(source)
        self._entries[slo.name] = _SloEntry(
            slo=slo,
            collector=collector,
            budget=ErrorBudget(slo),
            budget_literal=float(f"{slo.budget_rate:g}"),
        )
        return collector

    def _distinct_windows(self) -> list[str]:
        seen: list[str] = []
        for w in self.windows:
            for d in (w.short, w.long):
                if d not in seen:
                    seen.append(d)
        return seen

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
        """One evaluation cycle: recording, then budgets."""
        self.evaluate_budgets(self._record())

    def _record(self) -> Evaluation:
        """Each window's error ratio and burn for every registered SLO,
        then the burn families read back and re-emitted as the heatmap
        aliases; returns the read-back."""
        now = self._clock.now_ns
        recorded = 0
        ratios = self._ratio_group.instant(now)
        for window, rule in self._ratio_rules.items():
            burn = burn_metric_name(window)
            for sample in ratios.samples(rule.ast):
                entry = self._entries.get(sample.labels.get(SLO_LABEL, ""))
                if entry is None:
                    continue  # a series of no SLO registered here
                recorded += self.recording.record(
                    rule.record, sample.labels, sample.value
                )
                recorded += self.recording.record(
                    burn, sample.labels, sample.value / entry.budget_literal
                )
        burns = self._burn_group.instant(now)
        for alias, outputs in self._aliases.values():
            for sample in burns.samples(alias.ast):
                labels = recorded_as(alias, outputs, sample.labels)
                recorded += self.recording.record(alias.record, labels, sample.value)
        self._tracer.record(
            "recording",
            "evaluate_rules",
            attributes={
                "rules": len(self._ratio_rules) + len(self._aliases),
                "samples": recorded,
            },
        )
        return burns

    def evaluate_budgets(self, burns: Evaluation) -> None:
        """Observe every budget and check it for exhaustion; ``burns`` is
        this cycle's read-back of the burn families."""
        now = self._clock.now_ns
        current = self._current_burns(burns)
        for name, entry in self._entries.items():
            entry.budget.observe(now, entry.collector.snapshot())
            entry.history.append((now, current.get(name, {})))
            self._check_exhaustion(entry, now)
        self.evaluations += 1
        self._tracer.record(
            "slo", "evaluate_budgets", attributes={"slos": len(self._entries)}
        )

    def _current_burns(self, burns: Evaluation) -> dict[str, dict[str, float]]:
        """Latest recorded burn per SLO and distinct window, out of one
        evaluation of the burn families."""
        current: dict[str, dict[str, float]] = {}
        for window, (alias, _) in self._aliases.items():
            for sample in burns.samples(alias.ast):
                # An SLO's first series in label order, should it have
                # recorded several.
                current.setdefault(sample.labels.get(SLO_LABEL, ""), {}).setdefault(
                    window, sample.value
                )
        return current

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
            started_at_ns=(
                now if entry.exhausted_since_ns is None else entry.exhausted_since_ns
            ),
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
        current = self._current_burns(self._burn_group.instant(self._clock.now_ns))
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
