"""vmalert: VictoriaMetrics' rule evaluator.

Paper §III: "Alerting is handled using vmalert for metrics, a component
of VictoriaMetrics, that queries the database based on predefined rules.
When the return value matches, vmalert sends an event to AlertManager."

Shares the Prometheus rule state machine with the Loki Ruler
(:class:`repro.alerting.rules.RuleEvaluator`).
"""

from __future__ import annotations

from typing import Callable

from repro.common.simclock import SimClock
from repro.common.vector import Sample
from repro.alerting.events import AlertEvent
from repro.alerting.rules import RuleEvaluator
from repro.tsdb.promql import PromExpr, PromQLEngine, parse_promql


class VMAlert(RuleEvaluator):
    """Evaluates PromQL alerting rules against the TSDB."""

    def __init__(
        self,
        engine: PromQLEngine,
        clock: SimClock,
        notifier: Callable[[AlertEvent], None],
    ) -> None:
        super().__init__(clock, notifier, "vmalert")
        self._group = engine.group()

    def _compile(self, expr: str) -> PromExpr:
        ast = parse_promql(expr)
        self._group.add(ast)
        return ast

    def _instant(self, time_ns: int) -> Callable[[PromExpr], list[Sample]]:
        return self._group.instant(time_ns).samples
