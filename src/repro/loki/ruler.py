"""The Loki Ruler: continuous evaluation of LogQL alerting rules.

Paper §III.A / §IV.A: "Loki includes a component called the Ruler which
is responsible for continually evaluating a set of configurable queries
and performing an action based on the result ... Loki Ruler alerting
rules share the same format as Prometheus alerting rules. If the return
value is greater than zero and it lasts more than one minute, an alert
will be generated."

The pending→firing→resolved state machine lives in
:class:`repro.alerting.rules.RuleEvaluator`; this subclass binds it to a
LogQL engine and validates that rule expressions are metric queries.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import QueryError
from repro.common.simclock import SimClock
from repro.common.vector import Sample
from repro.alerting.events import AlertEvent
from repro.alerting.rules import RuleEvaluator
from repro.loki.logql.ast import LogPipeline, MetricExpr
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse


class Ruler(RuleEvaluator):
    """Evaluates LogQL alerting rules against a Loki store."""

    def __init__(
        self,
        engine: LogQLEngine,
        clock: SimClock,
        notifier: Callable[[AlertEvent], None],
    ) -> None:
        super().__init__(clock, notifier, "loki-ruler")
        self._engine = engine

    def _compile(self, expr: str) -> MetricExpr:
        ast = parse(expr)
        if isinstance(ast, LogPipeline):
            raise QueryError(
                "alerting rules need a metric query, not a log query"
            )
        return ast

    def _instant(self, time_ns: int) -> Callable[[MetricExpr], list[Sample]]:
        return self._engine.instant(time_ns).samples
