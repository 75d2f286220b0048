"""Recording rules: precomputed PromQL persisted back into the TSDB.

Prometheus and vmalert both support *recording rules* alongside alerting
rules: an expression evaluated on a fixed interval whose result is
written back into storage under a new metric name.  Dashboards and
alerts then read the precomputed series instead of re-deriving an
expensive ratio on every refresh — which is exactly what the SLO plane
needs, where four burn-rate windows per SLO would otherwise be computed
by the dashboard, by `logcli slo`, *and* by every alerting-rule
evaluation.

The one owner of recording rules, :class:`~repro.slo.manager.SloManager`,
evaluates them itself as :meth:`~repro.tsdb.promql.PromQLEngine.group`
evaluations; this module holds what those rules are
(:class:`RecordingRule`), the label set a result is recorded under
(:func:`recorded_as`) and the one writer, :class:`RecordingEngine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet
from repro.common.simclock import SimClock
from repro.tsdb.promql import PromExpr, parse_promql
from repro.tsdb.storage import TimeSeriesStore

#: Metric names must be exposition-safe: the lexer PromQL shares with
#: LogQL has no colon token, so unlike Prometheus the conventional
#: ``job:metric:rate5m`` colons are not allowed — use underscores.
_RECORD_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class RecordingRule:
    """One recording rule: ``record: <name>  expr: <promql>``."""

    record: str
    expr: str
    labels: dict[str, str] = field(default_factory=dict)
    #: ``expr`` parsed, once, when the rule is built; what its owner
    #: evaluates every cycle.
    ast: PromExpr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _RECORD_NAME_RE.match(self.record):
            raise ValidationError(
                f"recording rule output name {self.record!r} is not a "
                "valid metric name (colons are not supported)"
            )
        # Fails fast on a bad expression.
        object.__setattr__(self, "ast", parse_promql(self.expr))
        if METRIC_NAME_LABEL in self.labels:
            raise ValidationError(
                "recording rule labels may not override __name__; "
                "use `record` for the output name"
            )


#: Output label sets kept per rule; a rule over series that come and go
#: without end starts its table over rather than grow it.
MAX_OUTPUTS = 1 << 12


def recorded_as(
    rule: RecordingRule, outputs: dict[LabelSet, LabelSet], labels: LabelSet
) -> LabelSet:
    """The label set ``rule`` records a result series under: its name
    dropped, the rule's labels merged in.  The same every cycle, so done
    once per input label set and kept in ``outputs``."""
    recorded = outputs.get(labels)
    if recorded is None:
        recorded = labels.nameless()
        if rule.labels:
            recorded = recorded.with_labels(**rule.labels)
        if len(outputs) >= MAX_OUTPUTS:
            outputs.clear()
        outputs[labels] = recorded
    return recorded


class RecordingEngine:
    """Writes recorded series into the store at the current sim time and
    counts them; the owner evaluates its rules and hands it each sample."""

    def __init__(self, store: TimeSeriesStore, clock: SimClock) -> None:
        self._store = store
        self._clock = clock
        self.samples_recorded = 0

    def record(self, name: str, labels: LabelSet, value: float) -> bool:
        """Ingest one sample of the recorded series ``name`` at the current
        sim time and count it (the SLO plane's ratios, burns and heatmap
        aliases)."""
        if not self._store.ingest(name, labels, value, self._clock.now_ns):
            return False
        self.samples_recorded += 1
        return True
