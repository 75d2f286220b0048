"""The alert event contract between rule evaluators and Alertmanager.

Both vmalert (metrics) and the Loki Ruler (logs) emit the same shape —
which is precisely why the paper can unify metric and log alerting "in
the stage of visualization and alerting" despite separate storage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.labels import LabelSet


class AlertState(enum.Enum):
    FIRING = "firing"
    RESOLVED = "resolved"


#: Label names with special meaning, following Prometheus conventions.
ALERTNAME_LABEL = "alertname"
SEVERITY_LABEL = "severity"


@dataclass(frozen=True)
class AlertEvent:
    """One alert notification from a rule evaluator.

    ``labels`` identify the alert (rule labels + series labels, including
    ``alertname``); ``annotations`` carry rendered human-readable text;
    ``value`` is the query value that triggered the rule.
    """

    labels: LabelSet
    annotations: dict[str, str]
    state: AlertState
    value: float
    started_at_ns: int
    fired_at_ns: int
    generator: str = ""  # which evaluator produced it (ruler / vmalert)

    @property
    def name(self) -> str:
        return self.labels.get(ALERTNAME_LABEL, "<unnamed>")

    @property
    def severity(self) -> str:
        return self.labels.get(SEVERITY_LABEL, "none")

    def fingerprint(self) -> int:
        """Identity of the alert series (stable across state changes)."""
        return hash(self.labels)


@dataclass
class AlertSeriesState:
    """Rule-side lifecycle state for one (rule, label-set) pair, kept
    while the series is active (and until its RESOLVED, if it fired)."""

    #: When the series became active, this time.
    pending_since_ns: int
    firing: bool = False
    last_value: float = 0.0
    extra: dict[str, object] = field(default_factory=dict)
