"""The declarative SLO: objective, budget window, and a good/total SLI.

An SLO here is purely data — "99.9% of ingest pushes succeed, measured
over 30 days".  Every SLO's SLI is the pair of counter families
``slo_sli_good_total`` / ``slo_sli_total`` under its ``slo`` label, so
the :class:`~repro.slo.manager.SloManager` needs one error-ratio rule
per alerting window over all of them, not a rule set per SLO.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.common.durations import format_duration_ns, parse_duration_ns
from repro.common.errors import ValidationError
from repro.slo.burnrate import budget_rate

#: Every SLO's SLI counters carry this label, keyed by the SLO name;
#: it is the join key that keeps one SLO's windows matching each other
#: and different SLOs apart.
SLO_LABEL = "slo"

#: Counter families the built-in exporter publishes for every SLO.
SLI_GOOD_METRIC = "slo_sli_good_total"
SLI_TOTAL_METRIC = "slo_sli_total"

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")


@dataclass(frozen=True)
class SLO:
    """One service-level objective over the SLI counter families'
    series labelled with its name."""

    name: str
    description: str
    objective: float = 0.999
    window: str = "30d"

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValidationError(
                f"SLO name {self.name!r} must be lowercase kebab-case "
                "(it becomes the `slo` label value)"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValidationError(
                f"objective must be in (0, 1) exclusive, got {self.objective}"
            )
        if parse_duration_ns(self.window) <= 0:
            raise ValidationError("SLO window must be positive")

    @property
    def budget_rate(self) -> float:
        """Allowed error fraction: ``1 - objective``."""
        return budget_rate(self.objective)

    @property
    def window_ns(self) -> int:
        return parse_duration_ns(self.window)

    def describe(self) -> str:
        """Human one-liner for dashboards and ``logcli slo``."""
        pct = self.objective * 100.0
        return (
            f"{self.name}: {pct:g}% over "
            f"{format_duration_ns(self.window_ns)} — {self.description}"
        )
