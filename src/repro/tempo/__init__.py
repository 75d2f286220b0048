"""repro.tempo — distributed tracing of the monitoring pipeline itself.

The paper's stack observes Perlmutter but is blind to itself: §III.D's
concern about the telemetry pipeline's own silent failures is covered only
by the ``absent()`` rule.  This package adds the missing third pillar — a
Grafana-Tempo-like tracing subsystem that instruments the reproduction's
own hot path (Redfish/FM event birth → broker → Telemetry API → consumer
pods → Loki/TSDB → Ruler/vmalert → Alertmanager → Slack/ServiceNow) so a
single leak event yields one coherent trace with per-stage timings on the
simulated clock.

Layout mirrors ``repro.loki``:

* :mod:`repro.tempo.model` — spans and W3C-traceparent span contexts;
* :mod:`repro.tempo.tracer` — the in-process tracer with head sampling;
* :mod:`repro.tempo.store` — the trace store (search, assembly, eviction);
* :mod:`repro.tempo.traceql` — a TraceQL subset (lexer → parser → engine);
* :mod:`repro.tempo.instrument` — pipeline glue (envelope headers, alert
  correlation, receiver wrappers);
* :mod:`repro.tempo.metrics` — tracer self-metrics exported into the TSDB
  with exemplar trace IDs.
"""

from repro.tempo.model import Span, SpanContext, SpanStatus
from repro.tempo.store import TraceStore, TraceSummary
from repro.tempo.tracer import Tracer

__all__ = [
    "Span",
    "SpanContext",
    "SpanStatus",
    "TraceStore",
    "TraceSummary",
    "Tracer",
]
