"""The paper's primary contribution: the integrated framework.

* :mod:`repro.core.transform` — the §IV.A data cleanup: raw Telemetry-API
  Redfish JSON (Fig. 2) → Loki push payload (Fig. 3);
* :mod:`repro.core.consumers` — the "K3s python pods" reading Kafka topics
  through the Telemetry API and writing to Loki / VictoriaMetrics;
* :mod:`repro.core.framework` — the full Figure-1 wiring: sources → bus →
  stores → rulers → Alertmanager → Slack + ServiceNow, plus dashboards;
* :mod:`repro.core.plane` / :mod:`repro.core.planes` — the hooks an
  optional feature plane implements, and the ordered list of them;
* :mod:`repro.core.faults` — the fault kinds the base stack owns, and
  the log flood the planes' fault handlers share;
* :mod:`repro.core.remediation` — automated remediation workflows;
* :mod:`repro.core.casestudies` — the two §IV case studies (cabinet leak,
  switch offline) as scripted end-to-end scenarios;
* :mod:`repro.core.mttr` — the MTTR study versus manual monitoring.
"""

from repro.core.transform import redfish_payload_to_push, clean_event
from repro.core.framework import MonitoringFramework, FrameworkConfig
from repro.core.remediation import AutoRemediator

__all__ = [
    "redfish_payload_to_push",
    "clean_event",
    "MonitoringFramework",
    "FrameworkConfig",
    "AutoRemediator",
]
