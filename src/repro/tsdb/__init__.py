"""VictoriaMetrics-like time-series database.

Metrics from Prometheus-style exporters (scraped by
:mod:`repro.tsdb.vmagent`) and from the Telemetry-API consumer pods land
here; :mod:`repro.tsdb.vmalert` queries it "continuously with predefined
alerting rules created by NERSC" and forwards events to Alertmanager
(paper §III / §IV workflow).

Storage is column-oriented: each series keeps NumPy arrays of timestamps
and values with amortised-doubling appends, so range selections are
vectorised ``searchsorted`` slices rather than Python loops.
"""

from repro.tsdb.storage import TimeSeriesStore
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.recording import RecordingEngine, RecordingRule
from repro.tsdb.vmagent import VMAgent, ScrapeTarget
from repro.tsdb.vmalert import VMAlert

__all__ = [
    "TimeSeriesStore",
    "PromQLEngine",
    "RecordingEngine",
    "RecordingRule",
    "VMAgent",
    "ScrapeTarget",
    "VMAlert",
]
