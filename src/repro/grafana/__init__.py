"""Grafana-like visualization layer.

"Loki has no UI, thus data is visualized in Grafana" (paper §IV.A).
Dashboards here hold panels; each panel runs a LogQL or PromQL query
against its datasource, the query engine itself, and renders to text —
log tables for Figure 4/7, ASCII time-series charts for Figure 5, stat
tiles for overview rows.
The point is the *single pane of glass*: one dashboard mixing log-derived
and metric-derived panels over the two stores.
"""

from repro.grafana.panels import LogsPanel, TimeSeriesPanel, StatPanel, TopListPanel
from repro.grafana.dashboard import Dashboard
from repro.grafana.render import render_chart, render_log_table

__all__ = [
    "LogsPanel",
    "TimeSeriesPanel",
    "StatPanel",
    "TopListPanel",
    "Dashboard",
    "render_chart",
    "render_log_table",
]
