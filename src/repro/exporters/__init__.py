"""Prometheus-style exporters (paper Figure 1, top row).

Three provenances, as the paper lists them:

* installed by HPE — :class:`~repro.exporters.node.NodeExporter`;
* community, installed by NERSC — :class:`~repro.exporters.blackbox.BlackboxExporter`,
  :class:`~repro.exporters.kafka_exporter.KafkaExporter`;
* written by NERSC — :class:`~repro.exporters.aruba.ArubaExporter`.

Every exporter is :class:`~repro.exporters.exporter.Exporter` over its own
metric tables and exposes ``scrape()``, returning the typed batch of its
readings (:class:`~repro.exporters.exporter.Scrape`) that vmagent stores;
the batch's ``text()`` is the Prometheus text exposition, which
:mod:`repro.exporters.textformat` formats and parses.

This package exports by one rule: the four exporters the paper names and
the text format.  A plane's self-exporter (``ring_exporter`` …
``slo_exporter``) is imported from its own module by the plane that wires
it.
"""

from repro.exporters.textformat import MetricPoint, parse_exposition
from repro.exporters.node import NodeExporter
from repro.exporters.blackbox import BlackboxExporter, ProbeTarget
from repro.exporters.kafka_exporter import KafkaExporter
from repro.exporters.aruba import ArubaExporter

__all__ = [
    "MetricPoint",
    "parse_exposition",
    "NodeExporter",
    "BlackboxExporter",
    "ProbeTarget",
    "KafkaExporter",
    "ArubaExporter",
]
