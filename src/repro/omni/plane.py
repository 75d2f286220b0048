"""Proactive anomaly detection as a framework plane (DESIGN §7, §16):
everything ``enable_proactive_detection`` wires — §II/§III.D's "machine
learning methods for proactive incident response" as one more source
behind Alertmanager."""

from __future__ import annotations

from repro.common.simclock import Job, seconds
from repro.core.plane import Plane
from repro.omni.anomaly import EwmaDetector, ProactiveMonitor

#: The metrics the monitor scans, with the severity of their alerts.
WATCHED = (("node_temp_celsius", "warning"), ("gpfs_write_mb_s", "warning"))


class ProactivePlane(Plane):
    name = "proactive"
    flag = "enable_proactive_detection"
    components = ("proactive",)

    def build_alerting(self, fw):
        # z=6 with a long warmup keeps the fleet-wide false-positive
        # rate at zero over the sensors' own noise, while a real
        # excursion (tens of degrees) scores far beyond it.
        fw.proactive = ProactiveMonitor(
            fw.warehouse.tsdb,
            fw.clock,
            fw.alertmanager.receive,
            detector=EwmaDetector(z_threshold=6.0, warmup=15),
        )
        for metric, severity in WATCHED:
            fw.proactive.watch_metric(metric, severity=severity)

    def jobs(self, fw):
        return [Job("proactive.scan", seconds(300), fw.proactive.scan_once)]
