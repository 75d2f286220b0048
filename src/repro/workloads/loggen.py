"""Seeded syslog and container-log generators.

Message templates mirror what an HPC node fleet actually writes: slurmd
job lifecycle, sshd auth, kernel I/O errors, Lustre/GPFS client chatter.
Weights keep the severity mix realistic (errors are rare, info dominates)
so alerting rules see believable signal-to-noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.jsonutil import dumps_compact
from repro.common.xname import XName

#: (weight, severity, facility/program, template with {} slots)
_SYSLOG_TEMPLATES: list[tuple[float, str, str, str]] = [
    (30.0, "info", "slurmd", "launch task {job}.0 request from UID 5{n:04d}"),
    (20.0, "info", "slurmd", "task {job}.0 exited with code 0"),
    (12.0, "info", "sshd", "Accepted publickey for user{n:03d} from 10.0.{b}.{c}"),
    (8.0, "info", "systemd", "Started Session {n} of user user{n:03d}."),
    (6.0, "warning", "kernel", "CPU{c}: Core temperature above threshold"),
    (5.0, "info", "lustre", "client connected to MDS lfs-MDT0000"),
    (4.0, "warning", "sshd", "Failed password for invalid user admin from 10.9.{b}.{c}"),
    (3.0, "err", "kernel", "nvme{c}: I/O error, dev nvme{c}n1, sector {n}"),
    (2.0, "err", "slurmd", "error: Node {xname} rebooted unexpectedly"),
    (1.5, "err", "gpfs", "mmfsd: CRC error on NSD nsd{c:02d}, retrying"),
    (1.0, "crit", "kernel", "EDAC MC0: UE memory read error on DIMM_{c}"),
]

#: The ``cluster`` label every generated stream carries.
CLUSTER = "perlmutter"

_CONTAINER_APPS = (
    "telemetry-api",
    "kafka-consumer",
    "redfish-collector",
    "vmagent",
    "loki-distributor",
)


@dataclass(frozen=True)
class GeneratedLog:
    """One generated log line with its stream labels."""

    timestamp_ns: int
    labels: dict[str, str]
    line: str


class SyslogGenerator:
    """Weighted-template syslog generator over a set of node xnames."""

    def __init__(self, nodes: list[XName], seed: int = 0) -> None:
        if not nodes:
            raise ValidationError("need at least one node")
        self._nodes = [str(x) for x in nodes]
        self._rng = np.random.default_rng(seed)
        weights = np.array([t[0] for t in _SYSLOG_TEMPLATES])
        self._probs = weights / weights.sum()
        self._job_counter = 100000

    def generate(self, count: int, start_ns: int, interval_ns: int) -> list[GeneratedLog]:
        """Generate ``count`` lines spaced ``interval_ns`` apart."""
        if count < 0:
            raise ValidationError("count must be non-negative")
        choices = self._rng.choice(len(_SYSLOG_TEMPLATES), size=count, p=self._probs)
        node_idx = self._rng.integers(0, len(self._nodes), size=count)
        rand_n = self._rng.integers(0, 10000, size=count)
        rand_b = self._rng.integers(0, 256, size=count)
        rand_c = self._rng.integers(0, 8, size=count)
        out = []
        for i in range(count):
            _w, severity, program, template = _SYSLOG_TEMPLATES[int(choices[i])]
            xname = self._nodes[int(node_idx[i])]
            self._job_counter += 1
            line = template.format(
                job=self._job_counter,
                n=int(rand_n[i]),
                b=int(rand_b[i]),
                c=int(rand_c[i]),
                xname=xname,
            )
            out.append(
                GeneratedLog(
                    timestamp_ns=start_ns + i * interval_ns,
                    labels={
                        "cluster": CLUSTER,
                        "data_type": "syslog",
                        "hostname": xname,
                        "facility": program,
                        "severity": severity,
                    },
                    line=f"{program}[{int(rand_n[i]) + 1000}]: {line}",
                )
            )
        return out


class ContainerLogGenerator:
    """JSON-line logs from the k3s service pods (paper Fig. 1 green box)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def generate(self, count: int, start_ns: int, interval_ns: int) -> list[GeneratedLog]:
        if count < 0:
            raise ValidationError("count must be non-negative")
        apps = self._rng.integers(0, len(_CONTAINER_APPS), size=count)
        levels = self._rng.choice(
            ["info", "info", "info", "warning", "error"], size=count
        )
        latencies = self._rng.gamma(2.0, 12.0, size=count)
        batches = self._rng.integers(1, 500, size=count)
        out = []
        for i in range(count):
            app = _CONTAINER_APPS[int(apps[i])]
            payload = {
                "level": str(levels[i]),
                "msg": "batch forwarded",
                "records": int(batches[i]),
                "latency_ms": round(float(latencies[i]), 2),
            }
            if levels[i] == "error":
                payload["msg"] = "send failed, will retry"
                payload["retries"] = int(self._rng.integers(1, 5))
            out.append(
                GeneratedLog(
                    timestamp_ns=start_ns + i * interval_ns,
                    labels={
                        "cluster": CLUSTER,
                        "data_type": "container_log",
                        "app": app,
                        "namespace": "monitoring",
                    },
                    line=dumps_compact(payload),
                )
            )
        return out
