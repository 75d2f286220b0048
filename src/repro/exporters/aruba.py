"""aruba-exporter equivalent: the custom exporter NERSC wrote.

Models a management-network Aruba switch fleet with per-port status and
traffic counters.  Port flaps are seeded-random but deterministic, so
rules that alert on ``aruba_port_up == 0`` are reproducible.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import ValidationError
from repro.exporters.exporter import Exporter, Reading

_PORTS = (
    ("aruba_port_up", "gauge", "Aruba switch port status."),
    ("aruba_port_rx_bytes_total", "counter", "Received bytes."),
)


class ArubaExporter(Exporter):
    """Exports ``aruba_port_up`` and ``aruba_port_rx_bytes_total``."""

    def __init__(
        self,
        switches: int = 4,
        ports_per_switch: int = 48,
        seed: int = 0,
    ) -> None:
        if switches < 1 or ports_per_switch < 1:
            raise ValidationError("need at least one switch and port")
        self._rng = np.random.default_rng(seed)
        self._switches = switches
        self._ports = ports_per_switch
        #: Chance a port flips state at each step.
        self.flap_probability = 0.001
        self._up = np.ones((switches, ports_per_switch), dtype=bool)
        self._rx = np.zeros((switches, ports_per_switch), dtype=np.float64)
        super().__init__((_PORTS, self._read_ports))

    def step(self) -> None:
        """Advance the fleet: accumulate traffic, maybe flap ports."""
        traffic = self._rng.gamma(2.0, 5.0e6, size=self._rx.shape)
        self._rx += traffic * self._up  # down ports move no bytes
        flips = self._rng.random(self._up.shape) < self.flap_probability
        self._up ^= flips

    def force_port(self, switch: int, port: int, up: bool) -> None:
        """Deterministically set one port's state (fault injection)."""
        self._up[switch, port] = up

    def _read_ports(self) -> Iterator[Reading]:
        for s in range(self._switches):
            for p in range(self._ports):
                labels = {"switch": f"aruba-{s}", "port": str(p)}
                yield "aruba_port_up", self._up[s, p], labels
                yield "aruba_port_rx_bytes_total", self._rx[s, p], labels

    def down_ports(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(~self._up)
        return list(zip(rows.tolist(), cols.tolist()))
