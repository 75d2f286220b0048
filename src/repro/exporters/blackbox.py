"""blackbox-exporter equivalent: endpoint probing.

The community exporter NERSC installs to check that services respond.
Probes are callables returning ``(success, latency_seconds)`` so any
in-process service (Telemetry API, broker, Loki gateway) can be probed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.errors import ValidationError
from repro.exporters.exporter import Exporter, Reading

_PROBES = (
    ("probe_success", "gauge", "Whether the probe succeeded."),
    ("probe_duration_seconds", "gauge", "Probe round-trip time."),
)


@dataclass(frozen=True)
class ProbeTarget:
    """One probed endpoint."""

    name: str
    probe: Callable[[], tuple[bool, float]]
    module: str = "http_2xx"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("probe target needs a name")


def _read_probes(targets: list[ProbeTarget]) -> Iterator[Reading]:
    for target in targets:
        try:
            ok, latency = target.probe()
        except Exception:
            ok, latency = False, 0.0
        labels = {"target": target.name, "module": target.module}
        yield "probe_success", bool(ok), labels
        yield "probe_duration_seconds", latency, labels


class BlackboxExporter(Exporter):
    """Exports ``probe_success`` and ``probe_duration_seconds``."""

    def __init__(self, targets: list[ProbeTarget]) -> None:
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate probe target names")
        self._targets = list(targets)
        super().__init__((_PROBES, _read_probes, self._targets))

    def add_target(self, target: ProbeTarget) -> None:
        if any(t.name == target.name for t in self._targets):
            raise ValidationError(f"duplicate probe target: {target.name}")
        self._targets.append(target)
