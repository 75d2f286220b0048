"""Seeded sensor models producing deterministic telemetry.

Each cabinet, chassis, node, switch and cooling unit carries sensors
(temperature, humidity, power, fan speed — paper §IV workflow step 3).
Readings come from per-sensor Ornstein-Uhlenbeck-style mean-reverting
walks, vectorised with NumPy across the whole bank so that sampling the
full machine is a handful of array operations rather than a Python loop
per sensor (see the HPC guide: vectorise, avoid per-element work).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.common.errors import NotFoundError, ValidationError
from repro.common.xname import XName


class SensorKind(enum.Enum):
    TEMPERATURE_C = "temperature_celsius"
    HUMIDITY_PCT = "humidity_percent"
    POWER_W = "power_watts"
    FAN_RPM = "fan_speed_rpm"
    COOLANT_FLOW_LPM = "coolant_flow_lpm"


#: (mean, stddev of the stationary distribution, mean-reversion rate)
_KIND_PARAMS: dict[SensorKind, tuple[float, float, float]] = {
    SensorKind.TEMPERATURE_C: (35.0, 4.0, 0.15),
    SensorKind.HUMIDITY_PCT: (45.0, 5.0, 0.05),
    SensorKind.POWER_W: (450.0, 60.0, 0.25),
    SensorKind.FAN_RPM: (9000.0, 700.0, 0.30),
    SensorKind.COOLANT_FLOW_LPM: (60.0, 3.0, 0.10),
}


@dataclass(frozen=True)
class SensorId:
    """Identity of one physical sensor: component xname + kind + index."""

    xname: XName
    kind: SensorKind
    index: int = 0

    def __str__(self) -> str:
        return f"{self.xname}/{self.kind.value}/{self.index}"


class SensorBank:
    """A vectorised bank of sensors sharing one RNG.

    All sensor values live in one ``float64`` array; :meth:`step` advances
    every walk at once.  Per-sensor offsets (fault-injected excursions) are
    applied additively at read time so fault injection never perturbs the
    underlying deterministic walk.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._ids: list[SensorId] = []
        self._index: dict[SensorId, int] = {}
        self._values = np.empty(0, dtype=np.float64)
        self._means = np.empty(0, dtype=np.float64)
        self._sigmas = np.empty(0, dtype=np.float64)
        self._thetas = np.empty(0, dtype=np.float64)
        self._offsets = np.empty(0, dtype=np.float64)
        self._dirty = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, sensor: SensorId) -> None:
        if sensor in self._index:
            raise ValidationError(f"duplicate sensor: {sensor}")
        self._index[sensor] = len(self._ids)
        self._ids.append(sensor)
        self._dirty = True

    def add_many(self, sensors: list[SensorId]) -> None:
        for s in sensors:
            self.add(s)

    def _materialise(self) -> None:
        if not self._dirty:
            return
        n = len(self._ids)
        old_n = len(self._values)
        means = np.empty(n)
        sigmas = np.empty(n)
        thetas = np.empty(n)
        for i, sid in enumerate(self._ids):
            mean, sigma, theta = _KIND_PARAMS[sid.kind]
            means[i], sigmas[i], thetas[i] = mean, sigma, theta
        values = np.empty(n)
        offsets = np.zeros(n)
        values[:old_n] = self._values
        offsets[:old_n] = self._offsets
        # New sensors start at a draw from their stationary distribution.
        if n > old_n:
            values[old_n:] = means[old_n:] + sigmas[old_n:] * self._rng.standard_normal(
                n - old_n
            )
        self._values, self._means, self._sigmas, self._thetas, self._offsets = (
            values,
            means,
            sigmas,
            thetas,
            offsets,
        )
        self._dirty = False

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, steps: int = 1) -> None:
        """Advance every sensor walk ``steps`` ticks (vectorised)."""
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        self._materialise()
        if len(self._values) == 0:
            return
        for _ in range(steps):
            noise = self._rng.standard_normal(len(self._values))
            # OU update: pull toward the mean, inject scaled noise.
            self._values += self._thetas * (self._means - self._values)
            self._values += self._sigmas * np.sqrt(2.0 * self._thetas) * noise

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def position(self, sensor: SensorId) -> int:
        """Where ``sensor`` sits in :meth:`snapshot` (registration order):
        a reader that resolves its sensors once reads them by position."""
        try:
            return self._index[sensor]
        except KeyError:
            raise NotFoundError(f"no such sensor: {sensor}") from None

    def read(self, sensor: SensorId) -> float:
        self._materialise()
        i = self.position(sensor)
        return float(self._values[i] + self._offsets[i])

    def snapshot(self) -> list[float]:
        """Every sensor's reading, in registration order: the same IEEE
        sum :meth:`read` takes, for the whole bank at once."""
        self._materialise()
        return (self._values + self._offsets).tolist()

    def read_all(self) -> list[tuple[SensorId, float]]:
        """Snapshot every sensor (ordered by registration)."""
        return list(zip(self._ids, self.snapshot()))

    def sensors(self) -> list[SensorId]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def set_offset(self, sensor: SensorId, offset: float) -> None:
        """Apply an additive excursion (thermal fault, power spike...)."""
        self._materialise()
        i = self.position(sensor)
        self._offsets[i] = offset

    def clear_offsets(self) -> None:
        self._materialise()
        self._offsets[:] = 0.0


def build_standard_bank(cluster, seed: int = 0) -> SensorBank:
    """Instrument a :class:`~repro.cluster.topology.Cluster` with the
    standard sensor complement: per-node temperature and power, per-chassis
    fan and coolant flow, per-cabinet temperature and humidity."""
    bank = SensorBank(seed=seed)
    sensors: list[SensorId] = []
    for x in sorted(cluster.nodes):
        sensors.append(SensorId(x, SensorKind.TEMPERATURE_C))
        sensors.append(SensorId(x, SensorKind.POWER_W))
    for x in sorted(cluster.chassis):
        sensors.append(SensorId(x, SensorKind.FAN_RPM))
        sensors.append(SensorId(x, SensorKind.COOLANT_FLOW_LPM))
    for x in sorted(cluster.cabinets):
        sensors.append(SensorId(x, SensorKind.TEMPERATURE_C))
        sensors.append(SensorId(x, SensorKind.HUMIDITY_PCT))
    bank.add_many(sensors)
    return bank
