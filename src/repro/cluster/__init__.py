"""Synthetic Perlmutter-like cluster.

The reproduction cannot observe real Perlmutter hardware, so this package
models the parts of the machine the monitoring stack sees:

* :mod:`repro.cluster.topology` — cabinets → chassis → blades → nodes and
  Rosetta switches, addressed by Shasta xnames (each switch serves eight
  compute nodes, as the paper states).
* :mod:`repro.cluster.sensors` — seeded sensor models (temperature, power,
  humidity, fan speed, leak detectors) producing deterministic readings.
* :mod:`repro.cluster.faults` — fault injection: cabinet coolant leaks,
  switch state changes, node crashes, thermal excursions, and a registry
  for the kinds whoever builds the rest of the stack adds.
* :mod:`repro.cluster.gpfs` — synthetic GPFS health (paper future work §V).
"""

from repro.cluster.topology import ClusterSpec, Cluster, SwitchState
from repro.cluster.faults import FaultInjector, Fault, FaultKind
from repro.cluster.sensors import SensorKind, SensorBank

__all__ = [
    "ClusterSpec",
    "Cluster",
    "SwitchState",
    "FaultInjector",
    "Fault",
    "FaultKind",
    "SensorKind",
    "SensorBank",
]
