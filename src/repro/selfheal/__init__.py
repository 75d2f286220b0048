"""repro.selfheal: failure detection, zone-aware replication, repair.

The ingest ring (``repro.ring``) tolerates crashes *passively*: quorum
writes keep accepting and quorum reads keep answering while a replica is
down, but nothing ever notices the failure, routes around it, or
restores the lost redundancy.  This package closes that loop:

* a heartbeat-driven **failure detector** moves ring members through
  ``ACTIVE → SUSPECT → DEAD → FORGOTTEN`` on the simulated clock
  (:mod:`repro.selfheal.memberlist`, :mod:`repro.selfheal.detector`);
* the distributor consults the shared memberlist to skip unhealthy
  replicas on writes and reads (zone-aware placement keeps the
  survivors failure-independent);
* an **anti-entropy repairer** re-replicates a dead member's streams
  onto the surviving ring owners, then forgets the member and releases
  its tokens (:mod:`repro.selfheal.repairer`);
* a **supervisor** restarts crashed-but-recoverable ingesters with
  capped exponential backoff (:mod:`repro.selfheal.supervisor`).

:class:`repro.selfheal.manager.SelfHealManager` composes the four and is
what the framework wires in behind ``enable_self_healing``.
"""

from repro.selfheal.detector import FailureDetector, FailureDetectorConfig
from repro.selfheal.manager import SelfHealManager
from repro.selfheal.memberlist import Memberlist, MemberState, MemberView
from repro.selfheal.repairer import RepairReport, RingRepairer, RingRepairerConfig
from repro.selfheal.supervisor import IngesterSupervisor, SupervisorConfig

__all__ = [
    "FailureDetector",
    "FailureDetectorConfig",
    "IngesterSupervisor",
    "MemberState",
    "MemberView",
    "Memberlist",
    "RepairReport",
    "RingRepairer",
    "RingRepairerConfig",
    "SelfHealManager",
    "SupervisorConfig",
]
