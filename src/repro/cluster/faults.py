"""Fault injection for the synthetic cluster.

The paper's two case studies are triggered by physical faults: a coolant
leak in a cabinet zone (§IV.A) and a Rosetta switch leaving the ONLINE
state (§IV.B).  The injector schedules faults on the simulated clock and
records ground truth so the MTTR study (bench C5) can compare *fault
time* against *alert time*.

:class:`FaultKind` is the one catalogue of kinds; what a kind *does* is a
handler in a registry (DESIGN §16).  The injector itself registers the
machine kinds, which it can apply with what its constructor is given (the
cluster, the sensor bank).  Every other kind is registered by whoever
builds what the fault acts on — the base stack or a feature plane — with
:meth:`FaultInjector.register`, so this module names no plane.  A kind
nobody registered is refused by :meth:`FaultInjector.schedule`, before
anything reaches the clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock
from repro.common.xname import XName
from repro.cluster.sensors import SensorBank, SensorId, SensorKind
from repro.cluster.topology import Cluster, NodeState, SwitchState


class FaultKind(enum.Enum):
    CABINET_LEAK = "cabinet_leak"
    SWITCH_OFFLINE = "switch_offline"
    SWITCH_UNKNOWN = "switch_unknown"
    NODE_DOWN = "node_down"
    THERMAL_EXCURSION = "thermal_excursion"
    GPFS_DEGRADED = "gpfs_degraded"
    # Faults against the monitoring pipeline itself: a Loki ingest-ring
    # member dies (and, at fault end, restarts with WAL replay) or is
    # bounced immediately.  Targets are ingester ids, not xnames.
    INGESTER_CRASH = "ingester_crash"
    INGESTER_RESTART = "ingester_restart"
    # Alert-delivery-plane faults (repro.resilience): a notification
    # receiver goes dark, or a consumer pod slows to a crawl.  Targets
    # are receiver names / consumer names, not xnames.
    RECEIVER_OUTAGE = "receiver_outage"
    SLOW_CONSUMER = "slow_consumer"
    # Multi-tenancy fault (repro.tenancy): a tenant goes rogue and floods
    # the write path (and optionally the query scheduler) until the
    # fault ends.  The target is the offending tenant id.
    NOISY_NEIGHBOR = "noisy_neighbor"
    # Cold-tier faults (repro.objstore): the object-store backend goes
    # dark (every request refused, flushes stall resident) or degrades
    # (accounted latencies multiplied).  Targets are backend names.
    OBJSTORE_OUTAGE = "objstore_outage"
    OBJSTORE_SLOW = "objstore_slow"
    # Read-path faults (repro.queryx): a querier worker dies holding its
    # subqueries (each is retried on a live peer), or drags as a
    # straggler with multiplied execution costs.  Targets are querier
    # worker ids ("querier-0", ...).
    QUERIER_CRASH = "querier_crash"
    SLOW_QUERIER = "slow_querier"
    # Self-healing faults (repro.selfheal).  HEARTBEAT_LOSS is a *gray*
    # failure: the target ingester keeps serving but its heartbeats
    # vanish, so only the failure detector can tell something is wrong.
    # ZONE_OUTAGE crashes every ingester in an availability zone and
    # bars the supervisor from restarting into it until the fault ends.
    # Targets are an ingester id / a zone name respectively.
    HEARTBEAT_LOSS = "heartbeat_loss"
    ZONE_OUTAGE = "zone_outage"
    # Pattern-mining faults (repro.patterns).  LOG_STORM floods the
    # warehouse with one template at a digit-varying parameter — the
    # alert-storm scenario pattern grouping must collapse.  NOVEL_ERROR
    # injects a burst of a never-before-seen error-class template that
    # no hand-written rule knows about.  Targets are app names.
    LOG_STORM = "log_storm"
    NOVEL_ERROR = "novel_error"
    # SLO fault (repro.slo): degrade a chosen SLI at a configured error
    # rate — synthetic events flow into the SLI collector every tick,
    # burning error budget until the multi-window burn-rate rules page.
    # The target is an SLO name.
    BURN_INJECTION = "burn_injection"


#: What ends a fault: the callable a kind's ``begin`` returned.
Undo = Callable[[], None]


@dataclass
class Fault:
    """One injected fault with ground-truth timing."""

    kind: FaultKind
    target: XName | str  # str = whatever names the kind's target
    start_ns: int
    end_ns: int | None  # None = until repaired
    detail: dict[str, object] = field(default_factory=dict)
    repaired_ns: int | None = None
    #: Held from the fault's begin to its end, and only then.
    undo: Undo | None = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        return self.undo is not None


#: ``begin(fault)`` applies the fault and returns what undoes it; ``None``
#: means the fault was instantaneous and is already over.
Begin = Callable[[Fault], "Undo | None"]


def _xname(target: XName | str) -> XName:
    return XName.parse(target) if isinstance(target, str) else target


class FaultInjector:
    """Schedules faults and applies them through the registered handlers."""

    def __init__(
        self,
        cluster: Cluster,
        clock: SimClock,
        sensors: SensorBank | None = None,
    ) -> None:
        self._cluster = cluster
        self.clock = clock
        self._sensors = sensors
        self._handlers: dict[FaultKind, tuple[Begin, Callable]] = {}
        self.faults: list[Fault] = []
        machine = {
            FaultKind.CABINET_LEAK: self._leak,
            FaultKind.SWITCH_OFFLINE: partial(self._switch, SwitchState.OFFLINE),
            FaultKind.SWITCH_UNKNOWN: partial(self._switch, SwitchState.UNKNOWN),
            FaultKind.NODE_DOWN: self._node_down,
        }
        if sensors is not None:
            machine[FaultKind.THERMAL_EXCURSION] = self._thermal
        for kind, begin in machine.items():
            self.register(kind, begin, target=_xname)

    def register(
        self,
        kind: FaultKind,
        begin: Begin,
        *,
        target: Callable[[XName | str], XName | str] = str,
        replace: bool = False,
    ) -> None:
        """Teach the injector ``kind``.

        ``begin(fault)`` applies the fault and returns the callable that
        undoes it, run at the fault's end or at :meth:`repair` (``None`` =
        instantaneous: nothing to undo, the fault is never active).
        ``target`` turns what ``schedule`` was given into ``fault.target``
        and may refuse it with a ``ValidationError``.  Registering a kind
        a second time is an error unless the caller says ``replace``.
        """
        if (kind in self._handlers) != replace:
            raise ValidationError(
                f"fault kind {kind.value} is "
                + ("not registered yet" if replace else "already registered")
            )
        self._handlers[kind] = (begin, target)

    def kinds(self) -> frozenset[FaultKind]:
        """The kinds :meth:`schedule` accepts."""
        return frozenset(self._handlers)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        kind: FaultKind,
        target: XName | str,
        delay_ns: int = 0,
        duration_ns: int | None = None,
        **detail: object,
    ) -> Fault:
        """Schedule a fault ``delay_ns`` from now, lasting ``duration_ns``
        (or until :meth:`repair`)."""
        if delay_ns < 0:
            raise ValidationError("delay must be non-negative")
        if duration_ns is not None and duration_ns < 0:
            raise ValidationError("duration must be non-negative")
        if kind not in self._handlers:
            raise ValidationError(
                f"no handler registered for fault kind {kind.value}: "
                "whatever it acts on was not built"
            )
        _begin, parse = self._handlers[kind]
        start = self.clock.now_ns + delay_ns
        end = start + duration_ns if duration_ns is not None else None
        fault = Fault(
            kind=kind, target=parse(target), start_ns=start, end_ns=end, detail=detail
        )
        self.faults.append(fault)
        self.clock.call_at(start, lambda: self._begin(fault))
        if end is not None:
            self.clock.call_at(end, lambda: self._end(fault))
        return fault

    def repair(self, fault: Fault) -> None:
        """Explicitly repair an open-ended fault now."""
        self._end(fault)
        fault.repaired_ns = self.clock.now_ns

    def _begin(self, fault: Fault) -> None:
        begin, _parse = self._handlers[fault.kind]
        fault.undo = begin(fault)

    def _end(self, fault: Fault) -> None:
        # Dropped before it runs: an undo runs once, and what it closes
        # over (a flood's lines, a timer) does not outlive the fault.
        undo, fault.undo = fault.undo, None
        if undo is not None:
            undo()

    # ------------------------------------------------------------------
    # The machine kinds
    # ------------------------------------------------------------------
    def _leak(self, fault: Fault) -> Undo:
        cabinet = fault.target.cabinet_xname()
        zone = str(fault.detail.get("zone", "Front"))
        sensor = str(fault.detail.get("sensor", "A"))
        self._cluster.set_leak(cabinet, zone, sensor, True)
        return lambda: self._cluster.set_leak(cabinet, zone, sensor, False)

    def _switch(self, state: SwitchState, fault: Fault) -> Undo:
        self._cluster.set_switch_state(fault.target, state)
        return lambda: self._cluster.set_switch_state(
            fault.target, SwitchState.ONLINE
        )

    def _node_down(self, fault: Fault) -> Undo:
        self._cluster.set_node_state(fault.target, NodeState.DOWN)
        return lambda: self._cluster.set_node_state(fault.target, NodeState.UP)

    def _thermal(self, fault: Fault) -> Undo:
        sensor = SensorId(fault.target, SensorKind.TEMPERATURE_C)
        self._sensors.set_offset(sensor, float(fault.detail.get("delta_c", 25.0)))
        return lambda: self._sensors.set_offset(sensor, 0.0)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def active_faults(self) -> list[Fault]:
        return [f for f in self.faults if f.active]

    def faults_of_kind(self, kind: FaultKind) -> list[Fault]:
        return [f for f in self.faults if f.kind is kind]

    def delivery_ground_truth(self) -> list[dict[str, object]]:
        """Expected notification outcomes per delivery-plane fault.

        Chaos acceptance tests assert against these counts instead of
        re-deriving expectations from the scenario: for every ended
        ``RECEIVER_OUTAGE``, all notifications ever enqueued to the
        receiver (``expected_deliveries``) must eventually be delivered —
        zero loss.
        """
        out: list[dict[str, object]] = []
        for f in self.faults:
            if f.kind not in (FaultKind.RECEIVER_OUTAGE, FaultKind.SLOW_CONSUMER):
                continue
            out.append(
                {
                    "kind": f.kind.value,
                    "target": str(f.target),
                    "start_ns": f.start_ns,
                    "end_ns": f.end_ns,
                    **f.detail,
                }
            )
        return out

    def is_degraded(self, kind: FaultKind, target: XName | str) -> bool:
        """Whether an active fault of ``kind`` covers ``target``."""
        out = False
        for f in self.faults:
            if not (f.active and f.kind is kind):
                continue
            if isinstance(f.target, str) or isinstance(target, str):
                out = out or str(f.target) == str(target)
            else:
                out = out or f.target.contains(target)
        return out
