"""The base stack's fault kinds, and the flood every log fault is made of.

``FaultInjector`` knows the machine kinds; whoever builds what a fault
acts on registers the rest (DESIGN §16).  The base stack builds the
warehouse and the GPFS model, so it owns the kinds that act on those and
nothing else: ``LOG_STORM`` and ``NOVEL_ERROR`` write lines whether or
not anything is mining them, and ``GPFS_DEGRADED`` needs no plane at all.
"""

from __future__ import annotations

from repro.cluster.faults import Fault, FaultInjector, FaultKind, Undo
from repro.cluster.gpfs import GpfsModel
from repro.common.errors import CapacityError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import seconds
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.omni.warehouse import OmniWarehouse


def push_lines(
    warehouse: OmniWarehouse,
    labels: LabelSet,
    now_ns: int,
    lines: list[str],
    tenant: str | None = None,
) -> int | None:
    """Push ``lines`` as one stream, a nanosecond apart from ``now_ns``.

    Returns the entries accepted, or ``None`` when admission refused the
    push: a typed 429 is the *expected* outcome of a flood, so the caller
    counts it and it never propagates into the clock loop."""
    entries = tuple(LogEntry(now_ns + i, line) for i, line in enumerate(lines))
    request = PushRequest(streams=(PushStream(labels=labels, entries=entries),))
    try:
        return warehouse.ingest_logs(request, tenant=tenant)
    except CapacityError:
        return None


def _letters_marker(n: int, length: int = 6) -> str:
    """Deterministic all-alphabetic marker from an integer (the miner
    masks digit-bearing tokens, so novelty markers must be letters)."""
    out = []
    for _ in range(length):
        out.append(chr(ord("a") + n % 26))
        n //= 26
    return "".join(out)


def register_faults(
    injector: FaultInjector, warehouse: OmniWarehouse, gpfs: GpfsModel
) -> None:
    clock = injector.clock

    def log_storm(fault: Fault) -> Undo:
        """An alert storm: every tick, a burst of lines that are all
        instances of ONE template, varying only in a digit-bearing
        parameter.  Per-line alerting would page once per line; pattern
        grouping must collapse the whole storm into one incident."""
        app, detail = fault.target, fault.detail
        per_tick = int(detail.get("lines_per_tick", 100))
        detail.setdefault("lines_injected", 0)
        detail.setdefault("pushes_rejected", 0)
        labels = LabelSet({"app": app, "data_type": "app_log"})
        sector = 0

        def flood() -> None:
            nonlocal sector
            lines = [
                f"{app}: I/O error on dev sda, sector {sector + i}"
                for i in range(per_tick)
            ]
            sector += per_tick
            if push_lines(warehouse, labels, clock.now_ns, lines) is None:
                detail["pushes_rejected"] += 1
            else:
                detail["lines_injected"] += per_tick

        interval = int(detail.get("interval_ns", seconds(1)))
        return clock.every(interval, flood).cancel

    def novel_error(fault: Fault) -> None:
        """One burst of a never-before-seen error template.

        The distinguishing marker is alphabetic (digit tokens are masked
        to ``<*>`` by the miner, so a numeric marker would collapse into
        a previously-seen template).  Instantaneous: the lines land and
        the fault is over."""
        app, detail = fault.target, fault.detail
        marker = str(detail.get("marker", _letters_marker(fault.start_ns)))
        lines = [
            f"{app}: FATAL {marker} assertion failure in "
            f"module {marker}_core, unit {i}"
            for i in range(int(detail.get("lines", 20)))
        ]
        labels = LabelSet({"app": app, "data_type": "app_log"})
        detail["marker"] = marker
        detail["injected_at_ns"] = clock.now_ns
        accepted = push_lines(warehouse, labels, clock.now_ns, lines)
        detail["lines_injected"] = accepted or 0

    def filesystem(target: object) -> str:
        if str(target) not in gpfs.filesystems():
            raise ValidationError(f"no such filesystem: {target}")
        return str(target)

    def gpfs_degraded(fault: Fault) -> Undo:
        """NSD servers of one filesystem go unhealthy: ``fraction`` of
        them, by default as many as ``set_degraded`` itself degrades."""
        if "fraction" in fault.detail:
            gpfs.set_degraded(fault.target, True, float(fault.detail["fraction"]))
        else:
            gpfs.set_degraded(fault.target, True)
        return lambda: gpfs.set_degraded(fault.target, False)

    injector.register(FaultKind.LOG_STORM, log_storm)
    injector.register(FaultKind.NOVEL_ERROR, novel_error)
    injector.register(FaultKind.GPFS_DEGRADED, gpfs_degraded, target=filesystem)
