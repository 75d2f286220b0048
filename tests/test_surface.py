"""The running system's surface, probed: what only the tests reach.

Every top-level and class-level function or class under ``src/`` must be
referenced somewhere in the program itself — ``src/``, ``benchmarks/`` or
``examples/`` — as a name, an attribute, an import alias or inside a
string annotation.  Matching is by name only, so a collision hides a
finding and the counts are lower bounds.  Dunder methods are called by
the language and are not probed.

A definition that only tests reference is either deleted with the tests
that check only it, or listed in :data:`ALLOWED` with a one-line reason.
The list may only shrink: an entry the probe no longer finds fails the
test, as does a definition nothing references at all.  Print the current
findings with their line counts with::

    PYTHONPATH=src python -m tests.test_surface
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM = ("src", "benchmarks", "examples")

_READ = "test read accessor"
_RECOVERY = "recovery path a test drives; to become a fault (ROADMAP 3(d))"

#: Test-only definitions that stay, by dotted name, with the reason.
ALLOWED: dict[str, str] = {
    "repro.alerting.alertmanager.Alertmanager.add_silence": "operator API: silences",
    "repro.alerting.alertmanager.Alertmanager.add_inhibit_rule": "operator API: inhibition",
    "repro.alerting.rules.RuleEvaluator.firing_series": _READ,
    "repro.alerting.rules.RuleEvaluator.pending_series": _READ,
    "repro.bus.broker.Broker.produce_batch": "test driver: bulk produce",
    "repro.bus.broker.Broker.reset_to_committed": _RECOVERY,
    "repro.cluster.facility.FacilityModel.repair_cdu": "test driver: facility plant state",
    "repro.cluster.facility.FacilityModel.trip_pdu_breaker": "test driver: facility plant state",
    "repro.cluster.facility.FacilityModel.cabinet_heat_offset_c": _READ,
    "repro.cluster.faults.FaultInjector.repair": "operator API: end an open-ended fault now",
    "repro.cluster.faults.FaultInjector.active_faults": _READ,
    "repro.cluster.faults.FaultInjector.faults_of_kind": _READ,
    "repro.cluster.faults.FaultInjector.delivery_ground_truth": (
        "reference the D1 delivery acceptance test compares against"
    ),
    "repro.cluster.faults.FaultInjector.is_degraded": _READ,
    "repro.cluster.sensors.SensorBank.clear_offsets": "test driver: sensor state",
    "repro.cluster.sensors.SensorBank.read_all": _READ,
    "repro.cluster.topology.Cluster.offline_switches": _READ,
    "repro.cluster.topology.Cluster.unreachable_nodes": _READ,
    "repro.common.simclock.SimClock.now_seconds": _READ,
    "repro.common.xname.XName.is_controller": _READ,
    "repro.exporters.aruba.ArubaExporter.force_port": "test driver: switch port state",
    "repro.exporters.aruba.ArubaExporter.down_ports": _READ,
    "repro.grafana.dashboard.Dashboard.panels": _READ,
    "repro.loki.frontend.QueryFrontend.invalidate": "test driver: cache reconfiguration",
    "repro.loki.frontend.QueryFrontend.set_split_ns": "test driver: cache reconfiguration",
    "repro.loki.index.LabelIndex.label_names": _READ,
    "repro.loki.index.LabelIndex.label_values": _READ,
    "repro.objstore.blocks.BlockStore.rebuild": _RECOVERY,
    "repro.objstore.compactor.Compactor.request_delete": (
        "operator API: tenant delete requests; pinned by the exposition golden's "
        "reason=\"request\" counter"
    ),
    "repro.objstore.index.ShipperIndex.index_file_count": _READ,
    "repro.objstore.index.ShipperIndex.rebuild": _RECOVERY,
    "repro.omni.eventstore.EventStore.open_count": _READ,
    "repro.omni.eventstore.EventStore.categories": _READ,
    "repro.omni.warehouse.OmniWarehouse.ingest_rate_per_simsecond": _READ,
    "repro.patterns.miner.DrainConfig.max_clusters": "the miner's memory bound, a property test checks",
    "repro.patterns.miner.template_matches": "oracle: a property test checks mined templates",
    "repro.patterns.miner.DrainMiner.cluster_count": _READ,
    "repro.patterns.ruler.PatternRuler.baseline_rate": _READ,
    "repro.queryx.bloom.BloomFilter.might_contain": _READ,
    "repro.queryx.bloom.BloomFilter.fill_ratio": _READ,
    "repro.queryx.bloom.BloomBlock.might_match_needle": "oracle: the no-false-negative property",
    "repro.resilience.journal.NotificationJournal.delivered_count": _READ,
    "repro.ring.cluster.RingLokiCluster.checkpoint_all": "test driver: checkpoint before a crash",
    "repro.ring.cluster.RingLokiCluster.join_ingester": "scale-out: drives heal() in a property suite",
    "repro.ring.cluster.RingLokiCluster.leave_ingester": "scale-in: drives heal() in a property suite",
    "repro.ring.hashring.HashRing.placement": _READ,
    "repro.ring.wal.WalSegment.truncate_tail": "test driver: a torn WAL write",
    "repro.selfheal.manager.SelfHealManager.adopt": "scale-out: the self-healing side of join_ingester",
    "repro.selfheal.supervisor.IngesterSupervisor.is_unrecoverable": _READ,
    "repro.servicenow.cmdb.CMDB.descendants_of": _READ,
    "repro.servicenow.incidents.Incident.hold": "operator API: incident states",
    "repro.servicenow.incidents.Incident.resume": "operator API: incident states",
    "repro.servicenow.service_map.MapNode.degraded_descendants": _READ,
    "repro.shasta.fabric_manager.FabricManager.get_switch_state": _READ,
    "repro.shasta.telemetry_api.TelemetryAPI.server_request_counts": _READ,
    "repro.shasta.telemetry_api.TelemetryAPI.active_subscriptions": _READ,
    "repro.slo.manager.SloManager.burn_history": _READ,
    "repro.tenancy.limits.LimitsRegistry.update_override": "operator API: runtime limit overrides",
    "repro.tenancy.limits.LimitsRegistry.clear_override": "operator API: runtime limit overrides",
    "repro.tsdb.storage.TimeSeriesStore.metric_names": _READ,
}


@dataclass(frozen=True)
class Definition:
    qualname: str  # dotted: module, then class, then member
    name: str
    lines: int


def _span(node: ast.AST) -> int:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return node.end_lineno - first + 1


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _probed(node: ast.AST) -> bool:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return isinstance(node, kinds) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def definitions() -> list[Definition]:
    """Every top-level and class-level ``def`` / ``class`` under ``src/``."""
    found: list[Definition] = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if _probed(node):
                found.append(Definition(f"{module}.{node.name}", node.name, _span(node)))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    Definition(f"{module}.{node.name}.{m.name}", m.name, _span(m))
                    for m in node.body
                    if _probed(m)
                )
    return found


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns is not None else []
    if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
        return [node.annotation]
    return []


def names_in(tree: ast.AST) -> set[str]:
    """Names, attributes, import aliases and string-annotation names."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name.rpartition(".")[2], node.asname} - {None})
        for annotation in _annotations(node):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= names_in(ast.parse(sub.value, mode="eval"))
    return names


def referenced(*dirs: str) -> set[str]:
    """Every name the Python files under ``dirs`` reference."""
    names: set[str] = set()
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            names |= names_in(ast.parse(path.read_text(), str(path)))
    return names


def findings() -> tuple[list[Definition], list[Definition]]:
    """``(unreferenced, test_only)``: the definitions the program never
    names, split by whether the tests name them."""
    program = referenced(*PROGRAM)
    tests = referenced("tests")
    unreached = [d for d in definitions() if d.name not in program]
    return (
        [d for d in unreached if d.name not in tests],
        [d for d in unreached if d.name in tests],
    )


def test_surface_matches_the_allowlist():
    unreferenced, test_only = findings()
    assert [d.qualname for d in unreferenced] == [], "referenced nowhere: delete it"
    found = {d.qualname for d in test_only}
    assert sorted(found - ALLOWED.keys()) == [], "delete it, or allowlist it with a reason"
    assert sorted(ALLOWED.keys() - found) == [], "stale entry: take it off the list"


def test_every_allowlist_entry_has_a_one_line_reason():
    for qualname, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, qualname


def test_string_annotations_count_as_references():
    tree = ast.parse("def f(p: 'PatternSource | None') -> 'list[Plane]': pass")
    assert {"PatternSource", "Plane"} <= names_in(tree)


def main() -> None:
    unreferenced, test_only = findings()
    for kind, rows in (("unreferenced", unreferenced), ("test-only", test_only)):
        for d in rows:
            allowed = kind == "test-only" and d.qualname in ALLOWED
            mark = "allowed" if allowed else "FINDING"
            sys.stdout.write(f"{d.lines:5d}  {kind:<12}  {mark}  {d.qualname}\n")
    sys.stdout.write(
        f"{len(unreferenced)} unreferenced ({sum(d.lines for d in unreferenced)} lines), "
        f"{len(test_only)} test-only ({sum(d.lines for d in test_only)} lines), "
        f"{len(ALLOWED)} allowlisted\n"
    )


if __name__ == "__main__":
    main()
