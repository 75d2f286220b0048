"""The running system's surface, probed: what only the tests reach.

Every top-level and class-level function or class under ``src/`` must be
referenced somewhere in the program itself — ``src/``, ``benchmarks/`` or
``examples/`` — as a name, an attribute, an import alias (not a package
``__init__.py``'s: a re-export is no use) or inside a string annotation.
Matching is by name only, so a collision hides a finding and the counts
are lower bounds.  Dunder methods are called by the language and are not
probed.

A definition that only tests reference is either deleted with the tests
that check only it, or listed in :data:`ALLOWED` with a one-line reason.
The list may only shrink: an entry the probe no longer finds fails the
test, as does a definition nothing references at all.

The same rule holds one level down, for options: every defaulted
parameter of a class ``__init__`` under ``src/`` must be set by some call
in the program — by keyword, by position, through ``*``/``**``, or
through a subclass that inherits the ``__init__`` or forwards to it with
``super().__init__`` — or be listed in :data:`OPTIONS_ALLOWED` with a
one-line reason.  A value only a test sets is a constant of the
component, which a test may reassign on the built object.  Classes match
by name.  Print both probes' findings, with line counts and
``file:line``, with::

    PYTHONPATH=src python -m tests.test_surface
"""

from __future__ import annotations

import ast
import functools
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
    "repro.exporters.textformat.parse_exposition": (
        "oracle: tests read exposition text back with it"
    ),
    "repro.grafana.dashboard.Dashboard.panels": _READ,
    "repro.loki.frontend.QueryFrontend.invalidate": (
        "operator API: the documented cure for late data in a cached window"
    ),
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
    "repro.slo.burnrate.multiwindow_fires": (
        "oracle: the recorded multi-window rule's reference semantics"
    ),
    "repro.slo.burnrate.max_within_budget_burn": "oracle: the noise-soak property's floor",
    "repro.tenancy.limits.LimitsRegistry.update_override": "operator API: runtime limit overrides",
    "repro.tenancy.limits.LimitsRegistry.clear_override": "operator API: runtime limit overrides",
    "repro.tsdb.storage.TimeSeriesStore.metric_names": _READ,
    "repro.workloads.scenarios.alert_storm": "test workload: the miner reference suite's storm",
}

_SHAPE = "construction-time shape a test needs"
_FAKE = "a fake a test substitutes"

#: Defaulted ``__init__`` parameters no program call sets that stay, by
#: dotted name, with the reason.
OPTIONS_ALLOWED: dict[str, str] = {
    "repro.cluster.facility.FacilityModel.cabinets_per_cdu": _SHAPE,
    "repro.cluster.facility.FacilityModel.pdus": _SHAPE,
    "repro.exporters.aruba.ArubaExporter.switches": _SHAPE,
    "repro.exporters.aruba.ArubaExporter.ports_per_switch": _SHAPE,
    "repro.exporters.node.NodeExporter.nodes": f"{_SHAPE}: the nodes an exporter covers",
    "repro.objstore.compactor.Compactor.policy": f"{_SHAPE}: it sizes the compactor's chunks",
    "repro.objstore.index.ShipperIndex.period_ns": f"{_SHAPE}: the index's period layout",
    "repro.objstore.objectstore.ObjectStore.config": "deployment setting: backend latencies",
    "repro.patterns.miner.DrainMiner.config": f"{_SHAPE}: the miner the property tests vary",
    "repro.resilience.receivers.FlakyReceiver.outages": _FAKE,
    "repro.resilience.receivers.FlakyReceiver.ambiguous": _FAKE,
    "repro.resilience.receivers.RetryingReceiver.max_attempts": "deployment setting: retry budget",
    "repro.resilience.receivers.RetryingReceiver.on_dead_letter": (
        "deployment setting: dead-letter sink"
    ),
    "repro.ring.wal.WriteAheadLog.segment_max_bytes": f"{_SHAPE}: small segments that roll",
    "repro.selfheal.detector.FailureDetector.config": f"{_SHAPE}: it starts the heartbeats",
    "repro.servicenow.platform.ServiceNowPlatform.event_rule": "deployment setting: the event rule",
    "repro.slackmock.webhook.SlackReceiver.name": "deployment name: the receiver a route names",
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


def names_in(tree: ast.AST, aliases: bool = True) -> set[str]:
    """Names, attributes, import aliases (unless ``aliases`` is false) and
    string-annotation names."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and aliases:
            names.update({node.name.rpartition(".")[2], node.asname} - {None})
        for annotation in _annotations(node):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= names_in(ast.parse(sub.value, mode="eval"))
    return names


def referenced(*dirs: str) -> set[str]:
    """Every name the Python files under ``dirs`` reference.  A package
    ``__init__.py``'s imports re-export names for callers and use none,
    so its import aliases do not count."""
    names: set[str] = set()
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            names |= names_in(tree, aliases=path.name != "__init__.py")
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


@dataclass(frozen=True)
class Option:
    qualname: str  # dotted: module, then class, then parameter
    where: str  # file:line of the parameter


@dataclass(frozen=True)
class _Class:
    qualname: str
    path: Path
    bases: tuple[str | None, ...]
    init: ast.arguments | None  # None: it inherits its ``__init__``


@dataclass(frozen=True)
class _Call:
    #: The class name called, or for a ``super().__init__`` the bases
    #: whose first ``__init__`` it runs.
    callees: tuple[str | None, ...]
    node: ast.Call


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_super_init(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "__init__"
        and isinstance(node.func.value, ast.Call)
        and _name(node.func.value.func) == "super"
    )


@functools.cache
def _classes_and_calls(top: str) -> tuple[dict[str, _Class], list[_Call]]:
    """Every class under ``top`` by name (the first definition wins), and
    every call that may construct one: a call of a CapWords name, or a
    ``super().__init__`` in a class's own ``__init__``."""
    classes: dict[str, _Class] = {}
    calls: list[_Call] = []
    for path in sorted((ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        module = _module_name(path) if top == "src" else path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (_name(node.func) or "_").lstrip("_")[:1].isupper():
                calls.append(_Call((_name(node.func),), node))
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(_name(b) for b in node.bases)
            init = next(
                (m for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"),
                None,
            )
            classes.setdefault(
                node.name,
                _Class(f"{module}.{node.name}", path, bases, init and init.args),
            )
            if init is not None:
                calls += [_Call(bases, c) for c in ast.walk(init) if _is_super_init(c)]
    return classes, calls


def _defaulted(args: ast.arguments) -> list[ast.arg]:
    positional = args.posonlyargs + args.args
    return positional[len(positional) - len(args.defaults):] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]


def options() -> list[Option]:
    """Every defaulted parameter of a class ``__init__`` under ``src/``."""
    return [
        Option(f"{c.qualname}.{arg.arg}", f"{c.path.relative_to(ROOT)}:{arg.lineno}")
        for c in _classes_and_calls("src")[0].values()
        if c.init is not None
        for arg in _defaulted(c.init)
    ]


def _runs(name: str | None, classes: dict[str, _Class], depth: int = 0) -> _Class | None:
    """The class whose ``__init__`` a call of ``name`` runs."""
    c = classes.get(name)
    if c is None or c.init is not None:
        return c
    if depth > 8:  # a class named as the base it shadows
        return None
    return next((r for b in c.bases if (r := _runs(b, classes, depth + 1))), None)


def _passes(call: ast.Call, args: ast.arguments) -> set[str]:
    """The parameters of an ``__init__`` taking ``args`` that ``call`` passes."""
    positional = [a.arg for a in args.posonlyargs + args.args][1:]
    passed: set[str] = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(positional[i:])
            break
        passed.update(positional[i:i + 1])
    for keyword in call.keywords:
        if keyword.arg is None:
            passed.update(positional + [a.arg for a in args.kwonlyargs])
        else:
            passed.add(keyword.arg)
    return passed


def options_set(*dirs: str) -> set[str]:
    """Every ``__init__`` parameter, dotted as :func:`options` names it,
    that some call under ``dirs`` passes."""
    classes: dict[str, _Class] = {}
    for top in ("src", *dirs):
        classes = {**_classes_and_calls(top)[0], **classes}
    found: set[str] = set()
    for top in dirs:
        for call in _classes_and_calls(top)[1]:
            runs = next((r for c in call.callees if (r := _runs(c, classes))), None)
            if runs is not None:
                found.update(f"{runs.qualname}.{p}" for p in _passes(call.node, runs.init))
    return found


def option_findings() -> tuple[list[Option], list[Option]]:
    """``(unset, test_only)``: the options no program call sets, split by
    whether a test sets them."""
    program = options_set(*PROGRAM)
    tests = options_set("tests")
    unset = [o for o in options() if o.qualname not in program]
    return (
        [o for o in unset if o.qualname not in tests],
        [o for o in unset if o.qualname in tests],
    )


def test_surface_matches_the_allowlist():
    unreferenced, test_only = findings()
    assert [d.qualname for d in unreferenced] == [], "referenced nowhere: delete it"
    found = {d.qualname for d in test_only}
    assert sorted(found - ALLOWED.keys()) == [], "delete it, or allowlist it with a reason"
    assert sorted(ALLOWED.keys() - found) == [], "stale entry: take it off the list"


def test_options_match_the_allowlist():
    unset, test_only = option_findings()
    found = {o.qualname for o in unset + test_only}
    assert sorted(found - OPTIONS_ALLOWED.keys()) == [], "make it a constant, or allowlist it"
    assert sorted(OPTIONS_ALLOWED.keys() - found) == [], "stale entry: take it off the list"


def test_every_allowlist_entry_has_a_one_line_reason():
    for qualname, reason in {**ALLOWED, **OPTIONS_ALLOWED}.items():
        assert reason.strip() and "\n" not in reason, qualname


def test_string_annotations_count_as_references():
    tree = ast.parse("def f(p: 'PatternSource | None') -> 'list[Plane]': pass")
    assert {"PatternSource", "Plane"} <= names_in(tree)


def test_a_package_init_re_export_is_no_use(tmp_path):
    (tmp_path / "__init__.py").write_text("from pkg.mod import ReExported, used\nused()\n")
    (tmp_path / "caller.py").write_text("from pkg.mod import Imported\n")
    names = referenced(str(tmp_path))
    assert {"used", "Imported"} <= names
    assert "ReExported" not in names


def test_options_are_set_by_keyword_position_star_and_subclass(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class ProbeBase:\n"
        "    def __init__(self, a, b=1, *, c=2, d=3, e=4): ...\n"
        "class ProbeHeir(ProbeBase): ...\n"
        "class ProbeForwards(ProbeBase):\n"
        "    def __init__(self):\n"
        "        super().__init__(0, d=5)\n"
        "class ProbeSpread:\n"
        "    def __init__(self, f=1, g=2, *, h=3): ...\n"
        "ProbeHeir(0, 1)\n"
        "ProbeBase(0, c=2)\n"
        "ProbeSpread(*args)\n"
        "ProbeSpread(**kwargs)\n"
    )
    assert options_set(str(tmp_path)) == {
        "shapes.ProbeBase.a", "shapes.ProbeBase.b", "shapes.ProbeBase.c", "shapes.ProbeBase.d",
        "shapes.ProbeSpread.f", "shapes.ProbeSpread.g", "shapes.ProbeSpread.h",
    }


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
    unset, tests_only = option_findings()
    for kind, rows in (("unset", unset), ("test-only", tests_only)):
        for o in rows:
            mark = "allowed" if o.qualname in OPTIONS_ALLOWED else "FINDING"
            sys.stdout.write(f"{o.where:<40}  {kind:<12}  {mark}  {o.qualname}\n")
    total = len(options())
    sys.stdout.write(
        f"{total} defaulted options: {total - len(unset) - len(tests_only)} program-set, "
        f"{len(tests_only)} test-only, {len(unset)} unset, {len(OPTIONS_ALLOWED)} allowlisted\n"
    )


if __name__ == "__main__":
    main()
