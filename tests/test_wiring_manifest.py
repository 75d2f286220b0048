"""The composition root, pinned as data.

``wiring_manifest.json`` records what :class:`MonitoringFramework` wires
for twelve plane configurations — scrape jobs, rule names per evaluator,
the route tree, dashboards, the job table, ``health_summary()``
keys and which plane components read ``None`` — plus the Slack/incident
transcript of one all-planes run under overlapping faults.  Moving a
plane's wiring shows up here as a diff in data, not as a behaviour change
found later.  Regenerate with::

    PYTHONPATH=src python tests/test_wiring_manifest.py > tests/wiring_manifest.json

Per-evaluator rule order and route order are contract (both reach the
Slack transcript); the job table follows plane order; scrape-job
order and the two dict orders are free but pinned so a move is seen.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.simclock import minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework

MANIFEST_PATH = Path(__file__).with_name("wiring_manifest.json")

FLAGS = (
    "enable_ingest_ring", "enable_self_healing", "enable_multi_tenancy",
    "enable_object_storage", "enable_query_engine", "enable_reliable_delivery",
    "enable_pattern_mining", "enable_slo",
)

#: The ninth plane: it has no exporter, so the exposition golden, which
#: shares :data:`CONFIGS`, has nothing to pin for it.
PROACTIVE = "enable_proactive_detection"

#: Config name -> the flags switched on (every other flag is pinned off,
#: so the REPRO_* environment has no say).  "all-on" is the eight planes
#: the benchmark harness switches; proactive detection has its own entry.
CONFIGS: dict[str, tuple[str, ...]] = {
    "planes-off": (),
    **{flag: (flag,) for flag in FLAGS},
    "ring+selfheal": ("enable_ingest_ring", "enable_self_healing"),
    "all-on": FLAGS,
}
MANIFEST_CONFIGS = {**CONFIGS, "proactive": (PROACTIVE,)}

#: Every ``fw.<component>`` a plane provides; reads ``None`` with it off.
COMPONENTS = (
    "ring", "ring_exporter", "selfheal", "selfheal_exporter", "limits",
    "admission", "frontend", "scheduler", "tenancy_exporter", "objstore",
    "shipper_index", "shipper", "compactor", "store_gateway", "tiered",
    "objstore_exporter", "blooms", "queryx", "queryx_exporter", "journal",
    "delivery_exporter", "pattern_store", "pattern_ingester", "pattern_ruler",
    "patterns_exporter", "slo_manager", "slo_exporter",
)

SMALL = dict(cabinets=1, chassis_per_cabinet=2)


def _config(on: tuple[str, ...], **overrides) -> FrameworkConfig:
    flags = {flag: flag in on for flag in (*FLAGS, PROACTIVE)}
    return FrameworkConfig(cluster_spec=ClusterSpec(**SMALL), **flags, **overrides)


def _route_row(route) -> list:
    matchers = [[m.name, m.op.value, m.value] for m in route.matchers]
    return [route.receiver, matchers, list(route.group_by)]


def wiring(on: tuple[str, ...]) -> dict:
    fw = MonitoringFramework(_config(on))
    fw.start()
    root = fw.alertmanager._root
    evaluators = {"ruler": fw.ruler, "vmalert": fw.vmalert, "pattern_ruler": fw.pattern_ruler}
    return {
        "scrape_jobs": [t.job for t in fw.vmagent.targets()],
        "rules": {
            name: [r.name for r in evaluator.rules()] if evaluator is not None else None
            for name, evaluator in evaluators.items()
        },
        "routes": [_route_row(r) for r in root.routes] + [_route_row(root)],
        "dashboards": [
            [key, [[type(p).__name__, p.title, p.query] for p in dash.panels()]]
            for key, dash in fw.dashboards.items()
        ],
        "periodics": [[job.interval_ns, job.name] for job in fw.jobs],
        "timers_pending": fw.clock.pending(),
        "health_keys": list(fw.health_summary()),
        "none_components": [name for name in COMPONENTS if getattr(fw, name) is None],
    }


# ----------------------------------------------------------------------
# The faulted all-planes transcript
# ----------------------------------------------------------------------
_POST_HEAD = re.compile(r"\*\[(FIRING|RESOLVED):\d+\] ([^*]+)\*")


def transcript() -> dict:
    fw = MonitoringFramework(
        _config(FLAGS, seed=7, ring_ingesters=6, ring_zones=3, tenant_shard_size=0)
    )
    fw.start()
    nodes = sorted(str(x) for x in fw.cluster.nodes)
    node = sorted(fw.cluster.nodes)[3]
    switch = sorted(fw.cluster.switches)[1]
    cabinet = sorted(fw.cluster.cabinets)[0]
    schedule = fw.faults.schedule
    schedule(FaultKind.NODE_DOWN, node, delay_ns=minutes(2), duration_ns=minutes(6))
    schedule(FaultKind.SWITCH_OFFLINE, switch, delay_ns=minutes(2), duration_ns=minutes(6))
    schedule(FaultKind.RECEIVER_OUTAGE, "slack", delay_ns=minutes(3), duration_ns=minutes(5))
    schedule(FaultKind.OBJSTORE_OUTAGE, "s3", delay_ns=minutes(4), duration_ns=minutes(12))
    # Crash and GPFS degradation start together, so IngesterDown and
    # GpfsDegraded go FIRING in one vmalert evaluation: rule order shows.
    schedule(
        FaultKind.INGESTER_CRASH, "ingester-1",
        delay_ns=seconds(270), duration_ns=minutes(3),
    )
    fw.clock.call_later(seconds(270), lambda: fw.gpfs.set_degraded("scratch", True, 0.5))
    fw.clock.call_later(minutes(12), lambda: fw.gpfs.set_degraded("scratch", False))
    schedule(FaultKind.CABINET_LEAK, cabinet, delay_ns=minutes(10), duration_ns=minutes(5))
    schedule(FaultKind.ZONE_OUTAGE, "zone-2", delay_ns=minutes(20), duration_ns=minutes(4))
    cluster = fw.config.cluster_name
    for minute in range(150):
        now = fw.clock.now_ns
        for i in range(12):
            n = minute * 12 + i
            host = nodes[n % len(nodes)]
            fw.publish_syslog(
                {"hostname": host, "data_type": "syslog", "cluster": cluster,
                 "severity": "err" if n % 17 == 0 else "info"},
                now + i, f"kernel: eth{n % 4} link state change seq={n}",
            )
            fw.publish_container_log(
                {"app": f"svc-{n % 5}", "data_type": "container_log", "cluster": cluster},
                now + i, f"level=info request_id={n} took={n % 97}ms path=/api/v{n % 3}",
            )
        fw.run_for(minutes(1))
    return {
        "slack_posts": [_POST_HEAD.findall(m.text) for m in fw.slack.messages],
        "incidents": [[i.ci_name, i.opened_at_ns] for i in fw.servicenow.incidents()],
        "alert_events": fw.alertmanager.events_received,
        "supervisor_restarts": fw.selfheal.supervisor.restarts_total,
        "chunks_shipped": fw.shipper.counters()["chunks_shipped"],
    }


def build_manifest() -> dict:
    return {
        "configs": {name: wiring(on) for name, on in MANIFEST_CONFIGS.items()},
        "transcript": transcript(),
    }


def _normalise(value):
    """What a JSON round trip does to tuples, so live == loaded compares."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


@pytest.mark.parametrize("name", MANIFEST_CONFIGS)
def test_wiring_matches_manifest(manifest, name):
    live = _normalise(wiring(MANIFEST_CONFIGS[name]))
    pinned = manifest["configs"][name]
    for section, expected in pinned.items():
        assert live[section] == expected, f"{name}: {section} moved"
    assert live.keys() == pinned.keys()


def test_all_on_headline_counts(manifest):
    """The numbers the composition is known by (ISSUE 17)."""
    everything = manifest["configs"]["all-on"]
    nothing = manifest["configs"]["planes-off"]
    assert len(everything["scrape_jobs"]) == 12
    assert [len(v) for v in everything["rules"].values()] == [3, 19, 2]
    panels = sum(len(p) for _, p in everything["dashboards"])
    assert (len(everything["dashboards"]), panels) == (9, 55)
    assert (everything["timers_pending"], nothing["timers_pending"]) == (25, 13)
    assert len(everything["health_keys"]) == 54
    assert everything["none_components"] == []
    assert nothing["none_components"] == list(COMPONENTS)


def test_faulted_transcript_matches_manifest_and_repeats(manifest):
    first = _normalise(transcript())
    assert first == manifest["transcript"]
    # ROADMAP 5(d), in-process: nothing global leaks from run to run.
    assert _normalise(transcript()) == first


def _dump(value, pad: str = "") -> str:
    """JSON, one row per line: a list of scalars stays inline."""
    inner = pad + " "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in value.items()]
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = [inner + _dump(v, inner) for v in value]
    else:
        return json.dumps(value)
    open_, close = "{}" if isinstance(value, dict) else "[]"
    return open_ + "\n" + ",\n".join(items) + "\n" + pad + close


if __name__ == "__main__":
    sys.stdout.write(_dump(build_manifest()) + "\n")
