"""Planes compose: the pairwise matrix as a loop over the plane list.

Every subset of the nine planes of :data:`repro.core.planes.PLANES` of
size 0, 1, 2 and the full set (47 configs) is constructed, started, fed
and read through every surface a plane contributes to.  A tenth plane
defined *here* proves the loop is complete: appended to the list, it
lands a route, a scrape target, a rule, a dashboard, a job and a
health key with no edit under ``src/``.  The same list checks README's plane table and the config
validation that moved into it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.alerting.alertmanager import Route
from repro.alerting.rules import RuleSpec
from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.labels import Matcher, MatchOp
from repro.common.simclock import Job, minutes, seconds
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.plane import Plane
from repro.core.planes import PLANES
from repro.exporters.exporter import Exporter
from repro.grafana.panels import StatPanel
from repro.loki.logcli import run_logcli

NAMES = [plane.name for plane in PLANES]
SUBSETS = [
    subset
    for size in (0, 1, 2, len(NAMES))
    for subset in itertools.combinations(NAMES, size)
]


def config_for(on: tuple[str, ...], **overrides) -> FrameworkConfig:
    """Every plane flag set explicitly, so REPRO_* env has no say."""
    flags = {plane.flag: plane.name in on for plane in PLANES}
    return FrameworkConfig(
        cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
        **flags,
        **overrides,
    )


def test_plane_list_in_order():
    assert NAMES == [
        "ring", "selfheal", "tenancy", "objstore", "queryx", "delivery",
        "patterns", "slo", "proactive",
    ]
    assert len(SUBSETS) == 1 + 9 + 36 + 1
    config_fields = {f.name for f in fields(FrameworkConfig)}
    assert all(plane.flag in config_fields for plane in PLANES)


@pytest.mark.parametrize("on", SUBSETS, ids=lambda on: "+".join(on) or "none")
def test_subset_builds_runs_and_reads(on):
    fw = MonitoringFramework(config_for(on))
    enabled = [plane.name for plane in fw.planes]
    # selfheal alone is a no-op by design: nothing to heal without a ring.
    expected = [n for n in NAMES if n in on and (n != "selfheal" or "ring" in on)]
    assert enabled == expected
    fw.start()
    names = [job.name for job in fw.jobs]
    assert len(set(names)) == len(names)
    # Last on purpose: on an instant it shares with other jobs the
    # lifecycle sweep must see every other job's writes before it ages
    # data out, and registration order is the clock's tie-break.
    assert names[-1] == "lifecycle.sweep"
    # start() registers the table and nothing else; the one other chain
    # is each ring member's heartbeat, started with the detector.
    heartbeats = len(fw.selfheal.memberlist.members()) if fw.selfheal else 0
    assert fw.clock.pending() == len(fw.jobs) + heartbeats
    now = fw.clock.now_ns
    for i in range(20):
        fw.publish_syslog(
            {"hostname": f"nid{i % 4:04d}", "data_type": "syslog"},
            now + i, f"kernel: link flap {i} on port {i % 3}",
        )
        fw.publish_container_log(
            {"app": f"svc-{i % 2}", "data_type": "container_log"},
            now + i, f"level=info msg=served request={i}",
        )
    fw.run_for(minutes(3))
    end = fw.clock.now_ns
    series = (fw.frontend or fw.logql).query_range(
        "sum(count_over_time({data_type=~\".+\"}[1m])) by (data_type)",
        end - minutes(3), end, minutes(1),
    )
    counted = {s.labels["data_type"]: sum(v for _, v in s.points) for s in series}
    assert counted["syslog"] == counted["container_log"] == 20
    for dashboard in fw.dashboards.values():
        assert dashboard.render(end - minutes(3), end, minutes(1))
    summary = fw.health_summary()
    assert summary["messages_ingested"] >= 40
    assert all(isinstance(v, float) for v in summary.values())
    labels = run_logcli(fw.warehouse.loki, ["labels"]).splitlines()
    assert {"app", "data_type", "hostname"} <= set(labels)
    # Off means absent: a component no enabled plane provides reads None.
    provided = {name for plane in fw.planes for name in plane.components}
    for name in {name for plane in PLANES for name in plane.components} - provided:
        assert getattr(fw, name) is None, name


# ----------------------------------------------------------------------
# A tenth plane, defined outside src/
# ----------------------------------------------------------------------
class _Canary(Exporter):
    """The exporter and the periodic of the test plane."""

    def __init__(self) -> None:
        self.beats = 0
        self.held = False
        super().__init__(
            ((("canary_beats_total", "counter", "Beats."),), self._read_beats)
        )

    def beat(self) -> None:
        self.beats += not self.held

    def hold(self, fault):
        """The plane's fault: ``begin(fault)`` applies, returns the undo."""
        self.held = True
        return lambda: setattr(self, "held", False)

    def _read_beats(self):
        yield "canary_beats_total", self.beats, None


class CanaryPlane(Plane):
    name = "canary"
    flag = "seed"  # any truthy config value switches it on
    components = ("canary",)
    scrape_targets = (("canary", "canary-exporter:9999", "canary"),)

    def build_alerting(self, fw):
        fw.canary = _Canary()
        # FaultKind is the one catalogue; with the delivery plane off
        # nobody has claimed this member.
        fw.faults.register(FaultKind.SLOW_CONSUMER, fw.canary.hold)

    def routes(self, fw):
        return [
            Route(
                "slack",
                matchers=(Matcher("category", MatchOp.EQ, "canary"),),
                group_by=("alertname",),
            )
        ]

    def install_rules(self, fw):
        fw.vmalert.add_rule(
            RuleSpec(
                name="CanarySilent",
                expr="canary_beats_total == 0",
                for_="0s",
                labels={"severity": "warning", "category": "canary"},
                annotations={"summary": "the canary stopped"},
            )
        )

    def dashboards(self, fw):
        return [("canary", "Canary", [(StatPanel, "Beats", "canary_beats_total")])]

    def jobs(self, fw):
        return [Job("canary.beat", seconds(10), fw.canary.beat)]

    def health(self, fw):
        return {"canary_beats": float(fw.canary.beats)}


def test_one_more_plane_needs_no_edit_under_src(monkeypatch):
    monkeypatch.setattr("repro.core.planes.PLANES", [*PLANES, CanaryPlane()])
    fw = MonitoringFramework(config_for(("ring", "slo"), seed=9))
    assert [p.name for p in fw.planes] == ["ring", "slo", "canary"]
    fw.run_for(minutes(2))
    routes = fw.alertmanager._root.routes
    assert [m.value for r in routes for m in r.matchers] == ["critical", "canary", "slo"]
    assert fw.vmagent.targets()[-1].job == "canary"
    assert fw.vmalert.rules()[-2].name == "CanarySilent"  # GpfsDegraded trails
    assert "Beats" in fw.dashboards["canary"].render(
        fw.clock.now_ns - minutes(2), fw.clock.now_ns, minutes(1)
    )
    assert fw.health_summary()["canary_beats"] == fw.canary.beats == 12
    assert fw.promql.query_instant("canary_beats_total", fw.clock.now_ns)
    fault = fw.faults.schedule(FaultKind.SLOW_CONSUMER, "canary", duration_ns=minutes(1))
    fw.run_for(minutes(1) + seconds(20))
    assert not fault.active and fw.canary.beats == 12 + 3  # 5 of 8 held back
    # Without the plane the attribute does not exist at all.
    monkeypatch.undo()
    assert not hasattr(MonitoringFramework(config_for(())), "canary")


# ----------------------------------------------------------------------
# README's plane table is the plane list
# ----------------------------------------------------------------------
def _readme_rows() -> list[tuple[str, str, str, str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return re.findall(
        r"^\| `(\w+)` \| `(\w+)` \| (?:`(REPRO_\w+)`|—) \| `([\w/.]+)` \|",
        readme, flags=re.MULTILINE,
    )


def test_readme_plane_table_matches_the_plane_list():
    assert [(name, flag, module) for name, flag, _, module in _readme_rows()] == [
        (
            plane.name,
            plane.flag,
            "src/" + type(plane).__module__.replace(".", "/") + ".py",
        )
        for plane in PLANES
    ]


def test_readme_env_variables_flip_their_flag_defaults(monkeypatch):
    rows = _readme_rows()
    documented = [env for _, _, env, _ in rows if env]
    assert len(documented) == 7  # the ring and proactive have no env default
    for env in documented:
        monkeypatch.delenv(env, raising=False)
    assert not any(getattr(FrameworkConfig(), flag) for _, flag, _, _ in rows)
    for _, flag, env, _ in rows:
        if not env:
            continue
        monkeypatch.setenv(env, "1")
        on = [f for _, f, _, _ in rows if getattr(FrameworkConfig(), f)]
        assert on == [flag], env
        monkeypatch.setenv(env, "0")
        assert not getattr(FrameworkConfig(), flag)
        monkeypatch.delenv(env)


# ----------------------------------------------------------------------
# Config validation and start()
# ----------------------------------------------------------------------
CADENCES = [f.name for f in fields(FrameworkConfig) if f.name.endswith("_interval_ns")]


def test_every_cadence_field_is_covered():
    # The cadences a caller can set; every other job's is its constant.
    assert CADENCES == [
        "objstore_flush_interval_ns", "objstore_compaction_interval_ns",
        "queryx_split_interval_ns",
    ]


def test_config_holds_only_what_a_program_sets():
    # A field stays only if a program caller sets or reads it, or it is a
    # plane flag, a deployment setting or operator policy.
    assert [f.name for f in fields(FrameworkConfig)] == [
        "cluster_spec", "cluster_name", "seed",
        "enable_proactive_detection",
        "tracing_sampling",
        "enable_ingest_ring", "ring_ingesters", "ring_zones",
        "enable_self_healing",
        "enable_reliable_delivery",
        "enable_multi_tenancy", "tenant_overrides", "tenant_shard_size",
        "enable_object_storage",
        "objstore_flush_interval_ns", "objstore_compaction_interval_ns",
        "enable_query_engine", "queryx_split_interval_ns",
        "enable_pattern_mining",
        "enable_slo", "slo_objectives",
    ]


@pytest.mark.parametrize("name", CADENCES)
@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_cadence_is_a_typed_config_error(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be positive"):
        config_for((), **{name: value})


def test_start_is_all_or_nothing():
    fw = MonitoringFramework(config_for(("objstore",)))
    fw.config.objstore_flush_interval_ns = 0  # mutated after construction
    with pytest.raises(ValidationError, match="objstore_flush_interval_ns"):
        fw.start()
    assert fw.clock.pending() == 0  # nothing half-registered
    with pytest.raises(ValidationError):
        fw.run_for(minutes(1))
    assert fw.clock.pending() == 0
    fw.config.objstore_flush_interval_ns = minutes(5)
    fw.start()
    pending = fw.clock.pending()
    fw.start()  # idempotent
    assert fw.clock.pending() == pending == 15
