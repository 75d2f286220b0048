"""Tests for the Prometheus text format, the one exporter over metric
tables and the four paper exporters."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bus.broker import Broker
from repro.common.errors import ValidationError
from repro.common.simclock import SimClock
from repro.cluster.sensors import build_standard_bank
from repro.cluster.topology import Cluster, ClusterSpec, NodeState
from repro.exporters.aruba import ArubaExporter
from repro.exporters.blackbox import BlackboxExporter, ProbeTarget
from repro.exporters.exporter import Exporter
from repro.exporters.kafka_exporter import KafkaExporter
from repro.exporters.node import NodeExporter
from repro.exporters.textformat import MetricPoint, parse_exposition, sample_line

_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=32)
#: Everything a read function may hand over as a sample value.
_VALUES = st.one_of(
    _FINITE,
    st.booleans(),
    st.integers(-(2**40), 2**40),
    _FINITE.map(np.float64),
    _FINITE.map(np.float32),
    st.integers(-(2**40), 2**40).map(np.int64),
    st.booleans().map(np.bool_),
)


def _exposition(value, labels=None, name="m", type="gauge", help=""):
    """One sample through the one renderer: an exporter's scrape text."""
    exporter = Exporter((((name, type, help),), lambda: [(name, value, labels)]))
    return exporter.scrape().text()


class TestTextFormat:
    def test_render_basic(self):
        text = _exposition(1.5, {"xname": "x1"}, help="help text")
        assert text == '# HELP m help text\n# TYPE m gauge\nm{xname="x1"} 1.5\n'

    def test_render_no_labels(self):
        assert _exposition(2.0) == "# TYPE m gauge\nm 2.0\n"
        # A counter handed over as an int is stored, and spelled, a float.
        assert _exposition(7).endswith("\nm 7.0\n")

    def test_render_special_values(self):
        assert _exposition(math.nan).endswith("\nm NaN\n")
        assert _exposition(math.inf).endswith("\nm +Inf\n")
        assert _exposition(-math.inf).endswith("\nm -Inf\n")
        (p,) = parse_exposition(_exposition(-math.inf))
        assert p.value == -math.inf

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ValidationError):
            _exposition(1.0, name="9bad")

    def test_bad_type_rejected(self):
        with pytest.raises(ValidationError):
            _exposition(1.0, type="histogram")

    def test_parse_basic(self):
        points = parse_exposition('m{a="1",b="2"} 3.5\n')
        assert points == [MetricPoint("m", {"a": "1", "b": "2"}, 3.5)]

    def test_parse_skips_comments_and_blanks(self):
        text = "# HELP m x\n# TYPE m gauge\n\nm 1\n"
        assert len(parse_exposition(text)) == 1

    def test_parse_timestamp(self):
        (p,) = parse_exposition("m 1 1646272077000")
        assert p.timestamp_ms == 1646272077000

    def test_parse_special_values(self):
        points = parse_exposition("a NaN\nb +Inf\nc -Inf\n")
        assert math.isnan(points[0].value)
        assert points[1].value == math.inf
        assert points[2].value == -math.inf

    def test_parse_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ValidationError):
            parse_exposition("m notanumber")

    def test_escaping_roundtrip(self):
        text = _exposition(1.0, {"msg": 'say "hi"\\now\nnext'})
        assert 'msg="say \\"hi\\"\\\\now\\nnext"' in text
        (p,) = parse_exposition(text)
        assert p.labels["msg"] == 'say "hi"\\now\nnext'

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True),
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"), blacklist_characters="\n"
                ),
                max_size=10,
            ),
            max_size=4,
        ),
        _VALUES,
    )
    def test_roundtrip_property(self, labels, value):
        (p,) = parse_exposition(_exposition(value, labels, name="metric_name"))
        assert p.labels == labels
        assert p.value == pytest.approx(float(value))

    def test_numpy_and_bool_values_spell_plain_numbers(self):
        """``repr(np.float64(1.5))`` is ``np.float64(1.5)`` and ``str(True)``
        is ``True``: either one fails the whole target's parse."""
        assert sample_line("m", None, np.float64(1.5)) == "m 1.5"
        assert sample_line("m", None, np.float32(0.25)) == "m 0.25"
        assert sample_line("m", None, np.int64(7)) == "m 7"
        assert sample_line("m", None, True) == "m 1"
        assert sample_line("m", None, 7) == "m 7"
        assert sample_line("m", {"b": "2", "a": "1"}, 2.5) == 'm{a="1",b="2"} 2.5'
        assert sample_line("m", None, np.float64("nan")) == "m NaN"
        assert sample_line("m", None, -math.inf) == "m -Inf"


_TABLE = (
    ("t_requests_total", "counter", "Requests."),
    ("t_depth", "gauge", "Depth."),
)


def _read_two(source):
    yield "t_depth", source["depth"], None
    yield "t_requests_total", source["ok"], {"code": "200"}
    yield "t_requests_total", source["bad"], {"code": "500"}


class TestExporterTables:
    def test_groups_readings_under_headers_in_table_order(self):
        exp = Exporter((_TABLE, _read_two, {"depth": 3, "ok": 5, "bad": True}))
        assert exp.scrape().text() == (
            "# HELP t_requests_total Requests.\n# TYPE t_requests_total counter\n"
            't_requests_total{code="200"} 5.0\nt_requests_total{code="500"} 1.0\n'
            "# HELP t_depth Depth.\n# TYPE t_depth gauge\nt_depth 3.0\n"
        )
        assert exp.scrapes_served == 1

    def test_family_without_readings_is_still_a_header(self):
        exp = Exporter((_TABLE, lambda: iter(())))
        assert exp.scrape().text().splitlines() == [
            "# HELP t_requests_total Requests.", "# TYPE t_requests_total counter",
            "# HELP t_depth Depth.", "# TYPE t_depth gauge",
        ]

    def test_part_with_a_missing_component_is_left_out(self):
        extra = ((("t_extra", "untyped", ""),), lambda c: [("t_extra", c, None)])
        without = Exporter((_TABLE, _read_two, {"depth": 0, "ok": 0, "bad": 0}),
                           (*extra, None))
        assert "t_extra" not in without.scrape().text()
        assert Exporter((*extra, 4)).scrape().text() == "# TYPE t_extra untyped\nt_extra 4.0\n"

    @pytest.mark.parametrize(
        "table",
        [
            (("9bad", "gauge", "Bad name."),),
            (("t_hist", "histogram", "Bad type."),),
            (*_TABLE, ("t_depth", "gauge", "Declared twice.")),
        ],
        ids=["name", "type", "twice"],
    )
    def test_bad_table_is_rejected_when_the_exporter_is_built(self, table):
        with pytest.raises(ValidationError):
            Exporter((table, lambda: iter(())))

    def test_family_declared_by_two_parts_is_rejected(self):
        with pytest.raises(ValidationError):
            Exporter((_TABLE, lambda: iter(())), (_TABLE[:1], lambda: iter(())))

    def test_reading_for_an_undeclared_family_is_rejected(self):
        exp = Exporter((_TABLE, lambda: [("t_other", 1.0, None)]))
        with pytest.raises(ValidationError):
            exp.scrape().text()


class TestNodeExporter:
    @pytest.fixture
    def world(self):
        cluster = Cluster(ClusterSpec(cabinets=1, chassis_per_cabinet=1))
        return cluster, NodeExporter(cluster, build_standard_bank(cluster))

    def test_exports_three_families_per_node(self, world):
        cluster, exp = world
        points = parse_exposition(exp.scrape().text())
        names = {p.name for p in points}
        assert names == {"node_up", "node_temp_celsius", "node_power_watts"}
        ups = [p for p in points if p.name == "node_up"]
        assert len(ups) == len(cluster.nodes)
        assert all(p.value == 1.0 for p in ups)

    def test_down_node_reports_zero(self, world):
        cluster, exp = world
        node = next(iter(cluster.nodes))
        cluster.set_node_state(node, NodeState.DOWN)
        points = parse_exposition(exp.scrape().text())
        down = [
            p for p in points if p.name == "node_up" and p.labels["xname"] == str(node)
        ]
        assert down[0].value == 0.0

    def test_subset_of_nodes(self, world):
        cluster, _ = world
        subset = sorted(cluster.nodes)[:3]
        exp = NodeExporter(cluster, build_standard_bank(cluster), nodes=subset)
        points = parse_exposition(exp.scrape().text())
        assert len([p for p in points if p.name == "node_up"]) == 3


class TestBlackboxExporter:
    def test_success_and_failure(self):
        exp = BlackboxExporter(
            [
                ProbeTarget("good", lambda: (True, 0.01)),
                ProbeTarget("bad", lambda: (False, 0.0)),
                ProbeTarget("crashy", lambda: 1 / 0),
            ]
        )
        points = parse_exposition(exp.scrape().text())
        by_target = {
            p.labels["target"]: p.value for p in points if p.name == "probe_success"
        }
        assert by_target == {"good": 1.0, "bad": 0.0, "crashy": 0.0}

    def test_duplicate_targets_rejected(self):
        t = ProbeTarget("x", lambda: (True, 0.0))
        with pytest.raises(ValidationError):
            BlackboxExporter([t, t])

    def test_numpy_latency_does_not_poison_the_target(self):
        exp = BlackboxExporter(
            [ProbeTarget("np", lambda: (np.bool_(True), np.float64(0.25)))]
        )
        exp.add_target(ProbeTarget("late", lambda: (True, np.float32(0.5))))
        values = {
            (p.name, p.labels["target"]): p.value
            for p in parse_exposition(exp.scrape().text())
        }
        assert values == {
            ("probe_success", "np"): 1.0, ("probe_duration_seconds", "np"): 0.25,
            ("probe_success", "late"): 1.0, ("probe_duration_seconds", "late"): 0.5,
        }


class TestKafkaExporter:
    def test_topic_and_lag_metrics(self):
        clock = SimClock(0)
        broker = Broker(clock)
        broker.create_topic("t")
        broker.produce("t", "hello")
        broker.poll("g", "t", 1)
        broker.produce("t", "more")
        points = parse_exposition(KafkaExporter(broker).scrape().text())
        msg = [p for p in points if p.name == "kafka_topic_messages_total"]
        assert msg[0].value == 2.0
        lag = [p for p in points if p.name == "kafka_consumergroup_lag"]
        assert lag[0].value == 1.0


class TestArubaExporter:
    def test_deterministic(self):
        a = ArubaExporter(switches=1, ports_per_switch=4, seed=1)
        b = ArubaExporter(switches=1, ports_per_switch=4, seed=1)
        for e in (a, b):
            e.step()
        assert a.scrape().text() == b.scrape().text()

    def test_down_port_moves_no_traffic(self):
        exp = ArubaExporter(switches=1, ports_per_switch=2, seed=0)
        exp.flap_probability = 0
        exp.force_port(0, 0, False)
        exp.step()
        points = parse_exposition(exp.scrape().text())
        rx = {
            p.labels["port"]: p.value
            for p in points
            if p.name == "aruba_port_rx_bytes_total"
        }
        assert rx["0"] == 0.0
        assert rx["1"] > 0.0
        assert exp.down_ports() == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ArubaExporter(switches=0)


# ----------------------------------------------------------------------
# Closure: what rules and panels select, something writes
# ----------------------------------------------------------------------
#: Series no exporter serves: the sensor, facility and GPFS paths write
#: them through ``ingest_metric``, tempo's self-metrics write the last.
NON_EXPORTER_SERIES = {
    "shasta_temperature_celsius",
    "facility_cdu_flow_lpm",
    "facility_pdu_load_kw",
    "facility_room_humidity_percent",
    "gpfs_unhealthy_nsds",
    "tempo_stage_latency_p99_seconds",
}


def test_every_selected_metric_is_declared_or_recorded():
    """A typo in a rule or a panel used to render an empty panel and fail
    nothing.  Family names are data now: every metric the all-planes
    framework's vmalert rules, recording rules and metric panels select
    is a family some exporter declares (a ``# TYPE`` line of its scrape,
    present even without samples), a series a recording rule writes, or
    on the short list above."""
    from repro.core.framework import MonitoringFramework
    from repro.slo import burn_metric_name
    from repro.tsdb.promql import PromQLEngine, leaf_reads, parse_promql
    from tests.test_wiring_manifest import FLAGS, _config

    fw = MonitoringFramework(_config(FLAGS, tracing_sampling=1.0))
    written = set(NON_EXPORTER_SERIES)
    for target in fw.vmagent.targets():
        lines = target.exporter.scrape().text().splitlines()
        written.update(ln.split()[2] for ln in lines if ln.startswith("# TYPE "))
    manager = fw.slo_manager
    recording = [*manager._ratio_rules.values(), *(alias for alias, _ in manager._aliases.values())]
    written.update(rule.record for rule in recording)
    # A window's burn is its ratio rule's series over each SLO's budget.
    written.update(burn_metric_name(window) for window in manager._ratio_rules)
    exprs = [(f"rule {rule.name}", rule.expr) for rule in fw.vmalert.rules()]
    exprs += [(f"recording rule {rule.record}", rule.expr) for rule in recording]
    for key, dashboard in fw.dashboards.items():
        for panel in dashboard.panels():
            if isinstance(panel.datasource, PromQLEngine):
                exprs.append((f"panel {key}/{panel.title}", panel.query))
    assert len(exprs) > 80  # 14 of them the SLO plane's, down from 63
    for where, expr in exprs:
        for selector, _ in leaf_reads(parse_promql(expr)):
            names = [m.value for m in selector.matchers if m.name == "__name__"]
            assert names and set(names) <= written, f"{where}: {expr}"
