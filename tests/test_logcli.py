"""Tests for LogCLI, the command-line query client (paper §III.A)."""

import json

import pytest

from repro.common.errors import QueryError, ValidationError
from repro.common.simclock import minutes, seconds
from repro.loki.logcli import run_logcli
from repro.loki.model import PushRequest
from repro.loki.store import LokiStore
from tests.tracing import off_tracer


@pytest.fixture
def store():
    s = LokiStore()
    s.push(
        PushRequest.single(
            {"app": "fm", "cluster": "perlmutter"},
            [
                (seconds(1), "[critical] problem:fm_switch_offline, "
                             "xname:x1002c1r7b0, state:UNKNOWN"),
                (seconds(2), "[info] problem:fm_switch_online, "
                             "xname:x1002c1r7b0, state:ONLINE"),
            ],
        )
    )
    s.push(PushRequest.single({"app": "api"}, [(seconds(3), "request ok")]))
    return s


class TestLogQueries:
    def test_default_output(self, store):
        out = run_logcli(
            store,
            ["query", '{app="fm"} |= "offline"', "--from", "0",
             "--to", str(minutes(1))],
        )
        assert "fm_switch_offline" in out
        assert "2022" not in out  # epoch 0-based timestamps
        assert len(out.splitlines()) == 1

    def test_jsonl_output(self, store):
        out = run_logcli(
            store,
            ["query", '{app="fm"}', "--from", "0", "--to", str(minutes(1)),
             "--output", "jsonl"],
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2
        assert rows[0]["labels"]["app"] == "fm"

    def test_raw_output(self, store):
        out = run_logcli(
            store,
            ["query", '{app="api"}', "--from", "0", "--to", str(minutes(1)),
             "--output", "raw"],
        )
        assert out == "request ok"

    def test_limit_keeps_newest(self, store):
        out = run_logcli(
            store,
            ["query", '{app="fm"}', "--from", "0", "--to", str(minutes(1)),
             "--limit", "1", "--output", "raw"],
        )
        assert "online" in out and "offline" not in out

    def test_limit_zero_means_no_limit(self, store):
        out = run_logcli(
            store,
            ["query", '{app="fm"}', "--from", "0", "--to", str(minutes(1)),
             "--limit", "0", "--output", "raw"],
        )
        assert len(out.splitlines()) == 2

    def test_negative_limit_rejected(self, store):
        # rows[-(-1):] would drop the oldest line instead of capping.
        with pytest.raises(ValidationError, match="--limit"):
            run_logcli(
                store,
                ["query", '{app="fm"}', "--from", "0",
                 "--to", str(minutes(1)), "--limit", "-1"],
            )

    def test_bad_window_rejected(self, store):
        with pytest.raises(ValidationError):
            run_logcli(store, ["query", '{app="fm"}', "--from", "10", "--to", "10"])


class TestMetricQueries:
    def test_instant(self, store):
        out = run_logcli(
            store,
            ["query", 'sum(count_over_time({app="fm"}[1m])) by (app)',
             "--from", "0", "--to", str(minutes(1))],
        )
        assert "=> 2" in out

    def test_range_with_step(self, store):
        out = run_logcli(
            store,
            ["query", 'count_over_time({app="fm"}[30s])',
             "--from", "0", "--to", str(minutes(1)),
             "--step", str(seconds(30))],
        )
        assert ":" in out  # ts:value pairs


class TestBrowsing:
    def test_labels(self, store):
        out = run_logcli(store, ["labels"])
        assert out.splitlines() == ["app", "cluster"]

    def test_label_values(self, store):
        out = run_logcli(store, ["label-values", "app"])
        assert out.splitlines() == ["api", "fm"]

    def test_series(self, store):
        out = run_logcli(store, ["series", '{app="fm"}'])
        assert "perlmutter" in out
        assert len(out.splitlines()) == 1

    def test_series_rejects_pipelines(self, store):
        with pytest.raises(QueryError):
            run_logcli(store, ["series", '{app="fm"} |= "x"'])


# ----------------------------------------------------------------------
# Browsing works on every store shape the framework can hand out
# ----------------------------------------------------------------------
def _tiered(hot):
    from tests.test_objstore_gateway_tiered import make_tiered

    return make_tiered(hot)[1]


def _ring():
    from repro.ring.cluster import RingLokiCluster

    return RingLokiCluster(ingesters=4, replication_factor=3, tracer=off_tracer())


def _cold_only():
    """A tiered store whose hot tier restarted empty: every stream it
    knows lives in the cold index alone."""
    from repro.objstore.tiered import TieredLokiStore

    first = _tiered(LokiStore())
    _push_browsing_corpus(first)
    first.flush_all()
    first.flush_to_cold()
    return TieredLokiStore(
        LokiStore(), first.objstore, first.index, first.shipper,
        first.compactor, first.gateway,
    )


def _push_browsing_corpus(target):
    for labels in (
        {"app": "fm", "cluster": "perlmutter"},
        {"app": "api", "cluster": "perlmutter", "pod": "api-0"},
        {"app": "api", "cluster": "muller"},
    ):
        target.push(PushRequest.single(labels, [(seconds(1), "line")]))


STORE_SHAPES = {
    "bare": LokiStore,
    "ring": _ring,
    "tiered": lambda: _tiered(LokiStore()),
    "ring+tiered": lambda: _tiered(_ring()),
}


class TestBrowsingAcrossStoreShapes:
    """``labels`` / ``label-values`` / ``series`` used to reach into
    ``store.index``, which only a bare LokiStore has (the ring has none,
    the tiered store's is the cold ShipperIndex)."""

    EXPECTED = {
        "labels": "app\ncluster\npod",
        "label-values app": "api\nfm",
        "label-values pod": "api-0",
        "label-values nope": "",
        'series {app="api"}': (
            '{app="api", cluster="muller"}\n'
            '{app="api", cluster="perlmutter", pod="api-0"}'
        ),
        'series {cluster=~"perl.*", pod=""}': '{app="fm", cluster="perlmutter"}',
    }

    @pytest.mark.parametrize("shape", STORE_SHAPES)
    def test_same_sorted_output_for_the_same_pushes(self, shape):
        target = STORE_SHAPES[shape]()
        _push_browsing_corpus(target)
        for command, expected in self.EXPECTED.items():
            assert run_logcli(target, command.split(" ", 1)) == expected, command

    def test_cold_only_streams_are_listed(self):
        target = _cold_only()
        assert target.hot.stream_count() == 0
        for command, expected in self.EXPECTED.items():
            assert run_logcli(target, command.split(" ", 1)) == expected, command
