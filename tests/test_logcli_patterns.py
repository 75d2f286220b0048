"""LogCLI ``query --patterns``: the detected_patterns table (satellite)."""

import json

import pytest

from repro.common.errors import QueryError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import minutes
from repro.loki.logcli import run_logcli
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.patterns.ingester import PatternIngester
from repro.patterns.store import PatternStore
from repro.common.simclock import SimClock
from tests.tracing import off_tracer


@pytest.fixture
def world():
    clock = SimClock()
    store = LokiStore()
    patterns = PatternStore(tracer=off_tracer())
    ingester = PatternIngester(clock, patterns, tracer=off_tracer())
    labels = {"app": "api"}
    entries = [
        (i, f"I/O error on dev sda, sector {i}") for i in range(5)
    ] + [(10, "service started cleanly")]
    store.push(PushRequest.single(labels, entries))
    ingester.observe(
        LabelSet(labels),
        [LogEntry(ts, line) for ts, line in entries],
    )
    return store, patterns


def run(store, patterns, *extra):
    return run_logcli(
        store,
        ["query", '{app="api"}', "--from", "0", "--to", str(minutes(1)),
         "--patterns", *extra],
        patterns=patterns,
    )


class TestPatternsTable:
    def test_table_output_busiest_first(self, world):
        store, patterns = world
        out = run(store, patterns)
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["COUNT", "STREAMS", "PATTERN_ID"]
        # Busiest template (5 I/O error lines) sorts first.
        assert "I/O error on dev sda, sector <*>" in lines[1]
        assert lines[1].split()[0] == "5"
        assert "service started cleanly" in lines[2]

    def test_jsonl_output(self, world):
        store, patterns = world
        out = run(store, patterns, "--output", "jsonl")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["count"] == 5
        assert rows[0]["streams"] == 1
        assert len(rows[0]["pattern_id"]) == 16
        assert "<*>" in rows[0]["template"]

    def test_limit_caps_rows(self, world):
        store, patterns = world
        out = run(store, patterns, "--limit", "1")
        assert len(out.splitlines()) == 2  # header + one row

    def test_limit_zero_means_no_limit(self, world):
        store, patterns = world
        out = run(store, patterns, "--limit", "0")
        assert len(out.splitlines()) == 3  # header + both rows

    def test_negative_limit_rejected(self, world):
        store, patterns = world
        with pytest.raises(ValidationError, match="--limit"):
            run(store, patterns, "--limit", "-1")

    def test_patterns_without_store_is_query_error(self, world):
        store, _ = world
        with pytest.raises(QueryError):
            run(store, None)

    def test_patterns_requires_bare_selector(self, world):
        store, patterns = world
        with pytest.raises(QueryError):
            run_logcli(
                store,
                ["query", '{app="api"} |= "error"', "--from", "0",
                 "--to", str(minutes(1)), "--patterns"],
                patterns=patterns,
            )
