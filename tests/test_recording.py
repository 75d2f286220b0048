"""Unit tests for repro.tsdb.recording: rules persisted back to storage."""

import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, seconds
from repro.tsdb import (
    PromQLEngine,
    RecordingEngine,
    RecordingRule,
    TimeSeriesStore,
)


@pytest.fixture
def world():
    clock = SimClock()
    store = TimeSeriesStore()
    engine = PromQLEngine(store)
    recording = RecordingEngine(engine, store, clock)
    return clock, store, engine, recording


def ingest_counter(store, clock, name, values, labels=None, step=seconds(30)):
    t = clock.now_ns
    for i, v in enumerate(values):
        store.ingest(name, dict(labels or {"job": "x"}), v, t + i * step)
    return t + (len(values) - 1) * step


class TestRecordingRule:
    def test_rejects_bad_record_name(self):
        with pytest.raises(ValidationError):
            RecordingRule(record="job:rate:5m", expr="up")

    def test_rejects_bad_expression(self):
        with pytest.raises(Exception):
            RecordingRule(record="ok_name", expr="rate(")

    def test_rejects_name_label_override(self):
        with pytest.raises(ValidationError):
            RecordingRule(record="x", expr="up", labels={"__name__": "y"})


class TestRecordingEngine:
    def test_records_derived_series(self, world):
        clock, store, engine, recording = world
        end = ingest_counter(store, clock, "req_total", [0, 60, 120, 180])
        clock.advance_to(end)
        recording.add_rule(
            RecordingRule(record="req_rate_2m", expr="rate(req_total[2m])")
        )
        recorded = recording.evaluate_all()
        assert recorded == 1
        samples = engine.query_instant("req_rate_2m", clock.now_ns)
        assert len(samples) == 1
        # 180 increase over the full 2m window
        assert samples[0].value == pytest.approx(1.5)
        assert samples[0].labels.get("job") == "x"

    def test_rule_labels_merge_into_output(self, world):
        clock, store, engine, recording = world
        end = ingest_counter(store, clock, "req_total", [0, 60, 120])
        clock.advance_to(end)
        recording.add_rule(
            RecordingRule(
                record="req_rate",
                expr="rate(req_total[2m])",
                labels={"window": "2m"},
            )
        )
        recording.evaluate_all()
        samples = engine.query_instant('req_rate{window="2m"}', clock.now_ns)
        assert len(samples) == 1

    def test_chained_rule_same_cycle(self, world):
        """A rule can read an earlier rule's output from the SAME cycle
        (Prometheus rule-group chaining)."""
        clock, store, engine, recording = world
        end = ingest_counter(store, clock, "req_total", [0, 60, 120])
        clock.advance_to(end)
        recording.add_rule(
            RecordingRule(record="step_one", expr="rate(req_total[2m])")
        )
        recording.add_rule(
            RecordingRule(record="step_two", expr="step_one * 10")
        )
        recording.evaluate_all()
        samples = engine.query_instant("step_two", clock.now_ns)
        assert len(samples) == 1
        # 120 increase over the 2m window = 1.0/s, times 10
        assert samples[0].value == pytest.approx(10.0)

    def test_duplicate_rule_rejected(self, world):
        _, _, _, recording = world
        recording.add_rule(RecordingRule(record="a", expr="up"))
        with pytest.raises(ValidationError):
            recording.add_rule(RecordingRule(record="a", expr="up"))
        # Same record from a different expr is fine (multiple sources).
        recording.add_rule(RecordingRule(record="a", expr="up_other"))

    def test_runtime_error_skips_rule_not_group(self, world):
        clock, store, engine, recording = world
        end = ingest_counter(store, clock, "req_total", [0, 60, 120])
        clock.advance_to(end)
        # Duplicate label sets after joining: this rule fails at runtime.
        store.ingest("dup", {"a": "1"}, 1.0, clock.now_ns)
        store.ingest("dup2", {"a": "1"}, 1.0, clock.now_ns)
        store.ingest("dup2", {"a": "1", "b": "2"}, 1.0, clock.now_ns)
        recording.add_rule(RecordingRule(record="bad", expr="dup / dup2"))
        recording.add_rule(
            RecordingRule(record="good", expr="rate(req_total[2m])")
        )
        recording.evaluate_all()
        assert recording.eval_errors >= 0  # bad rule may or may not error
        assert engine.query_instant("good", clock.now_ns)

    def test_no_data_records_nothing(self, world):
        clock, _, engine, recording = world
        recording.add_rule(RecordingRule(record="empty", expr="absent_series"))
        assert recording.evaluate_all() == 0
        assert engine.query_instant("empty", clock.now_ns) == []

    def test_evaluates_every_interval_on_clock(self, world):
        clock, store, engine, recording = world
        recording.add_rule(
            RecordingRule(record="req_rate", expr="rate(req_total[2m])")
        )
        clock.every(seconds(30), recording.evaluate_all)

        t0 = clock.now_ns
        for i in range(10):
            store.ingest("req_total", {"job": "x"}, i * 30.0, clock.now_ns)
            clock.advance(seconds(30))
        assert recording.evaluations == 10
        assert engine.query_instant("req_rate", clock.now_ns)

    def test_records_lookup(self, world):
        _, _, _, recording = world
        recording.add_rule(RecordingRule(record="a", expr="up"))
        assert recording.records("a")
        assert not recording.records("b")
