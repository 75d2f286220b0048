"""Tests for OMNI: the lifecycle's archive and sweep, the warehouse."""

import pytest

from repro.bus.broker import Broker
from repro.common.labels import LabelSet, label_matcher
from repro.common.simclock import SimClock, days, hours
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest
from repro.loki.store import LokiStore
from repro.omni.lifecycle import ARCHIVE_BUCKET, TWO_YEARS_NS, Lifecycle
from repro.omni.warehouse import OmniWarehouse
from repro.tsdb.storage import TimeSeriesStore
from tests.tracing import off_tracer


LABELS = LabelSet({"cluster": "perlmutter", "data_type": "syslog"})
MATCH = [label_matcher("data_type", "=", "syslog")]


def archived(entries):
    """A lifecycle whose archive holds ``entries``, swept out of a store."""
    clock = SimClock(0)
    store = LokiStore()
    store.push_stream(LABELS, entries)
    store.flush_all()
    clock.advance(days(10))
    lifecycle = Lifecycle(clock, store, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
    lifecycle.hot_window_ns = days(1)
    assert lifecycle.sweep() == len(entries)
    return lifecycle


class TestArchive:
    def test_roundtrip(self):
        entries = [LogEntry(i, f"line {i}") for i in range(100)]
        lifecycle = archived(entries)
        assert lifecycle.entries_archived == 100
        assert lifecycle.archive.select(MATCH, 0, 1000) == [(LABELS, entries)]

    def test_compression(self):
        entries = [LogEntry(i, "repetitive " * 10) for i in range(100)]
        lifecycle = archived(entries)
        raw = sum(e.size_bytes() for e in entries)
        chunk_bytes = lifecycle.objstore.stored_bytes(ARCHIVE_BUCKET, prefix="chunks/")
        assert 0 < chunk_bytes < raw / 5

    def test_restore_range_filtering(self):
        lifecycle = archived([LogEntry(i * 10, str(i)) for i in range(10)])
        [(labels, entries)] = lifecycle.archive.select(MATCH, 25, 55)
        assert [e.timestamp_ns for e in entries] == [30, 40, 50]

    def test_restore_outside_range_empty(self):
        lifecycle = archived([LogEntry(5, "x")])
        assert lifecycle.archive.select(MATCH, 100, 200) == []

    def test_entries_sorted_on_archive(self):
        # Two sweeps write two archive objects for one stream; a read
        # returns them as one time-ordered stream.
        clock = SimClock(0)
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        lifecycle = Lifecycle(clock, store, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = days(1)
        early = [LogEntry(hours(i), f"early {i} " * 4) for i in range(4)]
        late = [LogEntry(days(5) + hours(i), f"late {i} " * 4) for i in range(4)]
        store.push_stream(LABELS, early + late)
        store.flush_all()
        clock.advance(days(3))
        assert lifecycle.sweep() == 4
        clock.advance(days(5))
        assert lifecycle.sweep() == 4
        assert lifecycle.archive_index.ref_count() == 2
        assert lifecycle.archive.select(MATCH, 0, days(10)) == [(LABELS, early + late)]

    def test_sweeps_into_one_period_leave_one_index_file(self):
        clock = SimClock(0)
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        lifecycle = Lifecycle(clock, store, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = days(1)
        morning = [LogEntry(hours(i), f"morning {i} " * 4) for i in range(4)]
        evening = [LogEntry(hours(12 + i), f"evening {i} " * 4) for i in range(4)]
        store.push_stream(LABELS, morning + evening)
        store.flush_all()
        clock.advance(days(1) + hours(6))
        assert lifecycle.sweep() == 4
        clock.advance(hours(12))
        assert lifecycle.sweep() == 4
        assert lifecycle.archive_index.periods() == [0]
        assert lifecycle.archive_index.index_file_count() == 1
        refs = lifecycle.archive_index.ref_count()
        assert lifecycle.archive_index.rebuild() == refs
        assert lifecycle.archive.select(MATCH, 0, days(1)) == [(LABELS, morning + evening)]


class TestRetention:
    def make_world(self, hot_days=10):
        clock = SimClock(0)
        store = LokiStore(ChunkPolicy(target_size_bytes=64))
        lifecycle = Lifecycle(clock, store, TimeSeriesStore(), Broker(clock), tracer=off_tracer())
        lifecycle.hot_window_ns = days(hot_days)
        return clock, store, lifecycle

    def test_default_policy_is_two_years(self):
        clock = SimClock(0)
        lifecycle = Lifecycle(clock, LokiStore(), TimeSeriesStore(), Broker(clock),
            tracer=off_tracer())
        assert lifecycle.hot_window_ns == TWO_YEARS_NS == days(730)

    def test_sweep_moves_old_sealed_chunks(self):
        clock, store, lifecycle = self.make_world(hot_days=10)
        old = [(hours(i), "x" * 40) for i in range(5)]
        store.push(PushRequest.single({"a": "b"}, old))
        store.flush_all()
        clock.advance(days(30))
        moved = lifecycle.sweep()
        assert moved == 5
        assert lifecycle.entries_archived == 5
        # Hot store no longer serves them...
        assert store.select([label_matcher("a", "=", "b")], 0, days(100)) == []

    def test_sweep_keeps_hot_data(self):
        clock, store, lifecycle = self.make_world(hot_days=10)
        store.push(PushRequest.single({"a": "b"}, [(0, "old " * 20)]))
        store.flush_all()
        clock.advance(days(5))  # inside the hot window
        assert lifecycle.sweep() == 0
        assert store.select([label_matcher("a", "=", "b")], 0, days(100)) != []

    def test_restore_is_a_read(self):
        clock, store, lifecycle = self.make_world(hot_days=1)
        store.push(
            PushRequest.single({"a": "b"}, [(hours(i), "y" * 40) for i in range(4)])
        )
        store.flush_all()
        clock.advance(days(10))
        lifecycle.sweep()
        # LogQL over the archive, as over any store: no re-ingest.
        engine = LogQLEngine(lifecycle.archive)
        [(_, entries)] = engine.query_logs('{a="b"}', 0, days(1))
        assert len(entries) == 4
        [sample] = engine.query_instant('sum(count_over_time({a="b"}[1d]))', hours(4))
        assert sample.value == 4.0
        # The archive's index files rebuild it from the bucket alone.
        assert lifecycle.archive_index.rebuild() == lifecycle.archive_index.ref_count()

    def test_periodic_sweeps(self):
        clock, store, lifecycle = self.make_world(hot_days=1)
        store.push(PushRequest.single({"a": "b"}, [(0, "z" * 64)]))
        store.flush_all()
        clock.every(days(1), lifecycle.sweep)
        clock.advance(days(3))
        assert lifecycle.sweeps == 3
        assert lifecycle.entries_archived == 1


class TestWarehouse:
    def test_ingest_both_kinds(self):
        clock = SimClock(0)
        w = OmniWarehouse(clock)
        w.ingest_log({"a": "b"}, 1, "line")
        w.ingest_metric("m", {"x": "1"}, 2.0, 1)
        assert w.messages_ingested == 2
        report = w.storage_report()
        assert report["log_entries"] == 1.0
        assert report["metric_samples"] == 1.0

    def test_rejected_metric_not_counted(self):
        clock = SimClock(0)
        w = OmniWarehouse(clock)
        w.ingest_metric("m", {}, 1.0, 100)
        assert not w.ingest_metric("m", {}, 1.0, 50)
        assert w.messages_ingested == 1

    def test_ingest_rate_accounting(self):
        clock = SimClock(0)
        w = OmniWarehouse(clock)
        for i in range(100):
            w.ingest_log({"a": "b"}, i, "x")
        clock.advance(1_000_000_000)  # one simulated second
        assert w.ingest_rate_per_simsecond() == pytest.approx(100.0)

    def test_history_span(self):
        clock = SimClock(0)
        w = OmniWarehouse(clock)
        w.ingest_log({"a": "b"}, 0, "x")
        clock.advance(days(3))
        assert w.history_span_days() == pytest.approx(3.0)

    def test_history_span_empty(self):
        assert OmniWarehouse(SimClock(0)).history_span_days() == 0.0
