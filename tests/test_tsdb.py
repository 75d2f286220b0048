"""Tests for the TSDB storage engine."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, label_matcher
from repro.tsdb.storage import TimeSeriesStore
from repro.common.labels import LabelSet


@pytest.fixture
def store():
    return TimeSeriesStore()


class TestIngest:
    def test_basic(self, store):
        assert store.ingest("m", {"a": "b"}, 1.5, 100)
        assert store.samples_ingested == 1
        assert store.series_count() == 1

    def test_empty_name_rejected(self, store):
        with pytest.raises(ValidationError):
            store.ingest("", {}, 1.0, 0)

    def test_out_of_order_rejected(self, store):
        store.ingest("m", {}, 1.0, 100)
        assert not store.ingest("m", {}, 2.0, 50)
        assert store.samples_rejected == 1

    def test_equal_timestamp_accepted(self, store):
        store.ingest("m", {}, 1.0, 100)
        assert store.ingest("m", {}, 2.0, 100)

    def test_series_identity_includes_name_and_labels(self, store):
        store.ingest("m", {"a": "1"}, 1.0, 0)
        store.ingest("m", {"a": "2"}, 1.0, 0)
        store.ingest("n", {"a": "1"}, 1.0, 0)
        assert store.series_count() == 3

    def test_ingest_many(self, store):
        accepted = [store.ingest("m", LabelSet({"i": str(i)}), float(i), i) for i in range(5)]
        assert sum(accepted) == 5

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50))
    def test_sorted_ingest_always_accepted(self, timestamps):
        store = TimeSeriesStore()
        accepted = 0
        for ts in sorted(timestamps):
            if store.ingest("m", {}, 0.0, ts):
                accepted += 1
        assert accepted == len(timestamps)


class TestSelect:
    def test_by_name(self, store):
        store.ingest("temp", {"x": "1"}, 10.0, 100)
        store.ingest("power", {"x": "1"}, 20.0, 100)
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "temp")], 0, 200)
        assert len(results) == 1
        labels, ts, vals = results[0]
        assert labels[METRIC_NAME_LABEL] == "temp"
        assert vals.tolist() == [10.0]

    def test_window_slicing(self, store):
        for i in range(10):
            store.ingest("m", {}, float(i), i * 10)
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 20, 50)
        _, ts, vals = results[0]
        assert ts.tolist() == [20, 30, 40]
        assert vals.tolist() == [2.0, 3.0, 4.0]

    def test_empty_window_drops_series(self, store):
        store.ingest("m", {}, 1.0, 100)
        assert store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 50) == []

    def test_empty_range_rejected(self, store):
        with pytest.raises(ValidationError):
            store.select([], 10, 10)

    def test_regex_matcher(self, store):
        store.ingest("node_up", {"xname": "x1c0s0b0n0"}, 1.0, 0)
        store.ingest("node_up", {"xname": "x2c0s0b0n0"}, 1.0, 0)
        results = store.select(
            [
                label_matcher(METRIC_NAME_LABEL, "=", "node_up"),
                label_matcher("xname", "=~", "x1.*"),
            ],
            0,
            10,
        )
        assert len(results) == 1

    def test_column_growth_beyond_initial_capacity(self, store):
        for i in range(1000):
            store.ingest("m", {}, float(i), i)
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 1000)
        assert len(results[0][1]) == 1000
        assert np.all(np.diff(results[0][1]) >= 0)


class TestRetention:
    def test_delete_before(self, store):
        for i in range(10):
            store.ingest("m", {}, float(i), i * 10)
        dropped = store.delete_before(50)
        assert dropped == 5
        results = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 1000)
        assert results[0][1].tolist() == [50, 60, 70, 80, 90]

    def test_fully_expired_series_removed(self, store):
        store.ingest("m", {}, 1.0, 10)
        store.delete_before(100)
        assert store.series_count() == 0
        assert store.metric_names() == []

    def test_ingest_after_retention(self, store):
        store.ingest("m", {}, 1.0, 10)
        store.delete_before(100)
        assert store.ingest("m", {}, 2.0, 200)

    def test_an_emptied_series_starts_afresh(self, store):
        by_name = [label_matcher(METRIC_NAME_LABEL, "=", "m")]
        for labels in ({"a": "1"}, LabelSet({"a": "1"})):  # both kinds of ref
            store.ingest("m", labels, 1.0, 100)
        store.ingest("other", {}, 1.0, 500)
        assert store.delete_before(200) == 2
        assert store.series_count() == 1 and store.metric_names() == ["other"]
        assert store.select(by_name, 0, 1000) == []
        # Older than anything the dropped column held: it is a new column.
        for labels in ({"a": "1"}, LabelSet({"a": "1"})):
            assert store.ingest("m", labels, 2.0, 50)
        assert store.series_count() == 2
        assert store.metric_names() == ["m", "other"]
        ((labels, ts, vals),) = store.select(
            [label_matcher("a", "=", "1")], 0, 1000
        )
        assert labels == {METRIC_NAME_LABEL: "m", "a": "1"}
        assert ts.tolist() == [50, 50] and vals.tolist() == [2.0, 2.0]

    def test_a_trimmed_series_orders_against_its_new_tail(self, store):
        for i in range(40):  # past the first capacity doubling
            store.ingest("m", {"a": "1"}, float(i), i * 10)
        assert store.delete_before(355) == 36
        assert not store.ingest("m", {"a": "1"}, 9.0, 380)  # before the tail, 390
        assert store.samples_rejected == 1
        assert store.ingest("m", {"a": "1"}, 9.0, 390)
        for i in range(40):
            assert store.ingest("m", {"a": "1"}, float(i), 400 + i)
        ((_, ts, vals),) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 1000)
        assert ts.tolist() == [360, 370, 380, 390, 390, *range(400, 440)]
        assert vals.tolist()[:5] == [36.0, 37.0, 38.0, 39.0, 9.0]
        assert store.sample_count() == 45

    def test_views_handed_out_before_retention_keep_what_they_showed(self, store):
        for i in range(10):
            store.ingest("m", {}, float(i), i * 10)
        ((_, ts, vals),) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 1000)
        store.delete_before(50)
        store.ingest("m", {}, 99.0, 100)
        assert ts.tolist() == [i * 10 for i in range(10)]
        assert vals.tolist() == [float(i) for i in range(10)]

    def test_exemplar_rings_follow_the_series_not_the_ref(self, store):
        from repro.tsdb.storage import Exemplar

        by_name = [label_matcher(METRIC_NAME_LABEL, "=", "m")]
        store.ingest("m", {"a": "1"}, 1.0, 100, exemplar=Exemplar("t1", 1.0, 100))
        store.ingest("m", LabelSet({"a": "1"}), 2.0, 300, exemplar=Exemplar("t2", 2.0, 300))
        ((_, hits),) = store.exemplars(by_name, 0, 1000)
        assert [e.trace_id for e in hits] == ["t1", "t2"]
        store.delete_before(200)  # trims the column and the ring, keeps both refs
        ((_, hits),) = store.exemplars(by_name, 0, 1000)
        assert [e.trace_id for e in hits] == ["t2"]
        store.ingest("m", {"a": "1"}, 3.0, 400, exemplar=Exemplar("t3", 3.0, 400))
        store.delete_before(1000)  # empties the series: ring and refs go
        assert store.exemplars(by_name, 0, 10_000) == []
        store.ingest("m", {"a": "1"}, 4.0, 50, exemplar=Exemplar("t4", 4.0, 50))
        ((_, hits),) = store.exemplars(by_name, 0, 10_000)
        assert [e.trace_id for e in hits] == ["t4"]


class TestSeriesRefs:
    def test_every_spelling_of_a_series_reaches_one_column(self, store):
        store.ingest("m", {"a": "1", "b": "2"}, 1.0, 10)
        store.ingest("m", {"b": "2", "a": "1"}, 2.0, 20)
        store.ingest("m", LabelSet({"a": "1", "b": "2"}), 3.0, 30)
        store.ingest("x", {METRIC_NAME_LABEL: "x", "a": "1", "b": "2"}, 4.0, 40)
        store.ingest("m", {METRIC_NAME_LABEL: "x", "a": "1", "b": "2"}, 5.0, 50)
        assert store.series_count() == 2
        ((_, ts, _v),) = store.select([label_matcher(METRIC_NAME_LABEL, "=", "m")], 0, 100)
        assert ts.tolist() == [10, 20, 30, 50]
        assert not store.ingest("m", {"b": "2", "a": "1"}, 0.0, 49)

    def test_a_dict_the_caller_keeps_changing_is_read_each_time(self, store):
        labels = {"a": "1"}
        store.ingest("m", labels, 1.0, 10)
        labels["a"] = "2"
        store.ingest("m", labels, 1.0, 10)
        labels["b"] = "3"
        store.ingest("m", labels, 1.0, 10)
        assert store.series_count() == 3

    def test_a_key_that_fails_validation_fails_every_time(self, store):
        for _ in range(2):
            with pytest.raises(ValidationError):
                store.ingest("", {"a": "1"}, 1.0, 0)
            with pytest.raises(ValidationError):
                store.ingest("m", {"9bad": "1"}, 1.0, 0)
            with pytest.raises(ValidationError):
                store.ingest("m", {"a": 1}, 1.0, 0)
            with pytest.raises(ValidationError):
                store.ingest("m", {"a": ["unhashable"]}, 1.0, 0)
        assert store.series_count() == 0 and store.samples_ingested == 0
        assert store.ingest("m", {"a": "1"}, 1.0, 0)

    def test_select_returns_series_in_ascending_label_order(self, store):
        for name, a in [("z", "1"), ("m", "2"), ("m", "10"), ("a", "9")]:
            store.ingest(name, {"a": a}, 1.0, 0)
        got = [labels.items_tuple() for labels, _t, _v in store.select(
            [label_matcher("a", "=~", ".+")], 0, 10
        )]
        assert got == sorted(got) and len(got) == 4


class TestIntrospection:
    def test_metric_names(self, store):
        store.ingest("b_metric", {}, 1.0, 0)
        store.ingest("a_metric", {}, 1.0, 0)
        assert store.metric_names() == ["a_metric", "b_metric"]

    def test_retained_bytes(self, store):
        store.ingest("m", {}, 1.0, 0)
        store.ingest("m", {}, 2.0, 1)
        assert store.retained_bytes() == 32
