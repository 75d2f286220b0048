"""Tests for JSON helpers: timestamps, flattening, strict parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.jsonutil import (
    dumps_compact,
    flatten_json,
    iso8601_to_ns,
    loads,
    ns_to_iso8601,
)
from repro.common.labels import validate_label_name
from repro.common.simclock import NANOS_PER_SECOND


class TestTimestamps:
    def test_paper_timestamp(self):
        # Figure 2's EventTimestamp equals Figure 3's nanosecond value.
        assert iso8601_to_ns("2022-03-03T01:47:57+00:00") == 1646272077 * NANOS_PER_SECOND

    def test_naive_timestamp_assumed_utc(self):
        assert iso8601_to_ns("2022-03-03T01:47:57") == 1646272077 * NANOS_PER_SECOND

    def test_roundtrip(self):
        ns = 1646272077 * NANOS_PER_SECOND
        assert iso8601_to_ns(ns_to_iso8601(ns)) == ns

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            iso8601_to_ns("not a time")

    @given(st.integers(0, 4_000_000_000))
    def test_roundtrip_property(self, epoch_s):
        ns = epoch_s * NANOS_PER_SECOND
        assert iso8601_to_ns(ns_to_iso8601(ns)) == ns


class TestLoads:
    def test_valid(self):
        assert loads('{"a": 1}') == {"a": 1}

    def test_invalid_raises_validation_error(self):
        with pytest.raises(ValidationError):
            loads("{nope")

    def test_none_raises(self):
        with pytest.raises(ValidationError):
            loads(None)  # type: ignore[arg-type]


class TestDumpsCompact:
    def test_no_spaces_sorted(self):
        assert dumps_compact({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestFlatten:
    def test_scalars(self):
        assert dict(flatten_json({"a": "x", "b": 2})) == {"a": "x", "b": "2"}

    def test_nested(self):
        flat = dict(flatten_json({"a": {"b": {"c": 1}}}))
        assert flat == {"a_b_c": "1"}

    def test_arrays(self):
        flat = dict(flatten_json({"xs": ["p", "q"]}))
        assert flat == {"xs_0": "p", "xs_1": "q"}

    def test_bool_and_null(self):
        flat = dict(flatten_json({"t": True, "f": False, "n": None}))
        assert flat == {"t": "true", "f": "false", "n": ""}

    def test_integral_float(self):
        assert dict(flatten_json({"v": 2.0})) == {"v": "2"}

    def test_key_sanitisation(self):
        flat = dict(flatten_json({"@odata.id": "x", "9lives": "y"}))
        assert flat == {"_odata_id": "x", "_9lives": "y"}

    def test_every_sanitised_key_is_a_label_name(self):
        # The engine merges these keys without validating them again.
        obj = {"": 1, "9lives": 2, "a.b-c d": 3, "café": 4, "k²": 5, "٣x": 6,
               "nest": {"": {"é": 7}, "0": 8}, "xs": [9, [10, {"-": 11}]]}
        flat = dict(flatten_json(obj))
        assert len(flat) == 11
        for key in flat:
            assert validate_label_name(key) == key

    @settings(max_examples=200, deadline=None)
    @given(obj=st.dictionaries(st.text(max_size=4), st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ), max_size=4))
    def test_any_object_flattens_to_label_names(self, obj):
        for key, _value in flatten_json(obj):
            validate_label_name(key)

    def test_wanted_keeps_only_its_keys_in_order(self):
        obj = {"b": 1, "a": {"b": 2}, "a_b": 3, "c": [4]}
        assert list(flatten_json(obj, frozenset({"a_b", "c_0"}))) == [
            ("a_b", "2"), ("a_b", "3"), ("c_0", "4"),
        ]
        assert list(flatten_json(obj, frozenset())) == []

    def test_paper_redfish_content(self):
        content = {
            "Severity": "Warning",
            "MessageId": "CrayAlerts.1.0.CabinetLeakDetected",
            "Message": "Sensor 'A' ... leak.",
        }
        flat = dict(flatten_json(content))
        assert flat["Severity"] == "Warning"
        assert flat["MessageId"] == "CrayAlerts.1.0.CabinetLeakDetected"
