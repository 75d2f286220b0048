"""Tests for the Loki data model and Figure-3 push format."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.loki.model import LogEntry, PushRequest, PushStream


class TestLogEntry:
    def test_ordering_by_timestamp(self):
        assert LogEntry(1, "b") < LogEntry(2, "a")

    def test_size_bytes_utf8(self):
        assert LogEntry(0, "abc").size_bytes() == 3
        assert LogEntry(0, "é").size_bytes() == 2


class TestPushStream:
    def test_requires_labels(self):
        with pytest.raises(ValidationError):
            PushStream(LabelSet(), (LogEntry(0, "x"),))

    def test_requires_entries(self):
        with pytest.raises(ValidationError):
            PushStream(LabelSet({"a": "b"}), ())


class TestPushRequest:
    def test_single_builder(self):
        req = PushRequest.single({"a": "b"}, [(1, "x"), (2, "y")])
        assert req.total_entries() == 2
        assert req.streams[0].labels == {"a": "b"}

    def test_figure3_roundtrip(self):
        fig3 = {
            "streams": [
                {
                    "stream": {
                        "Context": "x1102c4s0b0",
                        "cluster": "perlmutter",
                        "data_type": "redfish_event",
                    },
                    "values": [
                        [
                            "1646272077000000000",
                            '{"Severity":"Warning","MessageId":"CrayAlerts.1.0.'
                            'CabinetLeakDetected","Message":"..."}',
                        ]
                    ],
                }
            ]
        }
        stream = fig3["streams"][0]
        req = PushRequest.single(
            stream["stream"], [(int(ts), line) for ts, line in stream["values"]]
        )
        assert req.streams[0].entries[0].timestamp_ns == 1646272077000000000
        assert req.to_json_obj() == fig3

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True),
            st.text(max_size=8),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(0, 2**62), st.text(max_size=30)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_wire_roundtrip_property(self, labels, entries):
        req = PushRequest.single(labels, entries)
        assert req.to_json_obj() == {
            "streams": [
                {"stream": labels, "values": [[str(ts), line] for ts, line in entries]}
            ]
        }
