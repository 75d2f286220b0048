"""The log-line envelope: one encoder whose bytes are ``dumps_compact``'s,
one decoder that refuses every malformed shape as a ``ValidationError`` —
so a poison record is counted (and, reliably delivered, quarantined)
instead of stopping the clock.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bus.broker import Broker, TopicConfig
from repro.cluster.topology import ClusterSpec
from repro.common.errors import ValidationError
from repro.common.jsonutil import (
    LogEnvelopeEncoder,
    decode_log_envelope,
    dumps_compact,
)
from repro.common.simclock import SimClock, minutes
from repro.core.consumers import MAX_DELIVERY_FAILURES, LogLineConsumer
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.omni.warehouse import OmniWarehouse
from repro.shasta.hms import TOPIC_SYSLOG
from repro.shasta.telemetry_api import TelemetryAPI
from repro.tempo.instrument import PipelineTracing
from tests.tracing import off_tracer

TEXT = st.text(max_size=40)
LABELS = st.dictionaries(TEXT, TEXT, max_size=5)
TIMESTAMPS = st.integers(min_value=-(2**70), max_value=2**70)
# Quotes, backslashes, control characters, a non-BMP code point, a lone
# surrogate (JSON escapes it; UTF-8 would refuse it).
AWKWARD = 'say "hi"\\n\x00\x1f\x7f\u2028 \U0001f525 \ud800 é'


def reference(labels, ts, line) -> str:
    return dumps_compact({"labels": labels, "ts": ts, "line": line})


class TestEncoderIsDumpsCompact:
    @settings(deadline=None)
    @given(labels=LABELS, ts=TIMESTAMPS, line=TEXT, again=TEXT)
    @example(labels={AWKWARD: AWKWARD, "b": "1", "a": "2"}, ts=0, line=AWKWARD, again="")
    def test_byte_for_byte_first_sight_and_cached(self, labels, ts, line, again):
        encoder = LogEnvelopeEncoder()
        assert encoder.encode(labels, ts, line) == reference(labels, ts, line)
        # The second line of a stream takes the cached head.
        assert encoder.encode(labels, ts + 1, again) == reference(labels, ts + 1, again)
        assert decode_log_envelope(encoder.encode(labels, ts, line)) == (labels, ts, line)

    @given(labels=LABELS.filter(lambda d: len(d) > 1), ts=TIMESTAMPS, line=TEXT)
    def test_every_key_order_encodes_alike(self, labels, ts, line):
        encoder = LogEnvelopeEncoder()
        backwards = dict(reversed(list(labels.items())))
        assert encoder.encode(labels, ts, line) == encoder.encode(backwards, ts, line)
        assert len(encoder._heads) == 2  # one head per order as given

    @pytest.mark.parametrize(
        "value", [1, True, 1.0, None, ["x"], {"k": "v"}], ids=repr
    )
    def test_a_non_str_label_value_is_encoded_as_given_and_never_kept(self, value):
        """The consumer refuses it; the producer must not confuse it with
        an equal-hashing neighbour (``1 == True == 1.0``)."""
        encoder = LogEnvelopeEncoder()
        for _ in range(2):
            labels = {"app": value}
            assert encoder.encode(labels, 7, "x") == reference(labels, 7, "x")
        assert not encoder._heads

    def test_the_head_table_is_bounded(self):
        encoder = LogEnvelopeEncoder()
        encoder.MAX_HEADS = 4
        for pid in range(10):
            labels = {"app": "a", "pid": str(pid)}
            assert encoder.encode(labels, pid, "x") == reference(labels, pid, "x")
            assert len(encoder._heads) <= 4

    @pytest.mark.parametrize(
        ("ts", "line"), [(1, 5), (1, None), (1, b"x"), (1.5, "x"), ("1", "x"), (None, "x")]
    )
    def test_line_and_timestamp_types_are_checked_on_every_line(self, ts, line):
        encoder = LogEnvelopeEncoder()
        encoder.encode({"app": "a"}, 1, "first sight")
        with pytest.raises(ValidationError):
            encoder.encode({"app": "a"}, ts, line)


NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
STREAMS = st.dictionaries(NAMES, TEXT, min_size=1, max_size=4)
# A chunk refuses its own record separator; that case is test_stream_refs'.
LINES = st.text(alphabet=st.characters(exclude_characters="\x1e", exclude_categories=["Cs"]),
                max_size=40)


class TestRoundTrip:
    @settings(deadline=None, max_examples=50)
    @given(published=st.lists(st.tuples(STREAMS, LINES), min_size=1, max_size=8))
    def test_through_the_broker_and_the_consumer_into_the_store(self, published):
        clock = SimClock(0)
        broker = Broker(clock)
        broker.create_topic("logs", TopicConfig(partitions=2))
        api = TelemetryAPI(broker)
        api.register_client("pod", "token")
        warehouse = OmniWarehouse(clock)
        consumer = LogLineConsumer(api, "token", "logs", warehouse,
            tracing=PipelineTracing(off_tracer()))
        encoder = LogEnvelopeEncoder()
        want: dict[tuple, list[str]] = {}
        for ts, (labels, line) in enumerate(published):
            broker.produce("logs", encoder.encode(labels, ts, line), timestamp_ns=ts)
            want.setdefault(tuple(sorted(labels.items())), []).append(line)
        assert consumer.pump() == len(published)
        assert consumer.records_failed == 0
        got = {
            labels.items_tuple(): sorted(e.line for e in entries)
            for labels, entries in warehouse.loki.select([], 0, len(published))
        }
        assert got == {key: sorted(lines) for key, lines in want.items()}


class TestRecordSize:
    @given(value=st.text(max_size=60), key=st.none() | st.text(max_size=20))
    @example(value='say "hi" \U0001f525 é', key="nöde")
    def test_size_is_the_utf8_length(self, value, key):
        broker = Broker(SimClock(0))
        broker.create_topic("t")
        record = broker.produce("t", value, key=key)
        assert record.size_bytes() == len(value.encode()) + len((key or "").encode())
        assert broker.topic_stats("t")["total_bytes"] == record.size_bytes()


MALFORMED = [
    '{"labels":{"app":"a"},"ts":1,"line":5}',
    '{"labels":{"app":"a"},"ts":1,"line":null}',
    '{"labels":["a","b"],"ts":1,"line":"x"}',
    '{"labels":"abc","ts":1,"line":"x"}',
    '{"labels":{"app":"a"},"ts":Infinity,"line":"x"}',
    '{"labels":{"app":"a"},"ts":"soon","line":"x"}',
    '{"labels":{"app":"a"},"line":"x"}',
    '["labels","ts","line"]',
    '"labels"',
    "not json at all",
]
# Well-formed envelopes whose labels the store refuses at first sight.
BAD_STREAMS = [
    '{"labels":{"app":1},"ts":1,"line":"x"}',
    '{"labels":{"0app":"a"},"ts":1,"line":"x"}',
]


class TestPoisonEnvelopes:
    """The first five shapes used to escape ``pump()`` as a ``TypeError``,
    ``ValueError`` or ``OverflowError`` and take ``run_for`` down with it."""

    @pytest.mark.parametrize("value", MALFORMED)
    def test_decoder_refuses_it(self, value):
        with pytest.raises(ValidationError):
            decode_log_envelope(value)

    @pytest.mark.parametrize("reliable", [False, True], ids=["at-most-once", "reliable"])
    def test_counted_then_quarantined_and_the_pipeline_flows_on(self, reliable):
        fw = MonitoringFramework(
            FrameworkConfig(
                cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1),
                enable_reliable_delivery=reliable,
            )
        )
        fw.start()
        poison = MALFORMED + BAD_STREAMS
        for value in poison:
            fw.broker.produce(TOPIC_SYSLOG, value)
        fw.publish_syslog({"app": "a", "hostname": "x1c0s0b0n0"}, fw.clock.now_ns, "good line")
        # Reliably delivered, a poison record blocks its partition for
        # MAX_DELIVERY_FAILURES pumps before the one behind it gets a turn.
        fw.run_for(minutes(5))
        pod = fw.syslog_consumer
        if reliable:
            retries = MAX_DELIVERY_FAILURES
            assert pod.records_failed == retries * len(poison)
            assert pod.records_quarantined == len(poison)
            assert fw.broker.dlq_depth(TOPIC_SYSLOG) == len(poison)
        else:
            assert (pod.records_failed, pod.records_quarantined) == (len(poison), 0)
        assert pod.lag() == 0
        results = fw.logql.query_logs('{app="a"}', 0, fw.clock.now_ns + 1)
        assert [e.line for _, entries in results for e in entries] == ["good line"]
