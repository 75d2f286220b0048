"""The log write path resolves a stream once (DESIGN §3, "one ref per
stream"): however a line's labels are spelled, the store ends where a
reference that builds ``LabelSet(labels)`` for every line ends, labels
that fail validation never enter a ref table, and — the budget at the
bottom — a steady-state line pays for no ``LabelSet``, one size and one
JSON encode and decode.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ClusterSpec
from repro.common import jsonutil
from repro.common.errors import StreamLimitError, ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.planes import PLANES
from repro.loki.chunks import SEPARATOR, Chunk, ChunkPolicy
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore, StoreStats
from repro.omni.warehouse import OmniWarehouse
from repro.ring.cluster import RingLokiCluster
from repro.ring.distributor import REPLICATION_FACTOR
from repro.shasta.hms import TOPIC_SYSLOG
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry, TenantLimits
from tests.counting import counted
from tests.tracing import off_tracer

NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True)
STREAMS = st.lists(
    st.dictionaries(NAMES, st.text(max_size=4), min_size=1, max_size=4),
    min_size=1, max_size=3,
)
#: Labels no stream may have: an illegal name, a non-``str`` value
#: (``1`` hashes like ``True``), an unhashable one, none at all.
INVALID = [{"0bad": "x"}, {"a-b": "x"}, {"app": 1}, {"app": True}, {"app": ["x"]}, {}]
FORMS = ("dict", "reversed", "shuffled", "labelset")
LINES = st.text(alphabet="ab\x1eé", max_size=6)
#: One push: (stream or ~invalid, spelling, [(timestamp, line), ...]).
#: Few timestamps, so lines arrive out of order; few characters, so the
#: reserved separator turns up, mid-push too.
OPS = st.lists(
    st.tuples(
        st.integers(-len(INVALID), 11), st.sampled_from(FORMS),
        st.lists(st.tuples(st.integers(0, 6), LINES), min_size=1, max_size=3),
    ),
    max_size=25,
)


def spelled(labels: dict, form: str):
    """The same labels as a caller might pass them."""
    items = list(labels.items())
    if form == "labelset":
        return LabelSet(labels)
    if form == "reversed":
        items.reverse()
    elif form == "shuffled":
        random.Random(len(items)).shuffle(items)
    return dict(items)


def replay(ops, streams, push, per_line_labelset: bool):
    """Feed ``ops`` to ``push(labels, entries)``; the errors it raised."""
    errors = []
    for i, (which, form, lines) in enumerate(ops):
        try:
            if which < 0:
                labels = INVALID[~which]
            else:
                labels = spelled(streams[which % len(streams)], form)
            if per_line_labelset:
                labels = LabelSet(labels)
            push(labels, [LogEntry(ts, line) for ts, line in lines])
        except ValidationError as err:
            errors.append((i, str(err)))
    return errors


class PerLineStore:
    """The write path as it was before streams had refs, kept as the
    reference: a ``LabelSet`` built and validated for every push; the
    watermark, the counters and the entry's size touched per entry."""

    def __init__(self, policy: ChunkPolicy) -> None:
        self.policy = policy
        self.chunks: dict[LabelSet, list[Chunk]] = {}
        self.last_ts: dict[LabelSet, int] = {}
        self.stats = StoreStats()

    def push_stream(self, labels, entries) -> None:
        labelset = LabelSet(labels)
        if not labelset:
            raise ValidationError("a log stream needs at least one label")
        chunks = self.chunks.setdefault(labelset, [])
        for entry in entries:
            last = self.last_ts.get(labelset)
            if last is not None and entry.timestamp_ns < last:
                self.stats.entries_rejected += 1
                continue
            if not chunks or not chunks[-1].space_for(entry):
                if SEPARATOR in entry.line:  # refused before any chunk is cut
                    raise ValidationError("log line contains reserved separator byte 0x1e")
                if chunks:
                    chunks[-1].seal()
                    self.stats.chunks_sealed += 1
                chunks.append(Chunk(self.policy))
                self.stats.chunks_created += 1
            chunks[-1].append(entry)
            self.last_ts[labelset] = entry.timestamp_ns
            self.stats.entries_ingested += 1
            self.stats.bytes_ingested += len(entry.line.encode())

    def state(self) -> list:
        return [
            (labels, [(c.sealed, c.stored_bytes(), c.entries()) for c in chunks])
            for labels, chunks in self.chunks.items()
        ]


def contents(store) -> list:
    return [
        (labels.items_tuple(), [(e.timestamp_ns, e.line) for e in entries])
        for labels, entries in store.select([], 0, 100)
    ]


def assert_refs_are_valid(refs: dict, streams: list) -> None:
    for ref in refs:
        if not isinstance(ref, LabelSet):
            LabelSet(ref)  # legal names, str values — or this raises
    # Streams x spellings, however many lines went through.
    assert len(refs) <= len(streams) * len(FORMS)


class TestStoreEndsWhereTheReferenceEnds:
    @settings(deadline=None)
    @given(streams=STREAMS, ops=OPS)
    def test_loki_store(self, streams, ops):
        # 8 bytes a chunk: they fill, seal and roll within a few lines.
        policy = ChunkPolicy(target_size_bytes=8)
        subject = LokiStore(policy)
        reference = PerLineStore(policy)
        errors = replay(ops, streams, subject.push_stream, per_line_labelset=False)
        assert errors == replay(ops, streams, reference.push_stream, per_line_labelset=True)
        assert subject.stats == reference.stats
        assert [
            (labels, [(c.sealed, c.stored_bytes(), c.entries()) for c in subject.stream_chunks(labels)])
            for labels in subject.stream_labels()
        ] == reference.state()
        assert_refs_are_valid(subject._refs, streams)

    @settings(deadline=None, max_examples=60)
    @given(streams=STREAMS, ops=OPS, planes=st.booleans())
    def test_warehouse(self, streams, ops, planes):
        def warehouse():
            clock = SimClock(0)
            if not planes:
                return OmniWarehouse(clock)
            return OmniWarehouse(
                clock,
                loki=RingLokiCluster(ingesters=3, replication_factor=3, tracer=off_tracer()),
                admission=AdmissionController(LimitsRegistry(), clock, tracer=off_tracer()),
            )

        def line_by_line(w):
            def push(labels, entries):
                for entry in entries:
                    w.ingest_log(labels, entry.timestamp_ns, entry.line)
            return push

        subject, reference = warehouse(), warehouse()
        errors = replay(ops, streams, line_by_line(subject), per_line_labelset=False)
        assert errors == replay(ops, streams, line_by_line(reference), per_line_labelset=True)
        assert subject.messages_ingested == reference.messages_ingested
        assert subject.loki.stats == reference.loki.stats
        assert contents(subject.loki) == contents(reference.loki)
        assert_refs_are_valid(subject._labelsets, streams)

    @pytest.mark.parametrize("labels", INVALID, ids=repr)
    def test_invalid_labels_are_refused_every_time(self, labels):
        store, warehouse = LokiStore(), OmniWarehouse(SimClock(0))
        for _ in range(3):
            with pytest.raises(ValidationError):
                store.push_stream(labels, [LogEntry(1, "x")])
            with pytest.raises(ValidationError):
                warehouse.ingest_log(labels, 1, "x")
        assert not store._refs and store.stream_count() == 0
        assert not warehouse.loki._refs and warehouse.messages_ingested == 0


def test_what_admission_turns_away_leaves_no_ref():
    """A flood of new streams past the tenant's limit must not grow the
    tables the limit exists to protect."""
    clock = SimClock(0)
    admission = AdmissionController(
        LimitsRegistry(TenantLimits(max_active_streams=1)), clock,
        tracer=off_tracer(),
    )
    warehouse = OmniWarehouse(clock, admission=admission)
    warehouse.ingest_log({"app": "a"}, 1, "x")
    for pid in range(50):
        with pytest.raises(StreamLimitError):
            warehouse.ingest_log({"app": "a", "pid": str(pid)}, 2, "x")
    warehouse.ingest_log({"app": "a"}, 3, "y")
    assert list(warehouse._labelsets) == [(("app", "a"),)]
    assert len(admission._tagged) == 1
    assert warehouse.loki.stream_count() == 1 and warehouse.messages_ingested == 2


# Set both ways, so the REPRO_* environment of a CI leg has no say.
PLANES_OFF = {plane.flag: False for plane in PLANES}
TENANCY_OVER_RING = dict(PLANES_OFF, enable_multi_tenancy=True, enable_ingest_ring=True)


def framework(**flags) -> MonitoringFramework:
    fw = MonitoringFramework(
        FrameworkConfig(cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=1), **flags)
    )
    fw.start()
    return fw


class TestEmptyLabelSet:
    """``{"labels":{}}`` made a label-less stream with the planes off and
    was refused with admission on."""

    @pytest.mark.parametrize("flags", [PLANES_OFF, TENANCY_OVER_RING], ids=["plain", "planes"])
    def test_refused_on_every_path(self, flags):
        fw = framework(**flags)
        streams = fw.warehouse.loki.stream_count()
        fw.broker.produce(TOPIC_SYSLOG, '{"labels":{},"ts":1,"line":"x"}')
        fw.syslog_consumer.pump()
        assert fw.syslog_consumer.records_failed == 1
        assert fw.warehouse.loki.stream_count() == streams

    def test_the_store_itself_refuses_it(self):
        with pytest.raises(ValidationError, match="at least one label"):
            LokiStore().push_stream(LabelSet(), [LogEntry(1, "x")])


class TestSteadyStateBudget:
    """Call counts, no timing: the guard that the rule stays kept."""

    LINES = 200

    @pytest.mark.parametrize(
        ("flags", "stores"),
        [(PLANES_OFF, 1), (TENANCY_OVER_RING, REPLICATION_FACTOR)],
        ids=["planes-off", "tenancy-over-ring"],
    )
    def test_a_line_of_a_known_stream(self, flags, stores):
        fw = framework(**flags)
        hosts = [str(x) for x in sorted(fw.cluster.nodes)[:4]]

        def publish(n: int, start_ns: int) -> None:
            for i in range(n):
                host = hosts[i % len(hosts)]
                fw.publish_syslog(
                    # A fresh dict per line, as a generator hands them over.
                    {"cluster": "perlmutter", "data_type": "syslog", "hostname": host,
                     "severity": ("info", "err")[i % 2]},
                    start_ns + i, f"kernel: line {i} of {host} é",
                )

        now = fw.clock.now_ns
        publish(16, now)  # first sight of each stream pays in full
        fw.syslog_consumer.pump()
        ingested = fw.warehouse.messages_ingested

        with (
            counted(LabelSet, "__init__") as labelsets,
            counted(LogEntry, "size_bytes") as sizes,
            counted(jsonutil.LogEnvelopeEncoder, "encode") as envelopes,
            mock.patch.object(jsonutil, "_ENCODER", mock.Mock(wraps=jsonutil._ENCODER)) as encoder,
            mock.patch.object(jsonutil, "_DECODER", mock.Mock(wraps=jsonutil._DECODER)) as decoder,
        ):
            publish(self.LINES, now + 16)
            assert fw.syslog_consumer.pump() == self.LINES

        assert fw.warehouse.messages_ingested - ingested == self.LINES
        assert labelsets.call_count == 0
        assert envelopes.call_count == self.LINES
        assert decoder.decode.call_count == self.LINES
        # One size per entry per store that holds it; no JSON is written
        # besides the envelope (a replica's WAL record is binary).
        assert sizes.call_count == self.LINES * stores
        assert encoder.encode.call_count == 0

    def test_first_sight_is_what_pays(self):
        """The other half of the contract: a new stream validates."""
        store = LokiStore()
        with counted(LabelSet, "__init__") as labelsets:
            for ts in range(5):
                store.push_stream({"app": "a"}, [LogEntry(ts, "x")])
                store.push_stream({"app": "b"}, [LogEntry(ts, "x")])
        assert labelsets.call_count == 2
