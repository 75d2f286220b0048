"""``merge_replica_columns``: the max-multiplicity merge of one
stream's ``(entries, ts)`` copies, its all-replicas-agree short-circuit
and its time-disjoint path, and ``merge_stream_columns``, the one-pass
per-stream merge of several stores' answers.

Quorum reads, the tiered read path, the compactor and the repairer all
lean on this one function, and in the healthy RF-3 steady state every
replica hands it the same list.  The specification checked here is the
general one — per timestamp, every line appears as often as the replica
that saw it most — so the short-circuits are held to exactly what the
slow path would have answered, and every answer's column to its
entries' timestamps.
"""

from array import array
from collections import Counter
from itertools import chain

from hypothesis import given, strategies as st

from repro.common.labels import LabelSet
from repro.loki.model import LogEntry
from repro.ring.merge import (
    _end_to_end,
    _merge_by_timestamp,
    merge_replica_columns,
    merge_stream_columns,
)

LINES = ("a", "b", "c")

#: One stream's acknowledged history: time-ordered, duplicates allowed.
history = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(LINES)), max_size=16
).map(lambda pairs: [LogEntry(ts, line) for ts, line in sorted(pairs, key=lambda p: p[0])])


def max_multiplicity(replica_lists):
    """The specification: per ``(ts, line)`` the highest count any one
    replica holds."""
    want: Counter = Counter()
    for entries in replica_lists:
        for entry, n in Counter(entries).items():
            want[entry] = max(want[entry], n)
    return want


#: A history whose timestamps are all distinct: every cut is disjoint.
increasing = st.lists(st.sampled_from(LINES), max_size=16).map(
    lambda lines: [LogEntry(ts, line) for ts, line in enumerate(lines)]
)


def subsequence(entries, keep):
    return [e for e, kept in zip(entries, keep) if kept]


def with_column(entries):
    return entries, array("q", [e.timestamp_ns for e in entries])


def merge(lists):
    """``merge_replica_columns`` of ``lists`` with their columns: the
    merged entries, once their column is checked against them."""
    merged, ts = merge_replica_columns([with_column(entries) for entries in lists])
    assert isinstance(ts, array) and list(ts) == [e.timestamp_ns for e in merged]
    return merged


def merge_replica_entries(replica_lists):
    """The entry form of the merge as it was before only the column form
    was kept: the frozen reference ``TestColumns`` holds
    ``merge_replica_columns`` to."""
    if not replica_lists:
        return []
    first = replica_lists[0]
    if all(entries == first for entries in replica_lists[1:]):
        return list(first)
    spans = _end_to_end(replica_lists)
    if spans is None:
        return _merge_by_timestamp(replica_lists)
    return list(chain.from_iterable(replica_lists[i] for i in spans))


class TestAllReplicasAgree:
    @given(history, st.integers(1, 4))
    def test_identical_replicas_return_the_list_itself(self, entries, replicas):
        # Separate but equal lists of separate but equal entries, as
        # replicas that replayed a WAL or decoded their own chunk hold.
        copies = [[LogEntry(e.timestamp_ns, e.line) for e in entries] for _ in range(replicas)]
        merged = merge(copies)
        assert merged == entries and merged is copies[0]
        assert Counter(merged) == max_multiplicity(copies)

    def test_result_is_a_fresh_list(self):
        # Copies that disagree: the answer is no copy's list or column.
        entries = [LogEntry(1, "a"), LogEntry(2, "b")]
        parts = [with_column(entries[:1]), with_column(entries[1:])]
        merged, ts = merge_replica_columns(parts)
        assert merged == entries
        merged.clear()
        del ts[:]
        assert [len(part) for pair in parts for part in pair] == [1, 1, 1, 1]

    def test_no_replicas_and_empty_replicas(self):
        labels = LabelSet({"app": "fm"})
        assert merge_stream_columns([]) == []
        assert merge_stream_columns([(labels, *with_column([])) for _ in range(2)]) == []
        assert merge([[], []]) == []


class TestReplicasDisagree:
    """Anything short of full agreement takes the general path and still
    counts every acknowledged write exactly once."""

    @given(history, st.data())
    def test_max_multiplicity_over_lossy_replicas(self, entries, data):
        replicas = [
            subsequence(
                entries, data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
            )
            for _ in range(3)
        ]
        merged = merge(replicas)
        assert Counter(merged) == max_multiplicity(replicas)
        assert [e.timestamp_ns for e in merged] == sorted(e.timestamp_ns for e in merged)

    @given(history, st.integers(0, 16))
    def test_lagging_replica_does_not_shorten_the_answer(self, entries, behind):
        lagging = entries[: max(0, len(entries) - behind)]
        assert merge([lagging, entries, entries]) == merge([entries])
        assert Counter(merge([entries, lagging])) == Counter(entries)

    def test_differing_lengths_with_an_equal_prefix(self):
        full = [LogEntry(1, "a"), LogEntry(2, "b"), LogEntry(3, "c")]
        assert merge([full[:2], full, full[:1]]) == full

    def test_duplicate_lines_keep_their_multiplicity(self):
        twice = [LogEntry(5, "a"), LogEntry(5, "a")]
        once = [LogEntry(5, "a")]
        # Two writes of the same line are two writes, on whichever
        # replica saw both; one replica seeing both is not four.
        assert merge([once, twice, once]) == twice
        assert merge([twice, twice, twice]) == twice

    def test_same_length_different_content(self):
        left = [LogEntry(1, "a"), LogEntry(2, "b")]
        right = [LogEntry(1, "a"), LogEntry(2, "c")]
        assert merge([left, right]) == [
            LogEntry(1, "a"), LogEntry(2, "b"), LogEntry(2, "c"),
        ]


def split(entries, data):
    """``entries`` cut at random points into consecutive pieces (some
    empty), handed over in a random order."""
    cuts = sorted(data.draw(st.sets(st.integers(0, len(entries)))))
    bounds = zip([0, *cuts], [*cuts, len(entries)])
    return data.draw(st.permutations([entries[lo:hi] for lo, hi in bounds]))


class TestTimeDisjointLists:
    """A stream's consecutive chunks, and its cold part beside its hot
    part, are laid end to end — which is what the general path answers."""

    @given(history, st.data())
    def test_any_split_answers_as_the_general_path(self, entries, data):
        # Cuts between equal timestamps leave tied boundaries, and those
        # lists take the general path: a line on both sides is one write.
        pieces = split(entries, data)
        merged = merge(pieces)
        assert merged == _merge_by_timestamp(pieces)
        assert Counter(merged) == max_multiplicity(pieces)

    @given(increasing, st.data())
    def test_a_disjoint_split_reads_back_the_history(self, entries, data):
        pieces = split(entries, data)
        merged = merge(pieces)
        assert merged == entries == _merge_by_timestamp(pieces)

    def test_a_tied_boundary_keeps_one_copy_of_a_shared_write(self):
        left = [LogEntry(1, "a"), LogEntry(2, "b")]
        right = [LogEntry(2, "b"), LogEntry(3, "c")]
        want = [LogEntry(1, "a"), LogEntry(2, "b"), LogEntry(3, "c")]
        assert merge([right, left]) == want

    def test_overlapping_lists_still_dedup(self):
        full = [LogEntry(1, "a"), LogEntry(2, "b"), LogEntry(3, "c")]
        # A lagging replica and one that missed the middle write overlap
        # the full one in time: every write reads once.
        assert merge([full[:2], [full[0], full[2]], full]) == full
        assert merge([[full[0], full[2]], [full[1]]]) == full


#: A history whose ``(ts, line)`` pairs are distinct, in arrival order:
#: two parts of it share no write, whatever the cut.
distinct_writes = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(LINES)), max_size=16, unique=True
).map(lambda pairs: [LogEntry(ts, line) for ts, line in sorted(pairs, key=lambda p: p[0])])


class TestInCopyOrder:
    """The tiers' rule (``in_copy_order``): a stream's older and newer
    parts — cold and hot — cut anywhere, a tied timestamp included,
    read back in arrival order: per timestamp the older part's group,
    then the newer part's."""

    @given(distinct_writes, st.data())
    def test_a_cut_history_reads_back_in_arrival_order(self, entries, data):
        cut = data.draw(st.integers(0, len(entries)))
        parts = [with_column(entries[:cut]), with_column(entries[cut:])]
        merged, ts = merge_replica_columns(parts, True)
        assert merged == entries
        assert list(ts) == [e.timestamp_ns for e in entries]

    @given(st.lists(history, min_size=1, max_size=3))
    def test_every_write_reads_once(self, lists):
        merged, ts = merge_replica_columns([with_column(e) for e in lists], True)
        assert Counter(merged) == max_multiplicity(lists)
        assert list(ts) == [e.timestamp_ns for e in merged]

    def test_a_longer_newer_group_still_follows_the_older_one(self):
        older = [LogEntry(1, "a"), LogEntry(2, "b")]
        newer = [LogEntry(2, "c"), LogEntry(2, "e"), LogEntry(3, "d")]
        parts = [with_column(older), with_column(newer)]
        assert merge_replica_columns(parts, True)[0] == older + newer
        # The replicas' rule puts the fullest group first.
        assert [e.line for e in merge_replica_columns(parts)[0]] == list("acebd")


class TestColumns:
    """``merge_replica_columns`` answers the frozen entry form
    (``merge_replica_entries`` above) and the answer's timestamps, on
    each of the three paths: equal replicas pass the first column on,
    disjoint ones lay theirs end to end, the general path rebuilds one."""

    @staticmethod
    def assert_merged_columns(lists):
        assert merge(lists) == merge_replica_entries(lists)

    @given(history, st.integers(1, 4))
    def test_equal_replicas(self, entries, replicas):
        self.assert_merged_columns([list(entries) for _ in range(replicas)])

    def test_equal_replicas_answer_the_first_pair_itself(self):
        entries = [LogEntry(1, "a"), LogEntry(2, "b")]
        parts = [with_column(list(entries)) for _ in range(3)]
        merged, ts = merge_replica_columns(parts)
        assert merged is parts[0][0] and ts is parts[0][1]

    @given(history, st.data())
    def test_any_split(self, entries, data):
        self.assert_merged_columns(split(entries, data))

    @given(history, st.data())
    def test_lossy_replicas(self, entries, data):
        self.assert_merged_columns([
            subsequence(
                entries, data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
            )
            for _ in range(3)
        ])


def sorted_merge_stream_columns(results):
    """``merge_stream_columns`` as it was before the one-pass merge:
    group every non-empty part by stream, merge each group, sort the
    streams by label."""
    per_stream = {}
    for labels, entries, ts in results:
        if entries:
            per_stream.setdefault(labels, []).append((entries, ts))
    out = [(labels, *merge_replica_columns(parts)) for labels, parts in per_stream.items()]
    out.sort(key=lambda triple: triple[0].items_tuple())
    return out


STREAMS = [LabelSet({"app": app}) for app in ("fm", "api", "db")]


@st.composite
def stream_answers(draw):
    """Several stores' ``select_columns`` triples over a few streams,
    interleaved: per stream, replicas that agree (sharing entries, or
    holding equal copies), lag or lose writes, or hold the stream's
    history cut into time-disjoint or tied pieces; empty answers too."""
    triples = []
    for labels in draw(st.lists(st.sampled_from(STREAMS), max_size=3, unique=True)):
        entries = draw(history)
        shape = draw(st.sampled_from(["shared", "copies", "lossy", "split"]))
        if shape == "shared":
            lists = [list(entries) for _ in range(draw(st.integers(1, 3)))]
        elif shape == "copies":
            lists = [
                [LogEntry(e.timestamp_ns, e.line) for e in entries]
                for _ in range(draw(st.integers(1, 3)))
            ]
        elif shape == "lossy":
            lists = [
                subsequence(entries, draw(st.lists(
                    st.booleans(), min_size=len(entries), max_size=len(entries)
                )))
                for _ in range(3)
            ]
            # A lossy replica may also be duplicated, ahead of or
            # behind the one it copies.
            lists += [list(lists[0])] * draw(st.integers(0, 1))
        else:
            lists = split(entries, draw(st.data()))
        triples += [(labels, *with_column(part)) for part in lists]
    return draw(st.permutations(triples))


def by_stream(answer):
    return {labels: (entries, list(ts)) for labels, entries, ts in answer}


class TestStreamColumns:
    """``merge_stream_columns`` answers what the group-merge-sort loop it
    replaced answered, stream by stream, in first-seen stream order."""

    @given(stream_answers())
    def test_is_the_sorted_merge_by_stream(self, triples):
        merged = merge_stream_columns(triples)
        assert by_stream(merged) == by_stream(sorted_merge_stream_columns(triples))
        first_seen = list(dict.fromkeys(labels for labels, entries, _ts in triples if entries))
        assert [labels for labels, _entries, _ts in merged] == first_seen
        for _labels, entries, ts in merged:
            assert isinstance(ts, array) and list(ts) == [e.timestamp_ns for e in entries]

    def test_agreeing_replicas_answer_the_first_pair_itself(self):
        labels = STREAMS[0]
        entries = [LogEntry(1, "a"), LogEntry(2, "b")]
        parts = [with_column(list(entries)) for _ in range(3)]
        [(got_labels, got, ts)] = merge_stream_columns((labels, *part) for part in parts)
        assert got_labels is labels and got is parts[0][0] and ts is parts[0][1]

    def test_a_tied_boundary_in_either_order(self):
        labels = STREAMS[0]
        older = [LogEntry(1, "a"), LogEntry(2, "b")]
        newer = [LogEntry(2, "c"), LogEntry(3, "d")]
        for parts in ([older, newer], [newer, older]):
            triples = [(labels, *with_column(list(part))) for part in parts]
            want = sorted_merge_stream_columns(triples)
            assert by_stream(merge_stream_columns(triples)) == by_stream(want)
        # First seen, first at the tie: the order a tiered read relies on.
        [(_labels, got, ts)] = merge_stream_columns(
            [(labels, *with_column(list(part))) for part in (older, newer)]
        )
        assert [e.line for e in got] == ["a", "b", "c", "d"] and list(ts) == [1, 2, 2, 3]
