"""Tests for queryx bloom filters and the bloom block store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours
from repro.loki.model import LogEntry
from repro.objstore.objectstore import ObjectStore
from repro.queryx.bloom import (
    BloomFilter,
    BloomStore,
    NGRAM_LEN,
    line_ngrams,
)


class TestLineNgrams:
    def test_basic(self):
        assert line_ngrams("abcd") == {"abc", "bcd"}

    def test_shorter_than_n_is_empty(self):
        assert line_ngrams("ab") == set()

    def test_exact_length(self):
        assert line_ngrams("abc") == {"abc"}

    def test_repeats_dedup(self):
        assert line_ngrams("aaaa") == {"aaa"}


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        grams = line_ngrams("GPU memory error on nid001234")
        for g in grams:
            bf.add(g)
        assert all(bf.might_contain(g) for g in grams)

    def test_absent_items_mostly_rejected(self):
        bf = BloomFilter.for_capacity(1000, 0.01)
        for i in range(1000):
            bf.add(f"tok{i:04d}")
        false_pos = sum(
            1 for i in range(10_000) if bf.might_contain(f"abs{i:05d}")
        )
        # 1% target with slack: far below a degenerate always-true filter.
        assert false_pos / 10_000 < 0.05

    def test_fill_ratio_sane(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        assert bf.fill_ratio() == 0.0
        for i in range(100):
            bf.add(f"t{i}")
        # At design capacity a bloom filter sits near half full.
        assert 0.3 < bf.fill_ratio() < 0.7

    def test_roundtrip_serialization(self):
        bf = BloomFilter.for_capacity(50, 0.01)
        for i in range(50):
            bf.add(f"gram{i}")
        clone = BloomFilter.from_obj(bf.to_obj())
        assert clone.m_bits == bf.m_bits and clone.k == bf.k
        assert all(clone.might_contain(f"gram{i}") for i in range(50))
        assert clone.to_obj() == bf.to_obj()

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            BloomFilter.for_capacity(10, 1.5)
        with pytest.raises(ValidationError):
            BloomFilter(4, 1)
        with pytest.raises(ValidationError):
            BloomFilter(64, 0)

    @given(st.lists(st.text(min_size=NGRAM_LEN, max_size=8), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_membership_property(self, tokens):
        bf = BloomFilter.for_capacity(max(1, len(tokens)), 0.01)
        for t in tokens:
            bf.add(t)
        assert all(bf.might_contain(t) for t in tokens)


def _entries(*lines, start=0):
    return [LogEntry(start + i, line) for i, line in enumerate(lines)]


class TestBloomStore:
    @pytest.fixture
    def store(self):
        objstore = ObjectStore(SimClock(0))
        return objstore, BloomStore(objstore)

    def test_build_and_query_block(self, store):
        _, blooms = store
        labels = LabelSet({"app": "fm"})
        block = blooms.build_block(
            "fake", labels, 0,
            _entries("GPU memory error", "link flap detected"),
            {"chunk-a", "chunk-b"},
        )
        assert block.lines_indexed == 2
        assert block.might_match_needle("GPU memory")
        assert not block.might_match_needle("zzqxv")
        # Short needles cannot be judged: conservatively maybe.
        assert block.might_match_needle("ab")

    def test_blocks_persisted_and_rebuilt(self, store):
        objstore, blooms = store
        labels = LabelSet({"app": "fm"})
        blooms.build_block("fake", labels, 0, _entries("hello world"), {"c1"})
        assert objstore.object_count("loki", prefix="blooms/") == 0
        assert blooms.persist_dirty() == 1
        assert objstore.object_count("loki", prefix="blooms/") == 1
        # Cold start: a fresh store reloads the block from the bucket.
        fresh = BloomStore(objstore)
        fresh.rebuild()
        assert fresh.counters()["blocks"] == 1

    def test_needs_build_tracks_coverage(self, store):
        _, blooms = store
        labels = LabelSet({"app": "fm"})
        assert blooms.needs_build("fake", labels, 0, {"c1"})
        blooms.build_block("fake", labels, 0, _entries("line one"), {"c1"})
        assert not blooms.needs_build("fake", labels, 0, {"c1"})
        # A chunk shipped after the build invalidates coverage.
        assert blooms.needs_build("fake", labels, 0, {"c1", "c2"})

    def test_can_skip_requires_coverage(self, store):
        _, blooms = store

        class Ref:
            tenant = "fake"
            labels = LabelSet({"app": "fm"})
            period = 0
            key = "chunk-a"

        ref = Ref()
        # No block yet: never skip.
        assert not blooms.can_skip(ref, ("needle",))
        blooms.build_block(
            "fake", ref.labels, 0, _entries("GPU memory error"), {"chunk-a"}
        )
        assert blooms.can_skip(ref, ("zzqxv",))
        assert not blooms.can_skip(ref, ("GPU memory",))
        # A ref the block does not cover is never skipped.
        ref.key = "chunk-after-compaction"
        assert not blooms.can_skip(ref, ("zzqxv",))

    def test_object_key_layout(self):
        key = BloomStore.object_key("fake", 0xDEADBEEF, int(hours(24)))
        assert key.startswith("blooms/fake/")
        assert key.endswith(f"{0xDEADBEEF:016x}.json.z")
