"""Shard-balance regression for label-hash placement.

Raw FNV-1a is well distributed on random corpora but *not* modulo a
small power of two on structured ones: label values that differ only in
characters 8 apart in the alphabet (``'0'`` vs ``'8'`` — one bit, bit 3)
leave the hash's low three bits identical, so mod-8 sharding sends every
such stream to one shard.  The SplitMix64 finalizer mixes high bits into
low and restores balance; this test pins both facts so the finalizer
can't be "simplified away" without tripping it, and that the ingest ring
(whose tokens go through the same finalizer) spreads the same corpus over
every ingester at replication factor 1.
"""

from collections import Counter

from repro.common.hashing import fnv1a_64, mix64
from repro.common.labels import LabelSet
from repro.loki.model import LogEntry, PushRequest, PushStream
from tests.test_loki_index_store import entry_counts, ring

SHARDS = 8


def stride8_labelsets():
    """64 streams whose label values differ only in '0'-vs-'8' choices —
    the adversarial corpus that collapses raw FNV-1a mod 8."""
    out = []
    for pattern in range(64):
        value = "ch" + "".join(
            "08"[(pattern >> bit) & 1] for bit in range(6)
        )
        out.append(LabelSet({"sensor": value}))
    return out


def raw_fnv_of(labels: LabelSet) -> int:
    payload = "".join(
        f"{name}={value};" for name, value in labels.items_tuple()
    )
    return fnv1a_64(payload.encode())


class TestStride8Corpus:
    def test_raw_fnv_collapses_to_one_shard(self):
        """The failure mode being guarded against actually exists."""
        raw = Counter(raw_fnv_of(ls) % SHARDS for ls in stride8_labelsets())
        assert len(raw) == 1  # all 64 streams → one shard

    def test_finalized_hash_spreads_the_same_corpus(self):
        mixed = Counter(
            mix64(raw_fnv_of(ls)) % SHARDS for ls in stride8_labelsets()
        )
        assert len(mixed) == SHARDS
        assert max(mixed.values()) <= 3 * (64 // SHARDS)


class TestClusterBalance:
    def push_corpus(self, cluster):
        streams = tuple(
            PushStream(labels, (LogEntry(i, f"line {i}"),))
            for i, labels in enumerate(stride8_labelsets())
        )
        cluster.push(PushRequest(streams=streams))

    def test_adversarial_corpus_is_balanced(self):
        cluster = ring(SHARDS)
        self.push_corpus(cluster)
        counts = entry_counts(cluster)
        assert all(c > 0 for c in counts)
        # Modulo raw FNV this was [0,...,64,...,0]: speedup 1.0.
        assert sum(counts) / max(counts) > SHARDS / 2

    def test_realistic_corpus_stays_balanced(self):
        """The finalizer must not *cost* balance on ordinary labels."""
        cluster = ring(SHARDS)
        streams = tuple(
            PushStream(
                LabelSet({"hostname": f"nid{i:05d}", "app": "slurmd"}),
                (LogEntry(i, "ok"),),
            )
            for i in range(256)
        )
        cluster.push(PushRequest(streams=streams))
        counts = entry_counts(cluster)
        assert all(c > 0 for c in counts)
        assert max(counts) <= 3 * (256 // SHARDS)

    def test_sharding_is_deterministic(self):
        a, b = ring(SHARDS), ring(SHARDS)
        self.push_corpus(a)
        self.push_corpus(b)
        assert entry_counts(a) == entry_counts(b)
