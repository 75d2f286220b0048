"""Bloom filter blocks: n-gram membership tests that let the read path
skip chunks which *cannot* match a line filter.

Loki 3.x builds bloom filters over the n-grams of chunk contents so a
needle-in-a-haystack query (``{job="syslog"} |= "GPU memory error"``)
fetches only the chunks that might contain the needle instead of every
chunk in the window.  This module reproduces that idea for the cold
tier: the compactor builds one :class:`BloomBlock` per (tenant, stream,
index period) from the merged entries it already holds in hand, persists
it to the object store next to the chunks, and the store-gateway
consults the block before paying a GET.

Soundness: a Bloom filter has false positives but never false
negatives, so "some n-gram of the needle is absent" proves no line in
the covered chunks contains the needle — skipping those chunks cannot
change a query answer.  A block also records exactly which chunk keys
it was built from; the gateway only skips a chunk the block *covers*,
so chunks shipped after the last compaction are always fetched.

False-positive math (classic): for ``n`` inserted tokens and a target
rate ``p``, the optimal bit count is ``m = -n·ln p / (ln 2)²`` and the
optimal hash count ``k = (m/n)·ln 2``; the expected rate is then
``(1 - e^(-kn/m))^k ≈ p``.  A false positive merely costs one avoidable
GET — correctness never depends on the rate.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ValidationError
from repro.common.hashing import fnv1a_64, mix64
from repro.objstore.blocks import BlockStore
from repro.objstore.index import ChunkRef, stream_fingerprint

if TYPE_CHECKING:
    from repro.common.labels import LabelSet
    from repro.loki.model import LogEntry
    from repro.objstore.objectstore import ObjectStore

#: Token length for line content.  Three is Loki's default: long enough
#: to be selective, short enough that any needle of >= 3 characters can
#: be decomposed into covered tokens.
NGRAM_LEN = 3

#: Target false-positive rate of every block's filter.
FP_RATE = 0.01


def line_ngrams(text: str, n: int = NGRAM_LEN) -> set[str]:
    """Every length-``n`` substring of ``text`` (empty if shorter)."""
    if len(text) < n:
        return set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def hash_pair(token: str) -> tuple[int, int]:
    """A token's ``(h1, h2)``: all a filter of any geometry needs of it."""
    h1 = fnv1a_64(token.encode())
    return h1, mix64(h1) | 1  # odd: cycles the whole bit space


@lru_cache(maxsize=1 << 10)
def needle_probes(needle: str) -> tuple[tuple[int, int], ...]:
    """The hash pair of every n-gram of ``needle`` — kept per needle, so a
    query hashes its needles once, not once per chunk it considers."""
    return tuple(hash_pair(gram) for gram in line_ngrams(needle))


class BloomFilter:
    """A classic bit-array Bloom filter over string tokens.

    Double hashing (Kirsch-Mitzenmacher): the i-th probe is
    ``h1 + i*h2 mod m`` with ``h1`` = FNV-1a and ``h2`` = its SplitMix64
    finalization forced odd, which is as good as k independent hashes.
    """

    __slots__ = ("m_bits", "k", "_bits", "inserted")

    def __init__(self, m_bits: int, k: int) -> None:
        if m_bits < 8:
            raise ValidationError("bloom filter needs at least 8 bits")
        if k < 1:
            raise ValidationError("bloom filter needs at least one hash")
        self.m_bits = m_bits
        self.k = k
        self._bits = bytearray((m_bits + 7) // 8)
        self.inserted = 0

    @classmethod
    def for_capacity(cls, n: int, fp_rate: float = FP_RATE) -> "BloomFilter":
        """Size a filter for ``n`` tokens at a target false-positive rate."""
        if n < 1:
            n = 1
        if not 0.0 < fp_rate < 1.0:
            raise ValidationError("fp_rate must be in (0, 1)")
        m = max(8, math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2)))
        k = max(1, round(m / n * math.log(2)))
        return cls(m, k)

    def add(self, token: str) -> None:
        h1, h2 = hash_pair(token)
        for i in range(self.k):
            bit = (h1 + i * h2) % self.m_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.inserted += 1

    def might_contain(self, token: str) -> bool:
        return self.has_all((hash_pair(token),))

    def has_all(self, pairs: Iterable[tuple[int, int]]) -> bool:
        """Whether every token of the given hash pairs might be present."""
        bits, m_bits, probes = self._bits, self.m_bits, range(self.k)
        for h1, h2 in pairs:
            for i in probes:
                bit = (h1 + i * h2) % m_bits
                if not bits[bit >> 3] & (1 << (bit & 7)):
                    return False
        return True

    def fill_ratio(self) -> float:
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.m_bits

    # ------------------------------------------------------------------
    # Serialization (bit array + geometry)
    # ------------------------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "m": self.m_bits,
            "k": self.k,
            "n": self.inserted,
            "bits": zlib.compress(bytes(self._bits), level=6).hex(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "BloomFilter":
        filt = cls(int(obj["m"]), int(obj["k"]))
        bits = zlib.decompress(bytes.fromhex(obj["bits"]))
        if len(bits) != len(filt._bits):
            raise ValidationError("bloom bit array does not match geometry")
        filt._bits = bytearray(bits)
        filt.inserted = int(obj["n"])
        return filt


@dataclass
class BloomBlock:
    """One (tenant, stream, period)'s n-gram bloom plus its coverage.

    ``chunk_keys`` pins exactly which chunk objects the filter was built
    from; a ref outside that set is never skipped on this block's word.
    """

    tenant: str
    fingerprint: int
    period: int
    filter: BloomFilter
    chunk_keys: frozenset[str] = field(default_factory=frozenset)
    lines_indexed: int = 0

    def covers(self, ref: ChunkRef) -> bool:
        return ref.key in self.chunk_keys

    def might_match_needle(self, needle: str) -> bool:
        """Whether some covered line *might* contain ``needle``.

        Every n-gram of the needle must be present; a single absent gram
        is proof of absence.  Needles shorter than the gram length are
        unverifiable and conservatively match.
        """
        return self.filter.has_all(needle_probes(needle))

    def to_obj(self) -> dict:
        return {
            "t": self.tenant,
            "f": self.fingerprint,
            "p": self.period,
            "keys": sorted(self.chunk_keys),
            "lines": self.lines_indexed,
            "filter": self.filter.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "BloomBlock":
        return cls(
            tenant=obj["t"],
            fingerprint=int(obj["f"]),
            period=int(obj["p"]),
            filter=BloomFilter.from_obj(obj["filter"]),
            chunk_keys=frozenset(obj["keys"]),
            lines_indexed=int(obj["lines"]),
        )


class BloomStore(BlockStore):
    """Bloom blocks beside the chunks (:class:`~repro.objstore.blocks.BlockStore`).

    The compactor is the only writer (it already holds each stream's
    merged entries when it runs); the store-gateway is the reader.  Like
    the shipper index, the in-memory table answers queries uncharged and
    :meth:`rebuild` restores it from a cold bucket.
    """

    prefix = "blooms/"
    block_type = BloomBlock

    def __init__(self, store: "ObjectStore") -> None:
        super().__init__(store)
        self.needle_checks = 0
        self.needle_rejections = 0

    def make_block(
        self,
        tenant: str,
        labels: "LabelSet",
        period: int,
        entries: "list[LogEntry]",
        chunk_keys: frozenset[str],
    ) -> BloomBlock:
        grams: set[str] = set()
        for entry in entries:
            grams |= line_ngrams(entry.line)
        filt = BloomFilter.for_capacity(len(grams), FP_RATE)
        for gram in sorted(grams):  # sorted: deterministic insertion order
            filt.add(gram)
        return BloomBlock(
            tenant=tenant,
            fingerprint=stream_fingerprint(labels),
            period=period,
            filter=filt,
            chunk_keys=chunk_keys,
            lines_indexed=len(entries),
        )

    # ------------------------------------------------------------------
    # Gating (gateway side)
    # ------------------------------------------------------------------
    def can_skip(self, ref: ChunkRef, needles: Iterable[str]) -> bool:
        """True iff some needle provably cannot appear in ``ref``'s lines.

        Conservative on every doubt: no block, a block that does not
        cover the ref, or a needle too short to decompose all fetch.
        """
        block = self.get(ref.tenant, stream_fingerprint(ref.labels), ref.period)
        if block is None or not block.covers(ref):
            return False
        for needle in needles:
            probes = needle_probes(needle)
            if not probes:
                continue
            self.needle_checks += 1
            if not block.filter.has_all(probes):
                self.needle_rejections += 1
                return True
        return False

    def counters(self) -> dict[str, int]:
        return {
            "blocks": len(self._blocks),
            "blocks_built": self.blocks_built,
            "blocks_persisted": self.blocks_persisted,
            "needle_checks": self.needle_checks,
            "needle_rejections": self.needle_rejections,
        }
