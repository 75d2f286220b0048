"""Derived blocks: per-stream, per-period structures beside the chunks.

The cold tier keeps more than chunks.  Bloom blocks
(:class:`repro.queryx.bloom.BloomStore`) and pattern blocks
(:class:`repro.patterns.store.PatternStore`) both describe one (tenant,
stream, index period), and :class:`BlockStore` owns everything about
such a block that is not specific to its kind:

* the table, keyed ``(tenant, fingerprint, period)``;
* the object key ``{prefix}{tenant}/{period:012d}/{fp:016x}.json.z`` in
  the chunk bucket;
* the codec — the block's ``to_obj()`` as compact JSON, zlib level 6;
* a dirty set that :meth:`BlockStore.persist_dirty` flushes, so a write
  the bucket refuses stays dirty and is retried on the next flush;
* :meth:`BlockStore.rebuild`, the cold start from the bucket alone;
* the staleness rule the compactor asks: a group needs a build when it
  has no block, or its block pins a ``chunk_keys`` set that differs from
  the group's.  A block with ``chunk_keys`` ``None`` saw its lines before
  they were chunked (a live pattern block) and is authoritative.

Periods are the shipper index's (:data:`~repro.objstore.index.INDEX_PERIOD_NS`)
and blocks share its bucket, so a block always describes exactly the
chunk refs of one index group.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, ClassVar, Iterable, Protocol

from repro.common.jsonutil import dumps_compact, loads
from repro.objstore.index import CHUNK_BUCKET, stream_fingerprint
from repro.objstore.objectstore import ObjectStoreUnavailable

if TYPE_CHECKING:
    from repro.common.labels import LabelSet
    from repro.loki.model import LogEntry
    from repro.objstore.objectstore import ObjectStore


class DerivedBlock(Protocol):
    tenant: str
    fingerprint: int
    period: int
    chunk_keys: frozenset[str] | None

    def to_obj(self) -> dict: ...


class BlockStore:
    """One kind of derived block: its table, its objects, its rebuild.

    A subclass names its ``prefix`` and ``block_type`` (whose
    ``from_obj`` decodes a block) and says how to build a block from a
    group's merged entries (:meth:`make_block`); the read side is its own.
    """

    prefix: ClassVar[str]
    block_type: ClassVar[type]

    def __init__(self, store: "ObjectStore | None") -> None:
        self._store = store
        self._blocks: dict[tuple[str, int, int], DerivedBlock] = {}
        self._dirty: set[tuple[str, int, int]] = set()
        self.blocks_built = 0
        self.blocks_persisted = 0
        self.persist_failures = 0

    @classmethod
    def object_key(cls, tenant: str, fingerprint: int, period: int) -> str:
        return f"{cls.prefix}{tenant}/{period:012d}/{fingerprint:016x}.json.z"

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def get(self, tenant: str, fingerprint: int, period: int) -> DerivedBlock | None:
        return self._blocks.get((tenant, fingerprint, period))

    def _put(self, block: DerivedBlock) -> None:
        key = (block.tenant, block.fingerprint, block.period)
        self._blocks[key] = block
        self._dirty.add(key)

    # ------------------------------------------------------------------
    # Building (compactor side)
    # ------------------------------------------------------------------
    def needs_build(
        self, tenant: str, labels: "LabelSet", period: int, chunk_keys: Iterable[str]
    ) -> bool:
        """Whether the group has no block, or one whose pinned chunk
        coverage is not ``chunk_keys``."""
        block = self.get(tenant, stream_fingerprint(labels), period)
        if block is None:
            return True
        return block.chunk_keys is not None and block.chunk_keys != frozenset(chunk_keys)

    def build_block(
        self,
        tenant: str,
        labels: "LabelSet",
        period: int,
        entries: "list[LogEntry]",
        chunk_keys: Iterable[str],
    ) -> DerivedBlock:
        """(Re)build one group's block from its merged entries; it is
        written by the next :meth:`persist_dirty`."""
        block = self.make_block(tenant, labels, period, entries, frozenset(chunk_keys))
        self._put(block)
        self.blocks_built += 1
        return block

    def make_block(
        self,
        tenant: str,
        labels: "LabelSet",
        period: int,
        entries: "list[LogEntry]",
        chunk_keys: frozenset[str],
    ) -> DerivedBlock:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def persist_dirty(self) -> int:
        """Write every dirty block; returns blocks written.  A write the
        bucket refuses is counted and stays dirty for the next flush.
        With no object store the blocks are memory-resident."""
        if self._store is None:
            self._dirty.clear()
            return 0
        written = 0
        for key in sorted(self._dirty):
            payload = zlib.compress(dumps_compact(self._blocks[key].to_obj()).encode(), level=6)
            try:
                self._store.put(CHUNK_BUCKET, self.object_key(*key), payload)
            except ObjectStoreUnavailable:
                self.persist_failures += 1
                continue
            self._dirty.discard(key)
            self.blocks_persisted += 1
            written += 1
        return written

    def rebuild(self) -> int:
        """Cold start: reload every persisted block from the bucket."""
        self._blocks.clear()
        self._dirty.clear()
        if self._store is None:
            return 0
        for key in self._store.list_keys(CHUNK_BUCKET, self.prefix):
            obj = loads(zlib.decompress(self._store.get(CHUNK_BUCKET, key)).decode())
            block = self.block_type.from_obj(obj)
            self._blocks[(block.tenant, block.fingerprint, block.period)] = block
        return len(self._blocks)
