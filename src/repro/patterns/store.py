"""Period-partitioned pattern blocks persisted beside the chunks.

One :class:`_PatternBlock` per (tenant, stream, index period), kept by
:class:`~repro.objstore.blocks.BlockStore` under
``patterns/{tenant}/{period:012d}/{fp:016x}.json.z`` like the bloom
blocks.  Blocks come from two producers:

* the **live** path — the pattern ingester calls :meth:`PatternStore.observe`
  per mined line, and the framework flushes dirty blocks on the shipper
  cadence; a live block pins no chunk keys, so it is authoritative for
  its period and never rebuilt;
* the **compactor** — for periods with no live block (a querier that
  restarted cold, or blocks lost with the process) it re-mines the
  merged chunk entries it already holds, pinning the chunk keys it mined,
  so ``detected_patterns`` can be answered from object storage alone.

:func:`merge_patterns` is the one merge of ``detected_patterns`` rows,
across the blocks of one query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet, Matcher, matches_all
from repro.objstore.blocks import BlockStore
from repro.objstore.index import INDEX_PERIOD_NS, stream_fingerprint
from repro.patterns.miner import DrainMiner

if TYPE_CHECKING:
    from repro.loki.model import LogEntry
    from repro.objstore.objectstore import ObjectStore
    from repro.tempo.tracer import Tracer


@dataclass
class PatternRecord:
    """One template's aggregates within a single block."""

    pattern_id: str
    template: str
    count: int
    first_ts_ns: int
    last_ts_ns: int
    exemplar: str

    def to_obj(self) -> dict:
        return {
            "id": self.pattern_id,
            "tpl": self.template,
            "n": self.count,
            "first": self.first_ts_ns,
            "last": self.last_ts_ns,
            "ex": self.exemplar,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PatternRecord":
        return cls(
            pattern_id=obj["id"],
            template=obj["tpl"],
            count=int(obj["n"]),
            first_ts_ns=int(obj["first"]),
            last_ts_ns=int(obj["last"]),
            exemplar=obj["ex"],
        )


@dataclass(frozen=True)
class DetectedPattern:
    """One row of a ``detected_patterns`` answer (merged across blocks).

    ``stream_ids`` are the ``(tenant, fingerprint)`` of the streams the
    pattern was seen on — not rendered, but what lets rows from disjoint
    windows merge into a count of *distinct* streams.
    """

    pattern_id: str
    template: str
    count: int
    first_ts_ns: int
    last_ts_ns: int
    exemplar: str
    stream_ids: frozenset[tuple[str, int]] = field(repr=False)

    @property
    def streams(self) -> int:
        return len(self.stream_ids)


def merge_patterns(rows: Iterable[DetectedPattern]) -> list[DetectedPattern]:
    """One row per pattern id, busiest first: counts summed, time bounds
    widened, the first row's template, the earliest row's exemplar and
    the union of the streams.  Rows arrive in period order."""
    merged: dict[str, DetectedPattern] = {}
    for row in rows:
        have = merged.get(row.pattern_id)
        if have is None:
            merged[row.pattern_id] = row
            continue
        earliest = row if row.first_ts_ns < have.first_ts_ns else have
        merged[row.pattern_id] = DetectedPattern(
            pattern_id=have.pattern_id,
            template=have.template,
            count=have.count + row.count,
            first_ts_ns=earliest.first_ts_ns,
            last_ts_ns=max(have.last_ts_ns, row.last_ts_ns),
            exemplar=earliest.exemplar,
            stream_ids=have.stream_ids | row.stream_ids,
        )
    return sorted(merged.values(), key=lambda r: (-r.count, r.pattern_id))


@dataclass
class _PatternBlock:
    tenant: str
    fingerprint: int
    labels: LabelSet
    period: int
    origin: str  # "live" | "compacted"
    chunk_keys: frozenset[str] | None = None
    records: dict[str, PatternRecord] = field(default_factory=dict)

    def to_obj(self) -> dict:
        records = [
            self.records[pid].to_obj() for pid in sorted(self.records)
        ]
        return {
            "tenant": self.tenant,
            "fp": self.fingerprint,
            "labels": self.labels.to_dict(),
            "period": self.period,
            "origin": self.origin,
            "keys": sorted(self.chunk_keys) if self.chunk_keys is not None else None,
            "records": records,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "_PatternBlock":
        keys = obj.get("keys")
        block = cls(
            tenant=obj["tenant"],
            fingerprint=int(obj["fp"]),
            labels=LabelSet(obj["labels"]),
            period=int(obj["period"]),
            origin=obj["origin"],
            chunk_keys=frozenset(keys) if keys is not None else None,
        )
        for rec_obj in obj["records"]:
            rec = PatternRecord.from_obj(rec_obj)
            block.records[rec.pattern_id] = rec
        return block


class PatternStore(BlockStore):
    """Pattern blocks: live mining sink, the compactor's re-mined blocks
    and the ``detected_patterns`` query surface.  Without an object
    store the blocks are memory-resident."""

    prefix = "patterns/"
    block_type = _PatternBlock

    def __init__(
        self,
        store: "ObjectStore | None" = None,
        *,
        tracer: "Tracer",
    ) -> None:
        super().__init__(store)
        self._tracer = tracer
        self.lines_recorded = 0
        self.queries_served = 0

    # ------------------------------------------------------------------
    # Live path
    # ------------------------------------------------------------------

    def observe(
        self,
        tenant: str,
        labels: LabelSet,
        pattern_id: str,
        template: str,
        timestamp_ns: int,
        line: str,
    ) -> None:
        """Record one mined line into the live block for its period."""
        period = timestamp_ns // INDEX_PERIOD_NS
        fp = labels.fingerprint()
        key = (tenant, fp, period)
        block = self._blocks.get(key)
        if block is None or block.origin != "live":
            # Live data supersedes anything the compactor reconstructed.
            block = _PatternBlock(
                tenant=tenant,
                fingerprint=fp,
                labels=labels,
                period=period,
                origin="live",
            )
            self._blocks[key] = block
        record = block.records.get(pattern_id)
        if record is None:
            record = PatternRecord(
                pattern_id=pattern_id,
                template=template,
                count=0,
                first_ts_ns=timestamp_ns,
                last_ts_ns=timestamp_ns,
                exemplar=line,
            )
            block.records[pattern_id] = record
        record.count += 1
        record.template = template  # templates only widen over time
        if timestamp_ns < record.first_ts_ns:
            record.first_ts_ns = timestamp_ns
        if timestamp_ns > record.last_ts_ns:
            record.last_ts_ns = timestamp_ns
        self._dirty.add(key)
        self.lines_recorded += 1

    # ------------------------------------------------------------------
    # Compactor path
    # ------------------------------------------------------------------

    def make_block(
        self,
        tenant: str,
        labels: LabelSet,
        period: int,
        entries: "Sequence[LogEntry]",
        chunk_keys: frozenset[str],
    ) -> _PatternBlock:
        """Re-mine ``entries`` (the compactor's merged chunk contents)."""
        miner = DrainMiner()
        for entry in entries:
            miner.add_line(entry.line, entry.timestamp_ns)
        block = _PatternBlock(
            tenant=tenant,
            fingerprint=stream_fingerprint(labels),
            labels=labels,
            period=period,
            origin="compacted",
            chunk_keys=chunk_keys,
        )
        for cluster in miner.clusters():
            block.records[cluster.pattern_id] = PatternRecord(
                pattern_id=cluster.pattern_id,
                template=cluster.template,
                count=cluster.count,
                first_ts_ns=cluster.first_seen_ns,
                last_ts_ns=cluster.last_seen_ns,
                exemplar=cluster.exemplar,
            )
        return block

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def query(
        self,
        matchers: Sequence[Matcher],
        start_ns: int,
        end_ns: int,
        tenant: str | None = None,
    ) -> list[DetectedPattern]:
        """Merged templates for streams matching ``matchers`` whose
        activity overlaps ``[start_ns, end_ns)``, busiest first."""
        if end_ns <= start_ns:
            raise ValidationError("query range must satisfy start < end")
        first_period = start_ns // INDEX_PERIOD_NS
        last_period = (end_ns - 1) // INDEX_PERIOD_NS
        blocks = sorted(
            (
                block
                for (blk_tenant, _fp, period), block in self._blocks.items()
                if (tenant is None or blk_tenant == tenant)
                and first_period <= period <= last_period
                and matches_all(block.labels, matchers)
            ),
            key=lambda block: block.period,
        )
        rows = merge_patterns(
            DetectedPattern(
                pattern_id=record.pattern_id,
                template=record.template,
                count=record.count,
                first_ts_ns=record.first_ts_ns,
                last_ts_ns=record.last_ts_ns,
                exemplar=record.exemplar,
                stream_ids=frozenset({(block.tenant, block.fingerprint)}),
            )
            for block in blocks
            for record in block.records.values()
            if record.last_ts_ns >= start_ns and record.first_ts_ns < end_ns
        )
        self.queries_served += 1
        self._tracer.record(
            "patterns",
            "patterns.query",
            attributes={"matchers": len(matchers), "rows": len(rows)},
        )
        return rows

    def counts_by_pattern(
        self, tenant: str | None = None
    ) -> dict[tuple[str, str], tuple[int, str]]:
        """Total count and current template per (tenant, pattern_id) —
        the ruler's rate source."""
        totals: dict[tuple[str, str], tuple[int, str]] = {}
        for (blk_tenant, _fp, _period), block in self._blocks.items():
            if tenant is not None and blk_tenant != tenant:
                continue
            for record in block.records.values():
                key = (blk_tenant, record.pattern_id)
                prev = totals.get(key)
                count = record.count + (prev[0] if prev else 0)
                totals[key] = (count, record.template)
        return totals

    def pattern_count(self, tenant: str | None = None) -> int:
        """Distinct pattern ids across all blocks."""
        seen: set[str] = set()
        for (blk_tenant, _fp, _period), block in self._blocks.items():
            if tenant is not None and blk_tenant != tenant:
                continue
            seen.update(block.records)
        return len(seen)

    def counters(self) -> dict[str, int]:
        return {
            "blocks": len(self._blocks),
            "dirty": len(self._dirty),
            "lines_recorded": self.lines_recorded,
            "blocks_persisted_total": self.blocks_persisted,
            "persist_failures": self.persist_failures,
            "blocks_rebuilt_total": self.blocks_built,
            "queries_served": self.queries_served,
        }
