"""The data lifecycle: one scheduled sweep, the only retention path.

Paper §III.C: "up to two years of operational data is immediately
available and more can be restored."  Each sweep moves the log chunks
whose newest entry is past the hot window out of the log store into an
archive, downsamples aged metrics and expires broker topics.

The archive keeps the cold tier's formats: sealed ``Chunk`` payloads
under content keys in an ``archive`` bucket, indexed by a
:class:`ShipperIndex` whose period files make it rebuildable.  Restore
is a read: :attr:`Lifecycle.archive` is a :class:`StoreGateway`, so
``LogQLEngine(lifecycle.archive)`` queries archived history in place.
"""

from __future__ import annotations

from repro.bus.broker import Broker
from repro.common.simclock import SimClock, days, hours
from repro.loki.chunks import ChunkPolicy, pack_chunks
from repro.loki.store import LokiStore
from repro.objstore.gateway import StoreGateway
from repro.objstore.index import ShipperIndex
from repro.objstore.objectstore import ObjectStore, ObjectStoreUnavailable
from repro.omni.downsample import Downsampler
from repro.tempo.tracer import Tracer
from repro.tsdb.storage import TimeSeriesStore

#: "at least two years of data immediately [available]" (paper §I).
TWO_YEARS_NS = days(2 * 365)
#: How often the framework sweeps.
SWEEP_INTERVAL_NS = hours(1)
ARCHIVE_BUCKET = "archive"
#: Archived chunks are cut to the compactor's default object size.
_ARCHIVE_CHUNKS = ChunkPolicy(target_size_bytes=1 << 20)


class Lifecycle:
    """Hot window → archive → delete for logs, plus the metric and topic
    sweeps — any log backend, through the one store contract (DESIGN §3)."""

    def __init__(
        self,
        clock: SimClock,
        store: LokiStore,
        tsdb: TimeSeriesStore,
        broker: Broker,
        tracer: Tracer,
    ) -> None:
        self._clock = clock
        self._store = store
        self._broker = broker
        self.hot_window_ns = TWO_YEARS_NS
        self.downsampler = Downsampler(tsdb, clock)
        self.objstore = ObjectStore(clock)
        self.archive_index = ShipperIndex(self.objstore, bucket=ARCHIVE_BUCKET)
        self.archive = StoreGateway(
            self.objstore, self.archive_index, clock, tracer=tracer
        )
        self.sweeps = 0
        #: Sweeps whose log part an object-store outage cut short.
        self.sweep_failures = 0
        self.entries_archived = 0

    def cutoff_ns(self) -> int:
        return self._clock.now_ns - self.hot_window_ns

    def sweep(self) -> int:
        """Archive, then delete, every log chunk wholly before the hot
        window; then downsample and expire topics.  Returns the entries
        archived.

        The store deletes only after the archive's chunks and index
        files have landed.  An outage on a cold read or a cold delete
        ends the log part early and is counted: what was archived but not
        yet deleted is archived again next sweep, and the archive's
        per-stream merge reads it back once.  Only a sweep whose delete
        returned counts its entries, so each is counted once.  Each dirty
        archive period is rewritten as one snapshot, so hourly sweeps
        into one period leave one index file, not a pile.
        """
        cutoff = self.cutoff_ns()
        self.sweeps += 1
        moved = 0
        try:
            # A replicated or tiered store merges its replicas and tiers
            # here, so the archive holds every acknowledged entry once.
            for labels, doomed, _ts in self._store.expired_entries(cutoff):
                for chunk in pack_chunks(doomed, _ARCHIVE_CHUNKS):
                    self.archive_index.write_chunk(labels, chunk)
                moved += len(doomed)
            self.archive_index.compact_dirty()
            self._store.delete_before(cutoff)
        except ObjectStoreUnavailable:
            self.sweep_failures += 1
            moved = 0
        self.entries_archived += moved
        self.downsampler.sweep()
        self._broker.enforce_retention()
        return moved
