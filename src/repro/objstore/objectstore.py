"""A simulated S3-compatible object store: the cold tier's substrate.

Buckets hold opaque blobs under flat keys; "directories" are only key
prefixes, exactly like S3.  Every operation *accounts* a latency —
returned to the caller and accumulated in counters so benches can price
cold reads against hot ones — but never advances the simulation clock
itself: object-store calls happen inside scheduled callbacks, and a
callback that moved the clock would corrupt the event loop.

Fault injection mirrors the chaos framework's needs: an *outage* makes
every operation raise :class:`ObjectStoreUnavailable` (S3 5xx), a
*slowdown* multiplies accounted latencies (degraded backend / saturated
uplink).  Both are reversible toggles driven by ``OBJSTORE_OUTAGE`` /
``OBJSTORE_SLOW`` faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import NotFoundError, StateError, ValidationError
from repro.common.simclock import NANOS_PER_SECOND, SimClock


class ObjectStoreUnavailable(StateError):
    """The backend is down (S3 5xx): the operation did not happen."""


@dataclass(frozen=True)
class ObjectStoreConfig:
    """Per-operation base latencies plus a size-dependent transfer term.

    Defaults sketch an S3-over-WAN profile: tens of milliseconds per
    request, ~100 MiB/s of streaming throughput.  All values are
    *accounted*, not slept.
    """

    put_latency_ns: int = 30_000_000
    get_latency_ns: int = 15_000_000
    delete_latency_ns: int = 10_000_000
    list_latency_ns: int = 20_000_000
    throughput_bytes_per_sec: int = 100 * 1024 * 1024

    def __post_init__(self) -> None:
        for name in (
            "put_latency_ns",
            "get_latency_ns",
            "delete_latency_ns",
            "list_latency_ns",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.throughput_bytes_per_sec < 1:
            raise ValidationError("throughput must be positive")


@dataclass
class _Object:
    data: bytes
    created_ns: int


class ObjectStore:
    """In-memory S3 lookalike with latency accounting and chaos toggles."""

    def __init__(
        self, clock: SimClock, config: ObjectStoreConfig | None = None
    ) -> None:
        self._clock = clock
        self.config = config or ObjectStoreConfig()
        self._buckets: dict[str, dict[str, _Object]] = {}
        self._outage = False
        self._slowdown = 1.0
        # Operation counters for the exporter.
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.lists = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.overwrites = 0
        self.outage_rejections = 0
        self.total_latency_ns = 0

    # ------------------------------------------------------------------
    # Fault toggles
    # ------------------------------------------------------------------
    @property
    def outage(self) -> bool:
        return self._outage

    def set_outage(self, down: bool) -> None:
        self._outage = bool(down)

    def set_slowdown(self, factor: float) -> None:
        if factor < 1.0:
            raise ValidationError("slowdown factor must be >= 1.0")
        self._slowdown = float(factor)

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------
    def _charge(self, base_ns: int, nbytes: int = 0) -> int:
        if self._outage:
            self.outage_rejections += 1
            raise ObjectStoreUnavailable("object store is unavailable")
        transfer_ns = nbytes * NANOS_PER_SECOND // self.config.throughput_bytes_per_sec
        latency = int((base_ns + transfer_ns) * self._slowdown)
        self.total_latency_ns += latency
        return latency

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def put(self, bucket: str, key: str, data: bytes) -> int:
        """Store ``data`` under ``bucket/key``; returns accounted latency.

        Last-writer-wins overwrite, like S3 — callers that must not
        clobber check existence first (our keys are content-addressed, so
        an overwrite writes identical bytes anyway)."""
        if not bucket or not key:
            raise ValidationError("bucket and key must be non-empty")
        latency = self._charge(self.config.put_latency_ns, len(data))
        objects = self._buckets.setdefault(bucket, {})
        if key in objects:
            self.overwrites += 1
        objects[key] = _Object(bytes(data), self._clock.now_ns)
        self.puts += 1
        self.bytes_in += len(data)
        return latency

    def get_with_latency(self, bucket: str, key: str) -> tuple[bytes, int]:
        latency = self._charge(self.config.get_latency_ns)
        obj = self._buckets.get(bucket, {}).get(key)
        if obj is None:
            raise NotFoundError(f"no such object: {bucket}/{key}")
        # Transfer cost is only known once the object is found.
        transfer_ns = int(
            len(obj.data)
            * NANOS_PER_SECOND
            // self.config.throughput_bytes_per_sec
            * self._slowdown
        )
        self.total_latency_ns += transfer_ns
        self.gets += 1
        self.bytes_out += len(obj.data)
        return obj.data, latency + transfer_ns

    def get(self, bucket: str, key: str) -> bytes:
        return self.get_with_latency(bucket, key)[0]

    def head(self, bucket: str, key: str) -> bool:
        """Existence check (charged like a GET without the transfer)."""
        self._charge(self.config.get_latency_ns)
        return key in self._buckets.get(bucket, {})

    def delete(self, bucket: str, key: str) -> bool:
        """Delete an object; returns whether it existed (S3 is idempotent
        here, and so are we)."""
        self._charge(self.config.delete_latency_ns)
        removed = self._buckets.get(bucket, {}).pop(key, None)
        self.deletes += 1
        return removed is not None

    def list_keys(self, bucket: str, prefix: str = "") -> list[str]:
        """Keys under ``prefix``, sorted — per-tenant listings are just
        prefix listings, as on real S3."""
        self._charge(self.config.list_latency_ns)
        self.lists += 1
        return sorted(
            k for k in self._buckets.get(bucket, {}) if k.startswith(prefix)
        )

    # ------------------------------------------------------------------
    # Introspection (uncharged: the exporter's view, not a client's)
    # ------------------------------------------------------------------
    def buckets(self) -> list[str]:
        return sorted(self._buckets)

    def object_count(self, bucket: str | None = None, prefix: str = "") -> int:
        if bucket is not None:
            return sum(
                1 for k in self._buckets.get(bucket, {}) if k.startswith(prefix)
            )
        return sum(len(objects) for objects in self._buckets.values())

    def stored_bytes(self, bucket: str | None = None, prefix: str = "") -> int:
        if bucket is not None:
            return sum(
                len(o.data)
                for k, o in self._buckets.get(bucket, {}).items()
                if k.startswith(prefix)
            )
        return sum(
            len(o.data)
            for objects in self._buckets.values()
            for o in objects.values()
        )

    def counters(self) -> dict[str, int]:
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "lists": self.lists,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "overwrites": self.overwrites,
            "outage_rejections": self.outage_rejections,
            "total_latency_ns": self.total_latency_ns,
        }
