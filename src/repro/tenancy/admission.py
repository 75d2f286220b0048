"""Write-path admission control: tenant tagging, limits, typed 429s.

This is the front door of the multi-tenant write path.  Every push is
attributed to a tenant, tagged with the ``tenant`` stream label (the
in-process analogue of Loki's ``X-Scope-OrgID`` header), and checked
against the tenant's limits *before* it reaches the store or the ring
distributor:

* the tenant-wide token bucket throttles total lines/second — overdraw
  rejects the whole push with :class:`RateLimitedError` (HTTP 429);
* a new stream beyond ``max_active_streams`` rejects with
  :class:`StreamLimitError`;
* each stream's own token bucket throttles per-stream rate.

Rejections are all-or-nothing per push, exactly as Loki's distributor
answers 429: the producer is expected to back off and retry, and every
rejected line is counted as a per-tenant discard by reason — the numbers
the ``TenancyExporter`` ships and the ``TenantRateLimited`` rule fires
on.  Accepted pushes debit the buckets; rejected pushes never do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import RateLimitedError, StreamLimitError
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock
from repro.loki.model import PushRequest, PushStream
from repro.tempo.tracer import Tracer
from repro.tenancy.limits import (
    DEFAULT_TENANT,
    TENANT_LABEL,
    LimitsRegistry,
    TokenBucket,
)

#: Discard reasons, mirroring Loki's ``discarded_samples_total`` reasons.
REASON_RATE_LIMITED = "rate_limited"
REASON_STREAM_LIMIT = "max_streams"
REASON_PER_STREAM_RATE = "per_stream_rate"


@dataclass
class TenantCounters:
    """Per-tenant write-path accounting (what the exporter scrapes)."""

    pushes: int = 0
    pushes_rejected: int = 0
    entries_accepted: int = 0
    discarded: dict[str, int] = field(
        default_factory=lambda: {
            REASON_RATE_LIMITED: 0,
            REASON_STREAM_LIMIT: 0,
            REASON_PER_STREAM_RATE: 0,
        }
    )

    @property
    def entries_discarded(self) -> int:
        return sum(self.discarded.values())


class AdmissionController:
    """Tags, validates and rate-limits pushes per tenant."""

    def __init__(
        self,
        registry: LimitsRegistry,
        clock: SimClock,
        tracer: Tracer,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.tracer = tracer
        self._tenant_buckets: dict[str, TokenBucket] = {}
        self._stream_buckets: dict[tuple[str, LabelSet], TokenBucket] = {}
        self._streams: dict[str, set[LabelSet]] = {}
        # (tenant, labels as pushed) -> the tenant-tagged label set, kept
        # once the stream is admitted (labels that already carry their tag
        # need no entry): bounded by the active streams the limits allow,
        # and a steady-state line re-tags nothing.
        self._tagged: dict[tuple[str, LabelSet], LabelSet] = {}
        self.counters: dict[str, TenantCounters] = {}

    # ------------------------------------------------------------------
    # Bucket plumbing
    # ------------------------------------------------------------------
    def _counters(self, tenant: str) -> TenantCounters:
        counters = self.counters.get(tenant)
        if counters is None:
            counters = self.counters[tenant] = TenantCounters()
        return counters

    def _tenant_bucket(self, tenant: str) -> TokenBucket:
        bucket = self._tenant_buckets.get(tenant)
        if bucket is None:
            limits = self.registry.limits_for(tenant)
            bucket = TokenBucket(
                limits.ingestion_rate_lines_s, limits.ingestion_burst_lines
            )
            self._tenant_buckets[tenant] = bucket
        return bucket

    def _stream_bucket(self, tenant: str, labels: LabelSet) -> TokenBucket:
        key = (tenant, labels)
        bucket = self._stream_buckets.get(key)
        if bucket is None:
            limits = self.registry.limits_for(tenant)
            bucket = TokenBucket(
                limits.per_stream_rate_lines_s, limits.per_stream_burst_lines
            )
            self._stream_buckets[key] = bucket
        return bucket

    def tag(self, labels: LabelSet, tenant: str | None = None) -> LabelSet:
        """``labels`` as a push for ``tenant`` is admitted under: with the
        ``tenant`` label set.  A push whose streams already carry their
        tags passes admission as it came, nothing rebuilt."""
        tenant = tenant or DEFAULT_TENANT
        if labels in self._streams.get(tenant, ()):
            return labels  # an active stream is a tagged label set
        tagged = self._tagged.get((tenant, labels))
        return tagged if tagged is not None else _with_tenant(labels, tenant)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit_push(
        self,
        request: PushRequest,
        tenant: str | None = None,
    ) -> PushRequest:
        """Validate ``request`` for ``tenant``; return the tagged request.

        Raises a typed 429 (:class:`RateLimitedError` /
        :class:`StreamLimitError`) and counts the discard if any limit
        would be exceeded.  On success the returned request carries the
        ``tenant`` label on every stream and the buckets are debited.
        """
        tenant = tenant or DEFAULT_TENANT
        counters = self._counters(tenant)
        counters.pushes += 1
        limits = self.registry.limits_for(tenant)
        total = request.total_entries()
        now = self.clock.now_ns
        active = self._streams.get(tenant)
        if active is None:
            active = self._streams[tenant] = set()

        streams = request.streams
        tags = [self.tag(stream.labels, tenant) for stream in streams]
        new = [tag for tag in tags if tag not in active]
        tagged = request
        if any(tag is not stream.labels for tag, stream in zip(tags, streams)):
            tagged = PushRequest(
                streams=tuple(
                    PushStream(labels=tag, entries=stream.entries)
                    for tag, stream in zip(tags, streams)
                )
            )

        # Tenant-wide rate first: the cheapest check, and the one a
        # flooding tenant hits — all-or-nothing, no bucket debit on reject.
        bucket = self._tenant_bucket(tenant)
        if not bucket.take(now, total):
            self._reject(tenant, counters, REASON_RATE_LIMITED, total)
            raise RateLimitedError(
                tenant,
                f"tenant {tenant!r}: push of {total} lines exceeds "
                f"ingestion rate {limits.ingestion_rate_lines_s:g}/s "
                f"(burst {limits.ingestion_burst_lines})",
            )

        if new and len(active) >= limits.max_active_streams:
            bucket.give_back(total)
            self._reject(tenant, counters, REASON_STREAM_LIMIT, total)
            raise StreamLimitError(
                tenant,
                f"tenant {tenant!r}: stream limit "
                f"{limits.max_active_streams} reached",
            )
        debited: list[tuple[TokenBucket, int]] = []
        for tag, stream in zip(tags, streams):
            stream_bucket = self._stream_bucket(tenant, tag)
            if stream_bucket.take(now, len(stream.entries)):
                debited.append((stream_bucket, len(stream.entries)))
                continue
            bucket.give_back(total)
            for debited_bucket, n in debited:
                debited_bucket.give_back(n)
            self._reject(tenant, counters, REASON_PER_STREAM_RATE, total)
            raise RateLimitedError(
                tenant,
                f"tenant {tenant!r}: stream {tag!r} exceeds "
                f"per-stream rate {limits.per_stream_rate_lines_s:g}/s",
            )
        active.update(new)
        for tag, stream in zip(tags, streams):
            if tag is not stream.labels:
                self._tagged[(tenant, stream.labels)] = tag
        counters.entries_accepted += total
        # Join only the tracer's current (sampled) trace, like the
        # distributor: one rooted trace per push would swamp the store.
        parent = self.tracer.current
        if parent is not None:
            self.tracer.record(
                "admission",
                "admit",
                parent,
                attributes={"tenant": tenant, "entries": total},
            )
        return tagged

    def _reject(
        self, tenant: str, counters: TenantCounters, reason: str, entries: int
    ) -> None:
        counters.pushes_rejected += 1
        counters.discarded[reason] = counters.discarded.get(reason, 0) + entries
        parent = self.tracer.current
        if parent is not None:
            self.tracer.record(
                "admission",
                f"reject:{reason}",
                parent,
                attributes={"tenant": tenant, "entries": entries},
            )

    # ------------------------------------------------------------------
    # Accounting surface
    # ------------------------------------------------------------------
    def tenants(self) -> list[str]:
        return sorted(self.counters)

    def active_streams(self, tenant: str) -> int:
        return len(self._streams.get(tenant, ()))


def _with_tenant(labels: LabelSet, tenant: str) -> LabelSet:
    if labels.get(TENANT_LABEL) == tenant:
        return labels
    return labels.with_labels(**{TENANT_LABEL: tenant})
