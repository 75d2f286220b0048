"""The fair query scheduler: per-tenant queues, round-robin dispatch.

Production Loki separates the query *frontend* (split + cache) from the
query *scheduler*: queries land in per-tenant FIFO queues and querier
workers pull from the queues round-robin, so one tenant's pile of 6-hour
range queries cannot starve another tenant's 5-minute tip query.  This
module reproduces that layer over the in-process
:class:`~repro.loki.frontend.QueryFrontend`.

Execution is modelled on the simulated clock: a query occupies one of
``max_concurrency`` querier slots for a duration proportional to the
window it scans (wide scans hold slots longer), and per-tenant
concurrency caps keep any tenant from holding every slot at once.  The
result is computed through the real frontend (split + tenant-keyed
cache), so answers are exact; only the *time* they take is simulated.

Fairness accounting — queue depth, wait time per tenant — is the
scheduler's own telemetry, exported by the ``TenancyExporter`` and
plotted on the "Tenants" dashboard; bench M1 reads the same numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import QueryLimitError, ValidationError
from repro.common.simclock import NANOS_PER_HOUR, SimClock, seconds
from repro.common.vector import Series
from repro.tempo.tracer import Tracer
from repro.tenancy.limits import DEFAULT_TENANT, LimitsRegistry


@dataclass
class ScheduledQuery:
    """One query's trip through the scheduler (ticket + outcome)."""

    tenant: str
    query: str
    start_ns: int
    end_ns: int
    step_ns: int
    submitted_ns: int
    started_ns: int | None = None
    finished_ns: int | None = None
    result: list[Series] | None = None
    error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.finished_ns is not None

    @property
    def wait_ns(self) -> int | None:
        """Queue wait: submission → execution start."""
        if self.started_ns is None:
            return None
        return self.started_ns - self.submitted_ns


@dataclass
class TenantQueueStats:
    """Per-tenant scheduler accounting."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    queue_depth_peak: int = 0
    #: Queue waits of every query that left the queue, whether it then
    #: completed, failed or is still running.
    waits_ns: list[int] = field(default_factory=list)

    @property
    def mean_wait_ns(self) -> float:
        return sum(self.waits_ns) / len(self.waits_ns) if self.waits_ns else 0.0


class QueryScheduler:
    """Per-tenant FIFO queues drained round-robin into querier slots."""

    def __init__(
        self,
        frontend,
        clock: SimClock,
        registry: LimitsRegistry | None = None,
        max_concurrency: int = 4,
        fair: bool = True,
        *,
        tracer: Tracer,
    ) -> None:
        """``fair=False`` degrades to one global FIFO with no per-tenant
        caps — the single-tenant legacy behaviour bench M1 compares
        against."""
        if max_concurrency < 1:
            raise ValidationError("need at least one querier slot")
        self._frontend = frontend
        self._clock = clock
        self.registry = registry or LimitsRegistry()
        self.max_concurrency = max_concurrency
        self.exec_base_ns = seconds(0.05)
        self.exec_per_hour_ns = seconds(0.5)
        self.fair = fair
        self.tracer = tracer
        self._queues: dict[str, deque[ScheduledQuery]] = {}
        #: Round-robin order: tenants in first-seen order; the rotation
        #: pointer advances one tenant per dispatched query.
        self._rotation: list[str] = []
        self._next_tenant = 0
        self._running_total = 0
        self._running: dict[str, int] = {}
        self.stats: dict[str, TenantQueueStats] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str | None,
        query: str,
        start_ns: int,
        end_ns: int,
        step_ns: int,
    ) -> ScheduledQuery:
        """Enqueue a range query for ``tenant``; returns the ticket.

        Raises :class:`QueryLimitError` immediately if the window
        exceeds the tenant's ``max_query_range_ns`` — an over-wide query
        is refused at the door, not queued.  A ticket is a whole query:
        behind the frontend, queryx fans it out and times the subqueries
        on its own pool.
        """
        tenant = tenant or DEFAULT_TENANT
        stats = self._stats(tenant)
        limits = self.registry.limits_for(tenant)
        if end_ns - start_ns > limits.max_query_range_ns:
            stats.rejected += 1
            raise QueryLimitError(
                tenant,
                f"tenant {tenant!r}: query range "
                f"{(end_ns - start_ns) / NANOS_PER_HOUR:.1f}h exceeds "
                f"limit {limits.max_query_range_ns / NANOS_PER_HOUR:.1f}h",
            )
        ticket = ScheduledQuery(
            tenant=tenant,
            query=query,
            start_ns=start_ns,
            end_ns=end_ns,
            step_ns=step_ns,
            submitted_ns=self._clock.now_ns,
        )
        stats.submitted += 1
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rotation.append(tenant)
        queue.append(ticket)
        stats.queue_depth_peak = max(stats.queue_depth_peak, len(queue))
        self._dispatch()
        return ticket

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _stats(self, tenant: str) -> TenantQueueStats:
        stats = self.stats.get(tenant)
        if stats is None:
            stats = self.stats[tenant] = TenantQueueStats()
        return stats

    def _pick_tenant(self) -> str | None:
        """Next tenant with queued work and spare concurrency, scanning
        round-robin from the rotation pointer."""
        n = len(self._rotation)
        for i in range(n):
            idx = (self._next_tenant + i) % n
            tenant = self._rotation[idx]
            if not self._queues[tenant]:
                continue
            if self.fair:
                cap = self.registry.limits_for(tenant).max_concurrent_queries
                if self._running.get(tenant, 0) >= cap:
                    continue
            self._next_tenant = (idx + 1) % n
            return tenant
        return None

    def _pick_fifo(self) -> str | None:
        """Unfair mode: globally oldest queued query wins, whoever owns it."""
        best: str | None = None
        best_ns: int | None = None
        for tenant, queue in self._queues.items():
            if queue and (best_ns is None or queue[0].submitted_ns < best_ns):
                best, best_ns = tenant, queue[0].submitted_ns
        return best

    def _dispatch(self) -> None:
        while self._running_total < self.max_concurrency:
            tenant = self._pick_tenant() if self.fair else self._pick_fifo()
            if tenant is None:
                return
            ticket = self._queues[tenant].popleft()
            self._execute(ticket)

    def _execute(self, ticket: ScheduledQuery) -> None:
        now = self._clock.now_ns
        ticket.started_ns = now
        stats = self._stats(ticket.tenant)
        stats.waits_ns.append(now - ticket.submitted_ns)
        limits = self.registry.limits_for(ticket.tenant)
        try:
            result = self._frontend.query_range(
                ticket.query,
                ticket.start_ns,
                ticket.end_ns,
                ticket.step_ns,
                tenant=ticket.tenant,
            )
            if len(result) > limits.max_series_per_query:
                raise QueryLimitError(
                    ticket.tenant,
                    f"tenant {ticket.tenant!r}: query returned "
                    f"{len(result)} series, limit is "
                    f"{limits.max_series_per_query}",
                )
            ticket.result = result
        except Exception as exc:  # noqa: BLE001 - the error IS the result
            ticket.error = exc
        # The slot is held for the modelled execution time: wide windows
        # scan more chunks and hold queriers longer.
        span_hours = (ticket.end_ns - ticket.start_ns) / NANOS_PER_HOUR
        duration = self.exec_base_ns + int(span_hours * self.exec_per_hour_ns)
        self._running_total += 1
        self._running[ticket.tenant] = self._running.get(ticket.tenant, 0) + 1
        self._clock.call_later(duration, lambda: self._finish(ticket))

    def _finish(self, ticket: ScheduledQuery) -> None:
        ticket.finished_ns = self._clock.now_ns
        stats = self._stats(ticket.tenant)
        if ticket.error is not None:
            stats.failed += 1
        else:
            stats.completed += 1
        self._running_total -= 1
        self._running[ticket.tenant] -= 1
        ctx = self.tracer.record(
            "scheduler",
            "execute",
            start_ns=ticket.submitted_ns,
            attributes={
                "tenant": ticket.tenant,
                "wait_ns": ticket.wait_ns,
                "status": "error" if ticket.error else "ok",
            },
        )
        if ctx is not None:
            self.tracer.record(
                "querier",
                "query_range",
                ctx,
                start_ns=ticket.started_ns or ticket.submitted_ns,
                attributes={"query": ticket.query[:80]},
            )
        self._dispatch()

    # ------------------------------------------------------------------
    # Accounting surface
    # ------------------------------------------------------------------
    def queue_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def running(self, tenant: str | None = None) -> int:
        if tenant is None:
            return self._running_total
        return self._running.get(tenant, 0)

    def tenants(self) -> list[str]:
        return sorted(set(self.stats) | set(self._queues))

    def wait_percentile_ns(self, tenant: str, pct: float) -> float:
        """Linear-interpolated percentile of the queue waits of every
        query that left the queue (``TenantQueueStats.waits_ns``)."""
        waits = sorted(self._stats(tenant).waits_ns)
        if not waits:
            return 0.0
        if len(waits) == 1:
            return float(waits[0])
        rank = (pct / 100.0) * (len(waits) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(waits) - 1)
        frac = rank - lo
        return waits[lo] * (1.0 - frac) + waits[hi] * frac
