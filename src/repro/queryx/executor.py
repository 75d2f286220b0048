"""The querier worker pool: concurrent subquery execution, simulated.

Real Loki queriers are stateless pods pulling subqueries off the
scheduler; the frontend's wall-clock for a sharded query is the longest
*worker* timeline, not the sum of subquery costs.  This pool reproduces
that accounting on the sim clock: subqueries run to completion in
process (producing exact partials), each is priced by a cost model
(base overhead + a span-proportional term + whatever cold object-store
latency it actually incurred), and costs accumulate per worker.  The
query's wall-clock is ``max(worker busy)``, the monolithic reference is
``sum`` — their ratio is the speedup Q1 prices.

Failure injection rides the same accounting: a crashed worker charges
its base overhead (the work was dispatched and lost), then the subquery
is retried on the next live worker — at-least-once execution, with
exactness preserved because partials are deterministic and the merger
only ever sees the successful attempt.  A slow worker multiplies its
costs, dragging the max and modelling the straggler problem that makes
people shard in the first place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.errors import ReproError, ValidationError
from repro.common.simclock import seconds

if TYPE_CHECKING:
    from repro.queryx.planner import Subquery


class QuerierCrash(ReproError):
    """A querier worker died while holding a subquery."""


class AllQueriersDown(ReproError):
    """No live worker remains to retry a subquery on."""


class QuerierWorker:
    """One simulated querier: a timeline of accounted busy time."""

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.busy_ns = 0
        self.subqueries_run = 0
        self.crashed = False
        self.slow_factor = 1.0

    def charge(self, cost_ns: int) -> int:
        cost = int(cost_ns * self.slow_factor)
        self.busy_ns += cost
        return cost


class QuerierPool:
    """Dispatches a plan's subqueries across simulated querier workers.

    Assignment is deterministic least-busy (ties broken by worker id),
    which is both reproducible under a seed and a reasonable model of a
    work-stealing scheduler: the idlest querier takes the next shard.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValidationError("pool needs at least one worker")
        self.exec_base_ns = int(seconds(0.02))
        self.exec_per_hour_ns = int(seconds(0.1))
        self.max_attempts = 4
        self._workers = [QuerierWorker(f"querier-{i}") for i in range(workers)]
        self.subqueries_executed = 0
        self.retries_total = 0
        self.crashes_seen = 0

    # ------------------------------------------------------------------
    # Fault hooks (chaos)
    # ------------------------------------------------------------------
    def worker(self, worker_id: str) -> QuerierWorker:
        for w in self._workers:
            if w.worker_id == worker_id:
                return w
        raise ValidationError(f"no such querier {worker_id!r}")

    def set_crashed(self, worker_id: str, crashed: bool) -> None:
        self.worker(worker_id).crashed = crashed

    def set_slow(self, worker_id: str, factor: float) -> None:
        if factor < 1.0:
            raise ValidationError("slow factor must be >= 1.0")
        self.worker(worker_id).slow_factor = factor

    def live_workers(self) -> int:
        return sum(1 for w in self._workers if not w.crashed)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def reset_timelines(self) -> None:
        """Zero per-worker busy time (each query measures its own wall)."""
        for w in self._workers:
            w.busy_ns = 0

    def run(
        self,
        subqueries: "list[Subquery]",
        execute: "Callable[[Subquery], object]",
        cost_of: "Callable[[Subquery], int] | None" = None,
        on_attempt: "Callable[[Subquery, QuerierWorker, int, bool], None] | None" = None,
    ) -> "list[tuple[Subquery, object]]":
        """Run every subquery, return (subquery, partial) pairs.

        ``execute`` does the real work (and is only called on the
        surviving attempt); ``cost_of`` prices it for the timeline —
        defaulting to the base + span model.  ``on_attempt(sub, worker,
        cost_ns, ok)`` observes every attempt, including the crashed
        ones, for tracing.
        """
        results: list[tuple[Subquery, object]] = []
        for sub in subqueries:
            results.append((sub, self._run_one(sub, execute, cost_of, on_attempt)))
        return results

    def _run_one(self, sub, execute, cost_of, on_attempt):
        last_worker: QuerierWorker | None = None
        for _attempt in range(self.max_attempts):
            if self.live_workers() == 0:
                raise AllQueriersDown(
                    f"no live querier for subquery {sub.index}"
                )
            worker = self._pick_worker(exclude=last_worker)
            if worker.crashed:
                # The dispatch itself is spent: the worker accepted the
                # subquery and died.  Charge overhead, try elsewhere.
                cost = worker.charge(self.exec_base_ns)
                self.crashes_seen += 1
                self.retries_total += 1
                if on_attempt is not None:
                    on_attempt(sub, worker, cost, False)
                last_worker = worker
                continue
            partial = execute(sub)
            base_cost = cost_of(sub) if cost_of is not None else self.cost_model(sub)
            cost = worker.charge(base_cost)
            worker.subqueries_run += 1
            self.subqueries_executed += 1
            if on_attempt is not None:
                on_attempt(sub, worker, cost, True)
            return partial
        raise QuerierCrash(
            f"subquery {sub.index} exhausted {self.max_attempts} attempts"
        )

    def _pick_worker(self, exclude: QuerierWorker | None) -> QuerierWorker:
        """Deterministic least-busy dispatch with late fault discovery.

        Crashed workers stay in the candidate set — the scheduler only
        learns a querier is dead when the dispatched subquery dies with
        it (the caller's ``worker.crashed`` check) — except the worker
        that just failed *this* subquery, which is skipped when any
        alternative exists.  The caller guards the all-down case.
        """
        candidates = [w for w in self._workers if w is not exclude]
        if not candidates:
            candidates = list(self._workers)
        return min(candidates, key=lambda w: (w.busy_ns, w.worker_id))

    def cost_model(self, sub) -> int:
        """Base dispatch overhead + a term linear in the scanned span."""
        span_hours = sub.span_ns / seconds(3600)
        return int(self.exec_base_ns + span_hours * self.exec_per_hour_ns)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def wall_ns(self) -> int:
        """Query wall-clock: the longest single worker timeline."""
        return max((w.busy_ns for w in self._workers), default=0)

    def serial_ns(self) -> int:
        """What a single querier would have paid: the timeline sum."""
        return sum(w.busy_ns for w in self._workers)

    def worker_busy(self) -> dict[str, int]:
        return {w.worker_id: w.busy_ns for w in self._workers}

    def counters(self) -> dict[str, int]:
        return {
            "workers": len(self._workers),
            "live_workers": self.live_workers(),
            "subqueries_executed": self.subqueries_executed,
            "retries_total": self.retries_total,
            "crashes_seen": self.crashes_seen,
        }
