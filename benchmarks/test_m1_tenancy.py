"""M1 — noisy-neighbor isolation: per-tenant limits + fair scheduling.

The tenancy layer promises that one tenant flooding the cluster cannot
starve another.  This bench quantifies the promise by running the same
two-tenant workload twice:

* **isolation on** — each tenant has its own token bucket and the query
  scheduler round-robins across per-tenant queues with concurrency caps;
* **isolation off** — the legacy single-tenant world: all ingest drains
  one shared bucket of the same aggregate capacity, and queries go
  through one global FIFO.

A noisy tenant pushes bursts above the sustainable rate and floods the
scheduler with wide queries; a well-behaved victim trickles small pushes
and narrow queries.  Reported per mode: the victim's ingest acceptance
rate and query-wait percentiles, and the noisy tenant's acceptance rate
(throttling the flood is the *point*, so it should be low in isolation
mode).
"""

import numpy as np

from repro.common.errors import CapacityError
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.loki.frontend import QueryFrontend
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.loki.store import LokiStore
from repro.tenancy.admission import AdmissionController
from repro.tenancy.limits import LimitsRegistry, TenantLimits
from repro.tenancy.scheduler import QueryScheduler

from conftest import report
from tests.tracing import off_tracer

#: Per-bucket capacity — per tenant when isolated, cluster-wide when not.
CAPACITY = TenantLimits(
    ingestion_rate_lines_s=500.0,
    ingestion_burst_lines=2_000,
    # Per-stream limits stay generous so the tenant/shared bucket is the
    # binding constraint under study.
    per_stream_rate_lines_s=100_000.0,
    per_stream_burst_lines=1_000_000,
)

RUN_NS = minutes(5)
DRAIN_NS = minutes(5)

VICTIM_QUERY = 'sum(count_over_time({app="fm"}[5m]))'
NOISY_QUERY = 'sum(count_over_time({app="ghost"}[5m]))'


def _push(labels: dict, now: int, lines: int) -> PushRequest:
    from repro.common.labels import LabelSet

    return PushRequest(
        streams=(
            PushStream(
                labels=LabelSet(labels),
                entries=tuple(
                    LogEntry(now + i, f"line {i}") for i in range(lines)
                ),
            ),
        )
    )


def _run(isolated: bool) -> dict:
    clock = SimClock(0)
    store = LokiStore()
    store.push(
        PushRequest.single(
            {"app": "fm"}, [(minutes(i), f"event {i}") for i in range(120)]
        )
    )
    clock.advance(hours(2))

    registry = LimitsRegistry(defaults=CAPACITY)
    admission = AdmissionController(registry, clock, tracer=off_tracer())
    frontend = QueryFrontend(LogQLEngine(store), clock)
    scheduler = QueryScheduler(
        frontend, clock, registry=registry, max_concurrency=4, fair=isolated,
        tracer=off_tracer(),
    )

    # Isolation off = the legacy shared pipeline: both workloads draw
    # from ONE bucket (single tenant id) of the same total capacity.
    victim_id = "victim" if isolated else "shared"
    noisy_id = "noisy" if isolated else "shared"

    accepted = {"victim": 0, "rejected": 0, "noisy_ok": 0, "noisy_no": 0}
    victim_tickets = []

    def noisy_ingest_tick() -> None:
        # A greedy continuous flood: 3 × 50-line pushes every 100 ms
        # (1500 lines/s, 3× the sustainable rate) keep whatever bucket
        # they hit drained below the victim's push size.
        now = clock.now_ns
        for _ in range(3):
            try:
                admission.admit_push(
                    _push({"app": "noisy-app"}, now, 50), tenant=noisy_id
                )
                accepted["noisy_ok"] += 1
            except CapacityError:
                accepted["noisy_no"] += 1

    def noisy_query_tick() -> None:
        now = clock.now_ns
        for _ in range(8):
            scheduler.submit(
                noisy_id, NOISY_QUERY, now - hours(1), now, minutes(1)
            )

    def victim_tick() -> None:
        now = clock.now_ns
        try:
            admission.admit_push(
                _push({"app": "victim-app"}, now, 200), tenant=victim_id
            )
            accepted["victim"] += 1
        except CapacityError:
            accepted["rejected"] += 1
        victim_tickets.append(
            scheduler.submit(
                victim_id, VICTIM_QUERY, now - minutes(30), now, minutes(1)
            )
        )

    timers = [
        clock.every(seconds(0.1), noisy_ingest_tick),
        clock.every(seconds(1), noisy_query_tick),
        clock.every(seconds(5), victim_tick),
    ]
    clock.advance(RUN_NS)
    for timer in timers:
        timer.cancel()
    clock.advance(DRAIN_NS)

    waits = np.array(
        [t.wait_ns for t in victim_tickets if t.done], dtype=np.float64
    ) / 1e9
    total_victim = accepted["victim"] + accepted["rejected"]
    total_noisy = accepted["noisy_ok"] + accepted["noisy_no"]
    return {
        "victim_accept": accepted["victim"] / total_victim,
        "noisy_accept": accepted["noisy_ok"] / total_noisy,
        "victim_done": sum(1 for t in victim_tickets if t.done),
        "victim_total": len(victim_tickets),
        "wait_p50": float(np.percentile(waits, 50)),
        "wait_p95": float(np.percentile(waits, 95)),
        "wait_max": float(np.max(waits)),
    }


def test_m1_tenancy(benchmark):
    on = benchmark.pedantic(lambda: _run(isolated=True), rounds=1, iterations=1)
    off = _run(isolated=False)

    # The victim is whole under isolation: every push accepted, every
    # query completed, bounded waits.
    assert on["victim_accept"] == 1.0
    assert on["victim_done"] == on["victim_total"]
    # The flood is throttled — that is the point of the limits.
    assert on["noisy_accept"] < 0.8
    # Without isolation the shared bucket starves the victim's ingest
    # and the FIFO queue inflates its query latency.
    assert off["victim_accept"] < on["victim_accept"]
    assert off["wait_p95"] > on["wait_p95"] * 2

    rows = [
        f"{'mode':<15} {'victim_ok%':>10} {'noisy_ok%':>10} "
        f"{'wait_p50_s':>11} {'wait_p95_s':>11} {'wait_max_s':>11}",
        f"{'isolation on':<15} {on['victim_accept'] * 100:>10.1f} "
        f"{on['noisy_accept'] * 100:>10.1f} {on['wait_p50']:>11.2f} "
        f"{on['wait_p95']:>11.2f} {on['wait_max']:>11.2f}",
        f"{'isolation off':<15} {off['victim_accept'] * 100:>10.1f} "
        f"{off['noisy_accept'] * 100:>10.1f} {off['wait_p50']:>11.2f} "
        f"{off['wait_p95']:>11.2f} {off['wait_max']:>11.2f}",
        "",
        f"workload: noisy = 1500 lines/s in 50-line pushes + 8 wide "
        f"queries per second; "
        f"victim = 200-line push + 1 narrow query per 5 s; "
        f"{RUN_NS / 1e9 / 60:.0f} min load + {DRAIN_NS / 1e9 / 60:.0f} min "
        f"drain; 4 scheduler slots.",
        f"victim queries completed: isolation on "
        f"{on['victim_done']}/{on['victim_total']}, off "
        f"{off['victim_done']}/{off['victim_total']}.",
        "",
        "isolation contract: per-tenant token buckets keep the victim's "
        "ingest at 100% while the flood is shed; round-robin scheduling "
        "bounds the victim's query wait regardless of the noisy backlog.",
    ]
    report("M1_tenancy", "\n".join(rows))
