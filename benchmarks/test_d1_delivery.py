"""D1 — alert-delivery guarantees: latency healthy vs under outage.

The resilience layer promises at-least-once delivery with exactly-once
*effects*; this bench quantifies what the promise costs.  The same set
of notification groups is driven through the full receiver chain
(Retrying → Flaky → Idempotent → memory) twice: once healthy, once with
seeded receiver outages on the simulated clock.  It reports p50/p95/p99
enqueue→delivery latency for both runs and asserts the delivery
invariants: nothing pending, nothing dead-lettered, each group's
notification delivered to the terminal receiver exactly once.
"""

import numpy as np

from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, hours, minutes, seconds
from repro.alerting.alertmanager import Alertmanager, Route
from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import MemoryReceiver
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.journal import NotificationJournal
from repro.resilience.receivers import (
    FlakyReceiver,
    IdempotentReceiver,
    RetryingReceiver,
)

from conftest import report
from tests.tracing import off_tracer

N_GROUPS = 200
#: Alert groups fire staggered over this window; the run then drains.
FIRE_WINDOW_NS = hours(1)
DRAIN_NS = hours(3)
SEED = 11


def _alert(name: str, ts: int) -> AlertEvent:
    return AlertEvent(
        labels=LabelSet({"alertname": name, "cluster": "perlmutter"}),
        annotations={"summary": name},
        state=AlertState.FIRING,
        value=1.0,
        started_at_ns=ts,
        fired_at_ns=ts,
    )


def _run(outages: bool):
    """Drive N_GROUPS distinct alert groups through the delivery chain;
    returns (journal, inner receiver, retrying, fired_at per group)."""
    clock = SimClock(0)
    inner = MemoryReceiver("mem")
    target = FlakyReceiver(IdempotentReceiver(inner), clock)
    if outages:
        target = FlakyReceiver.seeded(
            IdempotentReceiver(inner),
            clock,
            seed=SEED,
            outage_count=4,
            horizon_ns=FIRE_WINDOW_NS + DRAIN_NS // 2,
            mean_outage_ns=minutes(10),
        )
    journal = NotificationJournal(clock)
    retrying = RetryingReceiver(
        target,
        clock,
        BackoffPolicy(base_ns=seconds(30), cap_ns=minutes(10), seed=SEED),
        journal,
        breaker=CircuitBreaker(
            clock, failure_threshold=3, reset_timeout_ns=minutes(2)
        ),
        tracer=off_tracer(),
    )
    am = Alertmanager(
        clock,
        Route(receiver="mem", group_by=("alertname",), group_wait="30s",
              group_interval="1m", repeat_interval="4h"),
    )
    am.register_receiver(retrying)
    step = FIRE_WINDOW_NS // N_GROUPS
    fired: dict[str, int] = {}

    def fire(i: int) -> None:
        name = f"Group{i:04d}"
        fired[name] = clock.now_ns
        am.receive(_alert(name, clock.now_ns))

    for i in range(N_GROUPS):
        clock.call_at(i * step, lambda i=i: fire(i))
    clock.advance(FIRE_WINDOW_NS + DRAIN_NS)
    return journal, inner, retrying, fired


def _percentiles(journal) -> tuple[float, float, float]:
    lat = np.array(journal.latencies_ns(), dtype=np.float64) / 1e9
    return tuple(float(np.percentile(lat, p)) for p in (50, 95, 99))


def _assert_invariants(journal, inner, fired) -> None:
    stats = journal.stats()
    assert stats["enqueued"] >= N_GROUPS
    assert stats["pending"] == 0, "every notification must eventually land"
    assert stats["failed"] == 0, "nothing may exhaust the retry budget"
    # Exactly-once effects: one terminal delivery per idempotency key.
    keys = [n.idempotency_key for n in inner.notifications]
    assert len(keys) == len(set(keys)), "duplicate delivery leaked through"
    # Zero loss: every fired group reached the terminal receiver.
    seen = {n.group_key.get("alertname") for n in inner.notifications}
    assert seen >= set(fired), "a fired group never produced a delivery"


def test_d1_delivery(benchmark):
    journal, inner, retrying, fired = benchmark.pedantic(
        lambda: _run(outages=False), rounds=3, iterations=1
    )
    _assert_invariants(journal, inner, fired)
    assert retrying.retries_scheduled == 0  # healthy = first-attempt
    healthy = _percentiles(journal)

    journal_o, inner_o, retrying_o, fired_o = _run(outages=True)
    _assert_invariants(journal_o, inner_o, fired_o)
    assert retrying_o.retries_scheduled > 0
    outage = _percentiles(journal_o)
    stats_o = journal_o.stats()

    rows = [
        f"{'run':<10} {'p50_s':>8} {'p95_s':>8} {'p99_s':>8} "
        f"{'attempts':>9} {'retries':>8}",
        f"{'healthy':<10} {healthy[0]:>8.2f} {healthy[1]:>8.2f} "
        f"{healthy[2]:>8.2f} {journal.stats()['attempts']:>9} "
        f"{retrying.retries_scheduled:>8}",
        f"{'outage':<10} {outage[0]:>8.2f} {outage[1]:>8.2f} "
        f"{outage[2]:>8.2f} {stats_o['attempts']:>9} "
        f"{retrying_o.retries_scheduled:>8}",
        "",
        f"groups fired: {N_GROUPS} over {FIRE_WINDOW_NS / 1e9 / 60:.0f} min; "
        f"seeded outage windows: {len(retrying_o._inner.outages)} "
        f"(breaker opened {retrying_o.breaker.times_opened}x, "
        f"deferrals {retrying_o.breaker_deferrals})",
        f"outage run: enqueued {stats_o['enqueued']}, delivered "
        f"{stats_o['delivered']}, pending 0, dead-lettered 0, "
        f"duplicates at terminal receiver 0",
        "",
        "delivery contract: at-least-once attempts, exactly-once effects "
        "(idempotency keys), zero loss under receiver outages.",
    ]
    report("D1_delivery", "\n".join(rows))
