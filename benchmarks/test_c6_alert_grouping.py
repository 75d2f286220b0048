"""C6 — "the reduction in noise caused by multiple alerts from the same
events" (paper §I); Alertmanager "groups them by priority, category,
source, etc." (paper §IV).

An alert storm (a chassis' worth of switches failing together, each
re-firing repeatedly) is pushed through Alertmanager under different
``group_by`` configurations; the bench reports events-in versus
notifications-out.

Expected shape: grouping by alertname compresses the storm by roughly
the storm width; per-device grouping gives no compression.
"""

from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, minutes
from repro.alerting.alertmanager import Alertmanager, Route
from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import MemoryReceiver

from conftest import report

N_SWITCHES = 32
REFIRES = 5


def _storm_events(clock):
    """Each switch fires once per minute for REFIRES minutes."""
    for rep in range(REFIRES):
        batch = []
        for i in range(N_SWITCHES):
            batch.append(
                AlertEvent(
                    labels=LabelSet(
                        {
                            "alertname": "SwitchOffline",
                            "severity": "critical",
                            "category": "network",
                            "xname": f"x1002c1r{i}b0",
                        }
                    ),
                    annotations={},
                    state=AlertState.FIRING,
                    value=1.0,
                    started_at_ns=clock.now_ns,
                    fired_at_ns=clock.now_ns,
                )
            )
        yield batch


def _run(group_by):
    clock = SimClock(0)
    recv = MemoryReceiver("mem")
    am = Alertmanager(
        clock,
        Route(
            receiver="mem",
            group_by=group_by,
            group_wait="30s",
            group_interval="5m",
            repeat_interval="4h",
        ),
    )
    am.register_receiver(recv)
    for batch in _storm_events(clock):
        for event in batch:
            am.receive(event)
        clock.advance(minutes(1))
    clock.advance(minutes(10))
    return am, recv


def test_c6_alert_storm_grouping(benchmark):
    am, _ = benchmark.pedantic(
        lambda: _run(("alertname", "category")), rounds=3, iterations=1
    )
    assert am.grouping_factor() > 10.0

    rows = [f"{'group_by':<28} {'events_in':>10} {'notifications':>14} {'factor':>8}"]
    for group_by in (
        ("alertname", "category"),
        ("alertname",),
        ("alertname", "xname"),  # per-device: no storm compression
    ):
        am, recv = _run(group_by)
        rows.append(
            f"{','.join(group_by):<28} {am.events_received:>10} "
            f"{am.notifications_sent:>14} {am.grouping_factor():>7.1f}x"
        )
    rows.append(
        f"\nstorm: {N_SWITCHES} switches x {REFIRES} re-fires = "
        f"{N_SWITCHES * REFIRES} events\n"
        "paper claim: grouping by category/source collapses same-event "
        "noise into a handful of notifications; per-device grouping "
        "forfeits the compression."
    )
    report("C6_alert_grouping", "\n".join(rows))
