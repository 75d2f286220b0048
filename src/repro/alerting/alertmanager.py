"""Alertmanager: grouping, routing, silences, inhibition, timed dispatch.

Implements the Prometheus Alertmanager semantics the paper's pipeline
depends on:

* a **routing tree** whose nodes match on alert labels and name a receiver;
* **aggregation groups** keyed by the route's ``group_by`` labels — a new
  group waits ``group_wait`` before first notifying (batching the storm),
  then re-notifies on changes every ``group_interval`` and unconditionally
  every ``repeat_interval``;
* **silences** (matcher sets with a validity window) drop matching alerts;
* **inhibition** suppresses target alerts while a matching source fires.

All timing runs on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.durations import parse_duration_ns
from repro.common.errors import DeliveryError, NotFoundError, ValidationError
from repro.common.labels import LabelSet, Matcher, matches_all
from repro.common.simclock import SimClock
from repro.alerting.events import AlertEvent, AlertState
from repro.alerting.receivers import Notification, Receiver


@dataclass
class Route:
    """One node of the routing tree."""

    receiver: str
    matchers: tuple[Matcher, ...] = ()
    group_by: tuple[str, ...] = ()
    group_wait: str = "30s"
    group_interval: str = "5m"
    repeat_interval: str = "4h"
    continue_: bool = False
    routes: list["Route"] = field(default_factory=list)

    def __post_init__(self) -> None:
        parse_duration_ns(self.group_wait)
        # A group re-arms its flush every group_interval: zero would
        # re-arm forever at one instant.  Alertmanager's loader refuses
        # both zero intervals; a zero group_wait is legal.
        for attr in ("group_interval", "repeat_interval"):
            if parse_duration_ns(getattr(self, attr)) == 0:
                raise ValidationError(f"route {attr} must be positive")

    def matches(self, labels: LabelSet) -> bool:
        return matches_all(labels, self.matchers)


@dataclass
class Silence:
    """Suppress alerts matching every matcher within [start, end)."""

    matchers: tuple[Matcher, ...]
    start_ns: int
    end_ns: int
    comment: str = ""

    def __post_init__(self) -> None:
        if self.end_ns <= self.start_ns:
            raise ValidationError("silence must end after it starts")
        if not self.matchers:
            raise ValidationError("silence needs at least one matcher")

    def active(self, now_ns: int) -> bool:
        return self.start_ns <= now_ns < self.end_ns

    def suppresses(self, labels: LabelSet, now_ns: int) -> bool:
        return self.active(now_ns) and matches_all(labels, self.matchers)


@dataclass
class InhibitRule:
    """While a *source* alert fires, suppress matching *target* alerts
    whose values for ``equal`` labels coincide with the source's."""

    source_matchers: tuple[Matcher, ...]
    target_matchers: tuple[Matcher, ...]
    equal: tuple[str, ...] = ()


class _AggregationGroup:
    """Alerts sharing a route and group-key; owns the notify schedule."""

    def __init__(self, route: Route, group_key: LabelSet) -> None:
        self.route = route
        self.group_key = group_key
        self.alerts: dict[int, AlertEvent] = {}
        self.dirty = False  # changes since last notification
        self.scheduled = False
        self.last_notified_ns: int | None = None

    def upsert(self, event: AlertEvent) -> None:
        self.alerts[event.fingerprint()] = event
        self.dirty = True

    def snapshot(self) -> tuple[AlertEvent, ...]:
        return tuple(
            sorted(self.alerts.values(), key=lambda a: a.labels.items_tuple())
        )

    def drop_resolved(self) -> None:
        self.alerts = {
            fp: a for fp, a in self.alerts.items() if a.state is AlertState.FIRING
        }


class Alertmanager:
    """The alert fan-in/fan-out hub between rule evaluators and receivers."""

    def __init__(self, clock: SimClock, route: Route) -> None:
        self._clock = clock
        self._root = route
        self._receivers: dict[str, Receiver] = {}
        self._groups: dict[tuple[int, LabelSet], _AggregationGroup] = {}
        self._silences: list[Silence] = []
        self._inhibit_rules: list[InhibitRule] = []
        self.events_received = 0
        self.events_silenced = 0
        self.events_inhibited = 0
        self.notifications_sent = 0
        self.notifications_failed = 0
        self._notification_seq = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register_receiver(self, receiver: Receiver) -> None:
        if receiver.name in self._receivers:
            raise ValidationError(f"duplicate receiver: {receiver.name}")
        self._receivers[receiver.name] = receiver

    def add_silence(self, silence: Silence) -> None:
        self._silences.append(silence)

    def add_inhibit_rule(self, rule: InhibitRule) -> None:
        self._inhibit_rules.append(rule)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def receive(self, event: AlertEvent) -> None:
        """Entry point for Ruler/vmalert events."""
        self.events_received += 1
        now = self._clock.now_ns
        if any(s.suppresses(event.labels, now) for s in self._silences):
            self.events_silenced += 1
            return
        if event.state is AlertState.FIRING and self._inhibited(event):
            self.events_inhibited += 1
            return
        for route in self._matching_routes(self._root, event.labels):
            self._enqueue(route, event)

    def _matching_routes(self, node: Route, labels: LabelSet) -> Iterable[Route]:
        """Depth-first route resolution with Alertmanager's continue
        semantics: the first matching child wins unless it sets continue."""
        if not node.matches(labels):
            return
        matched_child = False
        for child in node.routes:
            if child.matches(labels):
                matched_child = True
                yield from self._matching_routes(child, labels)
                if not child.continue_:
                    return
        if not matched_child:
            yield node

    def _enqueue(self, route: Route, event: AlertEvent) -> None:
        group_key = event.labels.project(route.group_by)
        key = (id(route), group_key)
        group = self._groups.get(key)
        if group is None:
            group = _AggregationGroup(route, group_key)
            self._groups[key] = group
        group.upsert(event)
        if not group.scheduled:
            group.scheduled = True
            wait = parse_duration_ns(route.group_wait)
            self._clock.call_later(wait, lambda: self._flush(group))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _flush(self, group: _AggregationGroup) -> None:
        now = self._clock.now_ns
        repeat = parse_duration_ns(group.route.repeat_interval)
        due_repeat = (
            group.last_notified_ns is not None
            and now - group.last_notified_ns >= repeat
            and bool(group.alerts)
        )
        if group.dirty or due_repeat:
            self._notify(group, now)
        if not group.dirty:
            # Only forget resolved alerts once their resolution actually
            # went out — after a failed delivery the group stays dirty
            # and keeps its full snapshot for the retry.
            group.drop_resolved()
        if group.alerts or group.dirty:
            interval = parse_duration_ns(group.route.group_interval)
            self._clock.call_later(interval, lambda: self._flush(group))
        else:
            group.scheduled = False

    def _notify(self, group: _AggregationGroup, now_ns: int) -> None:
        receiver = self._receivers.get(group.route.receiver)
        if receiver is None:
            raise NotFoundError(f"no receiver named {group.route.receiver!r}")
        self._notification_seq += 1
        notification = Notification(
            receiver=receiver.name,
            group_key=group.group_key,
            alerts=group.snapshot(),
            timestamp_ns=now_ns,
            idempotency_key=f"{receiver.name}/ntfy-{self._notification_seq:06d}",
        )
        try:
            receiver.notify(notification)
        except DeliveryError:
            # Failed delivery must NOT mark the group notified: it stays
            # dirty, so the next group_interval flush retries it, and
            # ``last_notified_ns`` stays put so repeat accounting is
            # anchored at the last *successful* delivery.
            self.notifications_failed += 1
            return
        group.dirty = False
        group.last_notified_ns = now_ns
        self.notifications_sent += 1

    # ------------------------------------------------------------------
    # Inhibition
    # ------------------------------------------------------------------
    def _inhibited(self, event: AlertEvent) -> bool:
        for rule in self._inhibit_rules:
            if not matches_all(event.labels, rule.target_matchers):
                continue
            for group in self._groups.values():
                for alert in group.alerts.values():
                    if alert.state is not AlertState.FIRING:
                        continue
                    if not matches_all(alert.labels, rule.source_matchers):
                        continue
                    if all(
                        alert.labels.get(name, "") == event.labels.get(name, "")
                        for name in rule.equal
                    ):
                        return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_alerts(self) -> list[AlertEvent]:
        seen: dict[int, AlertEvent] = {}
        for group in self._groups.values():
            for fp, alert in group.alerts.items():
                if alert.state is AlertState.FIRING:
                    seen[fp] = alert
        return sorted(seen.values(), key=lambda a: a.labels.items_tuple())

    def grouping_factor(self) -> float:
        """Events received per notification sent — the noise reduction."""
        if self.notifications_sent == 0:
            return 0.0
        return self.events_received / self.notifications_sent
