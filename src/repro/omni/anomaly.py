"""Proactive anomaly detection over OMNI metrics.

The paper twice invokes machine learning: the framework "employ[s]
machine learning methods for proactive incident response" (§II) and
ServiceNow uses ML "to reduce the Mean Time to Resolution" (§III.D).
This module implements the classical online detectors that production
monitoring ML actually ships:

* :class:`EwmaDetector` — exponentially weighted moving average with a
  variance-tracked z-score: flags points that deviate from the learned
  local level (temperature creep before a thermal trip).
* :class:`CusumDetector` — two-sided CUSUM: flags a persistent drift
  the spike detector would absorb (a node creeping hotter).
* :class:`ProactiveMonitor` — scans TSDB series on a schedule and emits
  Alertmanager-compatible ``AnomalyDetected`` events, giving operators
  warning *before* a threshold rule would fire.

Detectors are deliberately simple, deterministic and well-tested — the
point is the pipeline position (store → detector → Alertmanager), not
model sophistication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet, Matcher, MatchOp
from repro.common.simclock import SimClock
from repro.alerting.events import ALERTNAME_LABEL, AlertEvent, AlertState
from repro.tsdb.storage import TimeSeriesStore


@dataclass(frozen=True)
class Anomaly:
    """One flagged point."""

    timestamp_ns: int
    value: float
    score: float  # z-score or relative jump, per detector


class EwmaDetector:
    """EWMA level + variance tracking; flags |z| above the threshold.

    ``alpha`` controls memory (smaller = longer); ``z_threshold`` the
    sensitivity; ``warmup`` samples are learned silently so start-up
    noise never alerts.
    """

    def __init__(self, z_threshold: float = 4.0, warmup: int = 10) -> None:
        if z_threshold <= 0:
            raise ValidationError("z threshold must be positive")
        if warmup < 1:
            raise ValidationError("warmup must be >= 1")
        self.alpha = 0.1
        self.z_threshold = z_threshold
        self.warmup = warmup

    def scan(self, timestamps: np.ndarray, values: np.ndarray) -> list[Anomaly]:
        """Scan one series; returns flagged points (never from warmup)."""
        if len(values) == 0:
            return []
        mean = float(values[0])
        var = 0.0
        anomalies: list[Anomaly] = []
        for i in range(1, len(values)):
            value = float(values[i])
            std = math.sqrt(var) if var > 0 else 0.0
            if i >= self.warmup and std > 0:
                z = (value - mean) / std
                if abs(z) >= self.z_threshold:
                    anomalies.append(Anomaly(int(timestamps[i]), value, z))
                    # Do not absorb the outlier into the model.
                    continue
            delta = value - mean
            mean += self.alpha * delta
            var = (1 - self.alpha) * (var + self.alpha * delta * delta)
        return anomalies


class CusumDetector:
    """Two-sided CUSUM drift detector.

    Where EWMA catches spikes, CUSUM catches *creep*: it learns a baseline
    mean/σ over ``warmup`` samples, then accumulates deviations beyond a
    ``k``·σ allowance; the cumulative sum crossing ``h``·σ flags a
    persistent drift (a slowly overheating node, a fan winding down).
    After a flag the baseline re-learns at the current level so the same
    drift is reported once.
    """

    def __init__(
        self,
        k: float = 1.0,
        h: float = 10.0,
        warmup: int = 20,
        relearn_every: int = 20,
    ) -> None:
        if k < 0:
            raise ValidationError("k (allowance) must be non-negative")
        if h <= 0:
            raise ValidationError("h (decision threshold) must be positive")
        if warmup < 2:
            raise ValidationError("warmup must be >= 2")
        if relearn_every < 1:
            raise ValidationError("relearn interval must be >= 1")
        self.k = k
        self.h = h
        self.warmup = warmup
        self.relearn_every = relearn_every

    def scan(self, timestamps: np.ndarray, values: np.ndarray) -> list[Anomaly]:
        n = len(values)
        if n <= self.warmup:
            return []
        anomalies: list[Anomaly] = []
        i = 0
        while i + self.warmup < n:
            base = values[i : i + self.warmup]
            mu = float(np.mean(base))
            sigma = float(np.std(base))
            if sigma == 0.0:
                sigma = max(abs(mu) * 0.01, 1e-9)
            allowance = self.k * sigma
            threshold = self.h * sigma
            s_hi = 0.0
            s_lo = 0.0
            flagged_at = None
            window_end = min(n, i + self.warmup + self.relearn_every)
            for j in range(i + self.warmup, window_end):
                x = float(values[j])
                s_hi = max(0.0, s_hi + (x - mu - allowance))
                s_lo = max(0.0, s_lo + (mu - x - allowance))
                if s_hi > threshold or s_lo > threshold:
                    score = max(s_hi, s_lo) / sigma
                    anomalies.append(Anomaly(int(timestamps[j]), x, score))
                    flagged_at = j
                    break
            if flagged_at is not None:
                i = flagged_at  # re-learn the baseline at the new level
            else:
                # Periodic re-baseline bounds false accumulation on slowly
                # wandering (autocorrelated) but healthy series.
                i = window_end - self.warmup
        return anomalies


class ProactiveMonitor:
    """Scans selected TSDB series and emits anomaly alert events."""

    def __init__(
        self,
        store: TimeSeriesStore,
        clock: SimClock,
        notifier: Callable[[AlertEvent], None],
        detector: EwmaDetector | CusumDetector | None = None,
        window_ns: int = 3_600_000_000_000,  # 1h of history per scan
    ) -> None:
        if window_ns <= 0:
            raise ValidationError("window must be positive")
        self._store = store
        self._clock = clock
        self._notifier = notifier
        self._detector = detector or EwmaDetector()
        self._window_ns = window_ns
        self._watched: list[tuple[str, str]] = []  # (metric, severity)
        self._reported: set[tuple[LabelSet, int]] = set()
        self.scans = 0
        self.anomalies_found = 0

    def watch_metric(self, name: str, severity: str = "warning") -> None:
        if any(m == name for m, _ in self._watched):
            raise ValidationError(f"already watching {name}")
        self._watched.append((name, severity))

    def scan_once(self) -> list[AlertEvent]:
        """One pass over every watched metric; returns emitted events."""
        now = self._clock.now_ns
        start = now - self._window_ns
        # A point older than the window is never selected again, so its
        # key can go: the set holds one window's worth of anomalies.
        self._reported = {key for key in self._reported if key[1] >= start}
        events: list[AlertEvent] = []
        for metric, severity in self._watched:
            selected = self._store.select(
                [Matcher(METRIC_NAME_LABEL, MatchOp.EQ, metric)], start, now + 1
            )
            for labels, ts, vals in selected:
                for anomaly in self._detector.scan(ts, vals):
                    key = (labels, anomaly.timestamp_ns)
                    if key in self._reported:
                        continue
                    self._reported.add(key)
                    event = self._make_event(labels, anomaly, severity, now)
                    events.append(event)
                    self._notifier(event)
        self.scans += 1
        self.anomalies_found += len(events)
        return events

    def _make_event(
        self, series: LabelSet, anomaly: Anomaly, severity: str, now_ns: int
    ) -> AlertEvent:
        metric = series.get(METRIC_NAME_LABEL, "unknown")
        labels = series.without(METRIC_NAME_LABEL).with_labels(
            **{
                ALERTNAME_LABEL: "AnomalyDetected",
                "severity": severity,
                "metric": metric,
            }
        )
        return AlertEvent(
            labels=labels,
            annotations={
                "summary": (
                    f"{metric} anomalous: value {anomaly.value:.2f} "
                    f"(score {anomaly.score:.1f})"
                )
            },
            state=AlertState.FIRING,
            value=anomaly.value,
            started_at_ns=anomaly.timestamp_ns,
            fired_at_ns=now_ns,
            generator="proactive-monitor",
        )
