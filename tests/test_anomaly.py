"""Tests for the proactive anomaly detection (paper §II / §III.D ML)."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, minutes, seconds
from repro.omni.anomaly import EwmaDetector, ProactiveMonitor
from repro.tsdb.storage import TimeSeriesStore


def series(values):
    ts = np.arange(len(values), dtype=np.int64) * 10
    return ts, np.asarray(values, dtype=np.float64)


class TestEwmaDetector:
    def test_flat_series_quiet(self):
        ts, vals = series([35.0] * 50)
        assert EwmaDetector().scan(ts, vals) == []

    def test_noisy_but_stationary_quiet(self):
        rng = np.random.default_rng(0)
        ts, vals = series(35.0 + rng.standard_normal(200))
        assert EwmaDetector(z_threshold=6.0).scan(ts, vals) == []

    def test_spike_flagged(self):
        rng = np.random.default_rng(1)
        base = 35.0 + rng.standard_normal(100)
        base[60] = 80.0  # thermal spike
        ts, vals = series(base)
        anomalies = EwmaDetector().scan(ts, vals)
        assert any(a.timestamp_ns == 600 for a in anomalies)

    def test_warmup_never_alerts(self):
        ts, vals = series([1.0, 50.0, 1.0, 50.0, 1.0])
        assert EwmaDetector(warmup=10).scan(ts, vals) == []

    def test_outlier_not_absorbed(self):
        """After a spike the model keeps its level, so a second spike of
        the same size is still flagged."""
        rng = np.random.default_rng(2)
        base = 35.0 + rng.standard_normal(120)
        base[50] = base[80] = 90.0
        ts, vals = series(base)
        flagged = {a.timestamp_ns for a in EwmaDetector().scan(ts, vals)}
        assert {500, 800} <= flagged

    def test_empty_series(self):
        assert EwmaDetector().scan(np.array([]), np.array([])) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            EwmaDetector(z_threshold=0)
        with pytest.raises(ValidationError):
            EwmaDetector(warmup=0)


class TestProactiveMonitor:
    @pytest.fixture
    def world(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        events = []
        monitor = ProactiveMonitor(store, clock, events.append)
        return clock, store, monitor, events

    def _fill(self, store, clock, spike_at=None, n=60):
        rng = np.random.default_rng(3)
        for i in range(n):
            value = 35.0 + rng.standard_normal()
            if spike_at is not None and i == spike_at:
                value = 95.0
            store.ingest(
                "node_temp_celsius", {"xname": "x1c0s0b0n0"}, value,
                clock.now_ns + i * seconds(30).__int__(),
            )

    def test_emits_anomaly_event(self, world):
        clock, store, monitor, events = world
        monitor.watch_metric("node_temp_celsius", severity="warning")
        self._fill(store, clock, spike_at=40)
        clock.advance(minutes(30))
        found = monitor.scan_once()
        assert found
        event = found[0]
        assert event.labels["alertname"] == "AnomalyDetected"
        assert event.labels["metric"] == "node_temp_celsius"
        assert event.generator == "proactive-monitor"
        assert "anomalous" in event.annotations["summary"]

    def test_no_duplicate_reports(self, world):
        clock, store, monitor, events = world
        monitor.watch_metric("node_temp_celsius")
        self._fill(store, clock, spike_at=40)
        clock.advance(minutes(30))
        first = monitor.scan_once()
        second = monitor.scan_once()
        assert first and second == []

    def test_quiet_series_quiet(self, world):
        clock, store, monitor, events = world
        monitor.watch_metric("node_temp_celsius")
        self._fill(store, clock, spike_at=None)
        clock.advance(minutes(30))
        assert monitor.scan_once() == []

    def test_duplicate_watch_rejected(self, world):
        _, _, monitor, _ = world
        monitor.watch_metric("m")
        with pytest.raises(ValidationError):
            monitor.watch_metric("m")

    def test_periodic_scanning(self, world):
        clock, store, monitor, events = world
        monitor.watch_metric("node_temp_celsius")
        self._fill(store, clock, spike_at=40)
        clock.every(minutes(5), monitor.scan_once)
        clock.advance(minutes(30))
        assert monitor.scans == 6
        assert events  # the spike reached the notifier

    def test_reported_keys_stay_within_one_window(self):
        """A day of a spike every five minutes: every scan finds something
        new, yet the dedup set never holds more keys than the window holds
        samples (it used to keep every anomaly ever reported)."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        monitor = ProactiveMonitor(
            store, clock, lambda event: None,
            detector=EwmaDetector(warmup=5), window_ns=minutes(10),
        )
        monitor.watch_metric("node_temp_celsius")
        rng = np.random.default_rng(4)
        sizes = []
        for sample in range(24 * 120):  # one sample per 30 s
            spike = sample % 10 == 9
            value = 95.0 if spike else 35.0 + rng.standard_normal()
            store.ingest("node_temp_celsius", {"xname": "x1c0s0b0n0"}, value, clock.now_ns)
            clock.advance(seconds(30))
            if sample % 10 == 9:
                monitor.scan_once()
                sizes.append(len(monitor._reported))
        assert monitor.anomalies_found >= 280
        assert max(sizes) <= 21  # samples in [now - 10 min, now]
