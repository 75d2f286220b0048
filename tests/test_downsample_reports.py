"""Tests for OMNI downsampling and ServiceNow reporting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, label_matcher
from repro.common.simclock import SimClock, days, hours, minutes
from repro.omni.downsample import DownsamplePolicy, Downsampler
from repro.servicenow.cmdb import CMDB
from repro.servicenow.events import SnEvent, SnSeverity
from repro.servicenow.incidents import Priority
from repro.servicenow.platform import ServiceNowPlatform
from repro.servicenow.reports import (
    flapping_alerts,
    incident_volume_by_ci_class,
    mttr_by_priority,
    operations_summary,
)
from repro.tsdb.storage import TimeSeriesStore


class TestDownsampler:
    def _filled_store(self, clock, span_days=60, step_minutes=5):
        store = TimeSeriesStore()
        t = 0
        while t < days(span_days):
            store.ingest("m", {"x": "1"}, float(t % 1000), t)
            t += minutes(step_minutes)
        clock.advance(days(span_days))
        return store

    def test_policy_validated(self):
        with pytest.raises(ValidationError):
            DownsamplePolicy(bucket_ns=0)

    def test_aged_region_shrinks(self):
        clock = SimClock(0)
        store = self._filled_store(clock)
        before = store.sample_count()
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        saved = ds.sweep()
        assert saved > 0
        # The aged region collapses from 12 samples/hour to 1 mean/bucket.
        aged = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", "")],
            0, days(30),
        )
        assert len(aged) == 1
        assert len(aged[0][1]) == pytest.approx(30 * 24, abs=2)
        assert before - saved == store.sample_count() - 2 * 30 * 24  # rollups

    def test_fresh_samples_untouched(self):
        clock = SimClock(0)
        store = self._filled_store(clock)
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        ds.sweep()
        recent = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", "")],
            days(59), days(61),
        )
        # Full 5-minute resolution in the fresh region: 12 per hour.
        assert len(recent[0][1]) == pytest.approx(24 * 12, abs=2)

    def test_rollup_envelopes_written(self):
        clock = SimClock(0)
        store = self._filled_store(clock)
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        ds.sweep()
        mins = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", "min")],
            0, days(61),
        )
        maxs = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", "max")],
            0, days(61),
        )
        assert mins and maxs
        _, _, min_vals = mins[0]
        _, _, max_vals = maxs[0]
        assert (min_vals <= max_vals).all()

    def test_second_sweep_idempotent_on_rolled_region(self):
        clock = SimClock(0)
        store = self._filled_store(clock)
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        ds.sweep()
        count_after_first = store.sample_count()
        saved_again = ds.sweep()
        # Nothing new aged between sweeps; the rolled region stays stable.
        assert store.sample_count() <= count_after_first

    def test_mean_preserved_per_bucket(self):
        clock = SimClock(0)
        store = TimeSeriesStore()
        # Two samples in one old bucket: mean must survive.
        store.ingest("m", {}, 10.0, minutes(10))
        store.ingest("m", {}, 30.0, minutes(20))
        clock.advance(days(40))
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        ds.sweep()
        results = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", "")],
            0, days(41),
        )
        assert results[0][2].tolist() == [20.0]

    # ------------------------------------------------------------------
    # Sweeps at any time: a bucket rolls once, from all its raw samples
    # ------------------------------------------------------------------
    @staticmethod
    def _rolled(store, kind):
        [(_, ts, vals)] = store.select(
            [label_matcher(METRIC_NAME_LABEL, "=", "m"),
             label_matcher("__rollup__", "=", kind)],
            0, days(100),
        )
        return dict(zip(ts.tolist(), vals.tolist()))

    def _assert_rollups_match_raw(self, store, raw, cutoff, bucket):
        by_bucket = {}
        for ts, value in raw.items():
            if ts < cutoff:
                by_bucket.setdefault(ts // bucket * bucket, []).append(value)
        means = self._rolled(store, "")
        assert {ts: v for ts, v in means.items() if ts >= cutoff} == {
            ts: v for ts, v in raw.items() if ts >= cutoff
        }
        assert {ts: v for ts, v in means.items() if ts < cutoff} == pytest.approx(
            {start: sum(vs) / len(vs) for start, vs in by_bucket.items()}, rel=1e-12
        )
        if by_bucket:
            assert self._rolled(store, "min") == {s: min(v) for s, v in by_bucket.items()}
            assert self._rolled(store, "max") == {s: max(v) for s, v in by_bucket.items()}

    def test_mid_bucket_cutoffs_roll_whole_buckets(self):
        """Sweeps whose cutoffs fall mid-bucket used to roll part of a
        bucket, then average that mean with the rest of its raw samples
        and skip its min and max."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        raw = {}
        for t in range(0, days(40), minutes(10)):
            raw[t] = float(t // minutes(10) * 7919 % 1000)
            store.ingest("m", {"x": "1"}, raw[t], t)
        ds = Downsampler(
            store, clock,
            DownsamplePolicy(downsample_after_ns=days(30), bucket_ns=hours(1)),
        )
        clock.advance_to(days(35) + minutes(30))
        ds.sweep()
        clock.advance_to(days(36) + minutes(50))
        ds.sweep()
        self._assert_rollups_match_raw(store, raw, days(6), hours(1))

    @given(
        step_min=st.sampled_from([1, 7, 10, 25, 60]),
        sweep_offsets=st.lists(st.integers(0, days(2)), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_sweep_times_match_a_raw_recomputation(self, step_min, sweep_offsets):
        policy = DownsamplePolicy(downsample_after_ns=days(1), bucket_ns=hours(1))
        clock = SimClock(0)
        store = TimeSeriesStore()
        ds = Downsampler(store, clock, policy)
        raw = {}
        t = 0
        for offset in sorted(sweep_offsets):
            clock.advance_to(days(1) + offset)
            while t <= clock.now_ns:  # samples arrive as time passes
                raw[t] = float(t // minutes(step_min) * 7919 % 1000)
                store.ingest("m", {"x": "1"}, raw[t], t)
                t += minutes(step_min)
            ds.sweep()
        cutoff = (clock.now_ns - days(1)) // hours(1) * hours(1)
        self._assert_rollups_match_raw(store, raw, cutoff, hours(1))

    def test_an_hourly_sweep_copies_only_the_hour_that_aged(self):
        """Ten days of hourly sweeps past the 30-day mark: each reads the
        three series' last aged hour (12 samples each), however much
        rolled history lies behind it.  A sweep that read every aged
        sample — rolled means and rollups included — grew by nine
        samples an hour."""
        clock = SimClock(0)
        store = TimeSeriesStore()
        ds = Downsampler(store, clock)
        copied = []
        select = store.select

        def counting(*args):
            got = select(*args)
            copied[-1] += sum(len(ts) for _labels, ts, _values in got)
            return got

        store.select = counting
        t = 0
        for hour in range(24 * 30, 24 * 40):
            clock.advance_to(hours(hour + 1))
            while t < clock.now_ns:
                for x in "abc":
                    store.ingest("m", {"x": x}, float(t % 1000), t)
                t += minutes(5)
            copied.append(0)
            ds.sweep()
        assert copied[0] == 3 * 12
        assert set(copied[1:]) == {3 * 12}


def _event(key, node, severity, t):
    return SnEvent(
        source="am", node=node, metric_name="M", severity=severity,
        message_key=key, description="d", time_ns=t,
    )


class TestReports:
    @pytest.fixture
    def platform(self):
        clock = SimClock(0)
        cmdb = CMDB()
        cmdb.add("perlmutter", "cmdb_ci_service")
        cmdb.add("x1c0r0b0", "cmdb_ci_netgear", parent="perlmutter")
        cmdb.add("x1c0s0b0n0", "cmdb_ci_computer", parent="perlmutter")
        platform = ServiceNowPlatform(clock, cmdb=cmdb)
        # Critical incident on the switch, resolved after 30 minutes.
        platform.process_event(_event("k1", "x1c0r0b0", SnSeverity.CRITICAL, 0))
        clock.advance(minutes(30))
        platform.incidents()[0].resolve(clock.now_ns)
        # Minor incident on the node, unresolved.
        platform.process_event(
            _event("k2", "x1c0s0b0n0", SnSeverity.MINOR, clock.now_ns)
        )
        # Flapping alert: open/clear three times.
        for i in range(3):
            t = clock.now_ns + i
            platform.process_event(_event("k3", "x1c0r0b0", SnSeverity.WARNING, t))
            platform.process_event(_event("k3", "x1c0r0b0", SnSeverity.CLEAR, t))
        return platform

    def test_mttr_by_priority(self, platform):
        rows = {r.priority: r for r in mttr_by_priority(platform)}
        assert rows[Priority.CRITICAL].resolved == 1
        assert rows[Priority.CRITICAL].mttr_seconds == pytest.approx(1800.0)
        assert rows[Priority.MODERATE].resolved == 0
        assert rows[Priority.MODERATE].mttr_seconds is None

    def test_volume_by_ci_class(self, platform):
        by_class = incident_volume_by_ci_class(platform)
        assert by_class == {"cmdb_ci_computer": 1, "cmdb_ci_netgear": 1}

    def test_flapping_alerts(self, platform):
        flappers = flapping_alerts(platform, min_reopens=2)
        assert len(flappers) == 1

    def test_operations_summary_renders(self, platform):
        text = operations_summary(platform)
        assert "Operations summary" in text
        assert "P1" in text
        assert "flapping alerts" in text
        assert "open incidents: 1" in text
