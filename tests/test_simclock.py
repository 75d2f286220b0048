"""Tests for the simulated clock."""

import pytest

from repro.common.simclock import (
    NANOS_PER_SECOND,
    PAPER_EPOCH_NS,
    SimClock,
    days,
    hours,
    minutes,
    seconds,
)


class TestConversions:
    def test_seconds(self):
        assert seconds(1) == NANOS_PER_SECOND
        assert seconds(0.5) == NANOS_PER_SECOND // 2

    def test_minutes(self):
        assert minutes(1) == 60 * NANOS_PER_SECOND

    def test_hours(self):
        assert hours(2) == 7200 * NANOS_PER_SECOND

    def test_days(self):
        assert days(1) == 24 * hours(1)


class TestClockBasics:
    def test_starts_at_paper_epoch(self):
        assert SimClock().now_ns == PAPER_EPOCH_NS

    def test_custom_start(self):
        assert SimClock(42).now_ns == 42

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_advance_moves_time(self):
        clock = SimClock(0)
        clock.advance(seconds(5))
        assert clock.now_ns == seconds(5)

    def test_advance_backwards_rejected(self):
        clock = SimClock(100)
        with pytest.raises(ValueError):
            clock.advance_to(50)

    def test_now_seconds(self):
        clock = SimClock(0)
        clock.advance(seconds(2))
        assert clock.now_seconds == pytest.approx(2.0)


class TestScheduling:
    def test_callback_runs_at_due_time(self):
        clock = SimClock(0)
        seen = []
        clock.call_at(seconds(10), lambda: seen.append(clock.now_ns))
        clock.advance(seconds(9))
        assert seen == []
        clock.advance(seconds(1))
        assert seen == [seconds(10)]

    def test_call_later(self):
        clock = SimClock(0)
        seen = []
        clock.call_later(seconds(3), lambda: seen.append(True))
        clock.advance(seconds(3))
        assert seen == [True]

    def test_scheduling_in_past_rejected(self):
        clock = SimClock(seconds(100))
        with pytest.raises(ValueError):
            clock.call_at(seconds(50), lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock(0).call_later(-1, lambda: None)

    def test_cancellation(self):
        clock = SimClock(0)
        seen = []
        timer = clock.call_later(seconds(1), lambda: seen.append(True))
        timer.cancel()
        clock.advance(seconds(2))
        assert seen == []
        assert timer.cancelled

    def test_fifo_among_equal_timestamps(self):
        clock = SimClock(0)
        seen = []
        clock.call_at(seconds(1), lambda: seen.append("a"))
        clock.call_at(seconds(1), lambda: seen.append("b"))
        clock.advance(seconds(1))
        assert seen == ["a", "b"]

    def test_callback_observes_scheduled_time(self):
        clock = SimClock(0)
        observed = []
        clock.call_at(seconds(5), lambda: observed.append(clock.now_ns))
        clock.advance(seconds(100))
        assert observed == [seconds(5)]

    def test_nested_scheduling_within_window(self):
        clock = SimClock(0)
        seen = []

        def outer():
            clock.call_later(seconds(1), lambda: seen.append("inner"))

        clock.call_at(seconds(1), outer)
        clock.advance(seconds(5))
        assert seen == ["inner"]

    def test_pending_count(self):
        clock = SimClock(0)
        t1 = clock.call_later(seconds(1), lambda: None)
        clock.call_later(seconds(2), lambda: None)
        assert clock.pending() == 2
        t1.cancel()
        assert clock.pending() == 1


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        clock = SimClock(0)
        seen = []
        clock.every(seconds(10), lambda: seen.append(clock.now_ns))
        clock.advance(seconds(35))
        assert seen == [seconds(10), seconds(20), seconds(30)]

    def test_every_cancel_stops_chain(self):
        clock = SimClock(0)
        seen = []
        timer = clock.every(seconds(10), lambda: seen.append(True))
        clock.advance(seconds(25))
        timer.cancel()
        clock.advance(seconds(100))
        assert len(seen) == 2

    def test_every_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SimClock(0).every(0, lambda: None)

    def test_two_periodics_interleave(self):
        clock = SimClock(0)
        seen = []
        clock.every(seconds(2), lambda: seen.append("fast"))
        clock.every(seconds(3), lambda: seen.append("slow"))
        clock.advance(seconds(6))
        # Ties at t=6 resolve by reschedule order: slow re-armed at t=3,
        # fast at t=4, so slow runs first.
        assert seen == ["fast", "slow", "fast", "slow", "fast"]

    def test_a_run_that_raises_does_not_end_the_chain(self):
        clock = SimClock(0)
        runs = []

        def job():
            runs.append(clock.now_ns)
            if len(runs) == 1:
                raise RuntimeError("first run fails")

        clock.every(seconds(10), job)
        with pytest.raises(RuntimeError):
            clock.advance(seconds(15))
        assert clock.pending() == 1  # re-armed although the run raised
        clock.advance(seconds(60))
        assert len(runs) == 7

    def test_a_run_that_cancels_itself_and_raises_stays_cancelled(self):
        clock = SimClock(0)
        runs = []
        timer = None

        def job():
            runs.append(clock.now_ns)
            timer.cancel()
            raise RuntimeError("last run")

        timer = clock.every(seconds(10), job)
        with pytest.raises(RuntimeError):
            clock.advance(seconds(15))
        clock.advance(seconds(60))
        assert runs == [seconds(10)] and clock.pending() == 0
