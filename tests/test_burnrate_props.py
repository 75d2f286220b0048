"""Property-based tests for the burn-rate math (Hypothesis).

The multi-window multi-burn-rate semantics are the part of the SLO
plane where an off-by-one or a mis-ordered comparison silently turns
into missed pages or 3am noise, so the invariants are checked over
generated traffic rather than a handful of examples:

- error fractions are always a valid fraction;
- the multi-window rule is exactly the conjunction of its windows;
- traffic that stays within budget can never page, no matter how it is
  shaped (the noise-soak guarantee);
- only events inside the window matter (pruning invariance);
- a steady burn fires within the analytic detection-latency bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simclock import hours, seconds
from repro.slo import (
    DEFAULT_BURN_WINDOWS,
    budget_rate,
    burn_rate,
    detection_latency_bound_ns,
    max_within_budget_burn,
    multiwindow_fires,
    time_to_exceed_ns,
    windowed_burn,
    windowed_error_fraction,
)

objectives = st.floats(min_value=0.9, max_value=0.9999)

# (offset_s, good, bad) increments over a two-hour span.
event_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7200),
        st.floats(min_value=0.0, max_value=10_000.0),
        st.floats(min_value=0.0, max_value=10_000.0),
    ),
    min_size=0,
    max_size=60,
)


def to_events(batches):
    return sorted((seconds(off), good, bad) for off, good, bad in batches)


class TestFractionInvariants:
    @given(batches=event_batches, window_s=st.integers(60, 7200))
    def test_fraction_is_a_fraction(self, batches, window_s):
        events = to_events(batches)
        frac = windowed_error_fraction(events, hours(2), seconds(window_s))
        assert 0.0 <= frac <= 1.0

    @given(batches=event_batches, objective=objectives)
    def test_burn_is_fraction_over_budget_rate(self, batches, objective):
        events = to_events(batches)
        frac = windowed_error_fraction(events, hours(2), hours(1))
        burn = windowed_burn(events, hours(2), hours(1), objective)
        assert burn == frac / budget_rate(objective)
        assert burn <= 1.0 / budget_rate(objective)

    @given(objective=objectives, frac=st.floats(0.0, 1.0))
    def test_burn_rate_is_linear(self, objective, frac):
        assert burn_rate(frac, objective) == frac / (1.0 - objective)


class TestMultiWindowSemantics:
    @given(
        batches=event_batches,
        objective=objectives,
        window=st.sampled_from(DEFAULT_BURN_WINDOWS),
    )
    def test_fires_iff_both_windows_exceed(self, batches, objective, window):
        events = to_events(batches)
        t = hours(2)
        short_burn = windowed_burn(events, t, window.short_ns, objective)
        long_burn = windowed_burn(events, t, window.long_ns, objective)
        fires = multiwindow_fires(events, t, window, objective)
        assert fires == (
            short_burn > window.factor and long_burn > window.factor
        )

    @given(batches=event_batches, objective=objectives)
    def test_within_budget_noise_never_pages(self, batches, objective):
        """The noise-soak guarantee: traffic whose every increment stays
        within the error budget cannot trip any page tier, regardless of
        burstiness — each window's fraction is a weighted average of
        increment fractions, so burn <= 1 < the smallest page factor."""
        rate = budget_rate(objective)
        events = []
        for off, good, bad in batches:
            total = good + bad
            if total <= 0:
                continue
            # Clamp the bad share to the budget rate.
            bad = min(bad, rate * total)
            events.append((seconds(off), total - bad, bad))
        events.sort()
        floor = max_within_budget_burn(DEFAULT_BURN_WINDOWS)
        assert floor > 1.0
        for window in DEFAULT_BURN_WINDOWS:
            if not window.is_page:
                continue
            for t_s in range(0, 7201, 600):
                assert not multiwindow_fires(
                    events, seconds(t_s), window, objective
                )

    @given(
        batches=event_batches,
        objective=objectives,
        window=st.sampled_from(DEFAULT_BURN_WINDOWS),
    )
    def test_only_in_window_events_matter(self, batches, objective, window):
        """Pruning invariance: dropping events older than the long
        window never changes the verdict."""
        events = to_events(batches)
        t = hours(2)
        pruned = [e for e in events if e[0] > t - window.long_ns]
        assert multiwindow_fires(
            events, t, window, objective
        ) == multiwindow_fires(pruned, t, window, objective)


class TestDetectionLatency:
    @given(
        objective=st.floats(min_value=0.995, max_value=0.9995),
        error_rate=st.floats(min_value=0.5, max_value=1.0),
        eval_interval_s=st.sampled_from([1, 5, 15, 30]),
    )
    @settings(max_examples=25, deadline=None)
    def test_steady_burn_fires_within_bound(
        self, objective, error_rate, eval_interval_s
    ):
        """Simulate the fastest page tier against a steady burn on a
        discrete evaluator; the first firing evaluation must land within
        the analytic bound (and far inside the short window)."""
        window = DEFAULT_BURN_WINDOWS[0]  # 5m/1h @ 14.4x
        interval = seconds(eval_interval_s)
        bound = detection_latency_bound_ns(
            window, objective, interval, error_rate
        )
        assert bound is not None
        # The "pages faster than the short window" guarantee holds when
        # the long-window crossing fits inside the short window, i.e.
        # long * factor * budget_rate / error_rate <= short.
        long_crossing = (
            window.long_ns * window.factor * budget_rate(objective)
            / error_rate
        )
        if long_crossing <= window.short_ns - interval:
            assert bound <= window.short_ns + interval

        # One batch of 100 events per eval interval: clean for the full
        # long window, then erroring at error_rate.
        events = []
        t = 0
        while t < window.long_ns:
            events.append((t, 100.0, 0.0))
            t += interval
        burn_start = t
        fired_at = None
        while t <= burn_start + 2 * bound:
            bad = 100.0 * error_rate
            events.append((t, 100.0 - bad, bad))
            if multiwindow_fires(events, t, window, objective):
                fired_at = t
                break
            t += interval
        assert fired_at is not None
        assert fired_at - burn_start <= bound

    @given(
        objective=objectives,
        error_rate=st.floats(min_value=1e-4, max_value=1.0),
        factor=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_time_to_exceed_none_iff_saturates_below(
        self, objective, error_rate, factor
    ):
        t = time_to_exceed_ns(hours(1), factor, objective, error_rate)
        steady_burn = error_rate / budget_rate(objective)
        if steady_burn <= factor:
            assert t is None
        else:
            assert t is not None
            # Crossing must happen strictly inside the window.
            assert 0 < t <= hours(1) + 1
