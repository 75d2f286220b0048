"""Property tests for the deterministic backoff policy."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.common.hashing import unit_interval
from repro.common.simclock import minutes, seconds
from repro.resilience.backoff import BackoffPolicy

#: Reasonable policy parameter space for the property tests.
policies = st.builds(
    BackoffPolicy,
    base_ns=st.integers(min_value=1, max_value=minutes(1)),
    cap_ns=st.integers(min_value=minutes(1), max_value=minutes(60)),
    multiplier=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    jitter=st.just(0.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
).map(
    # jitter must satisfy jitter <= multiplier - 1; derive it from the
    # drawn multiplier rather than filtering most of the space away.
    lambda p: BackoffPolicy(
        base_ns=p.base_ns,
        cap_ns=p.cap_ns,
        multiplier=p.multiplier,
        jitter=(p.multiplier - 1.0) / 2.0,
        seed=p.seed,
    )
)


class TestValidation:
    def test_base_must_be_positive(self):
        with pytest.raises(ValidationError):
            BackoffPolicy(base_ns=0, cap_ns=seconds(1))

    def test_cap_must_cover_base(self):
        with pytest.raises(ValidationError):
            BackoffPolicy(base_ns=seconds(2), cap_ns=seconds(1))

    def test_multiplier_at_least_one(self):
        with pytest.raises(ValidationError):
            BackoffPolicy(base_ns=1, cap_ns=2, multiplier=0.5)

    def test_jitter_bounded_by_multiplier(self):
        # jitter > multiplier - 1 could reorder consecutive delays.
        with pytest.raises(ValidationError):
            BackoffPolicy(base_ns=1, cap_ns=2, multiplier=2.0, jitter=1.5)

    def test_attempt_must_be_non_negative(self):
        policy = BackoffPolicy(base_ns=seconds(1), cap_ns=seconds(10))
        with pytest.raises(ValidationError):
            policy.delay_ns(-1)


class TestSchedule:
    def test_known_schedule_no_jitter(self):
        policy = BackoffPolicy(
            base_ns=seconds(30), cap_ns=minutes(10), jitter=0.0
        )
        assert policy.schedule(6) == [
            seconds(30),
            minutes(1),
            minutes(2),
            minutes(4),
            minutes(8),
            minutes(10),  # capped
        ]

    def test_jitter_changes_with_seed(self):
        a = BackoffPolicy(base_ns=seconds(30), cap_ns=minutes(10), seed=1)
        b = BackoffPolicy(base_ns=seconds(30), cap_ns=minutes(10), seed=2)
        assert a.schedule(8) != b.schedule(8)


class TestProperties:
    @given(policies, st.integers(min_value=0, max_value=64))
    def test_deterministic_under_fixed_seed(self, policy, attempt):
        assert policy.delay_ns(attempt) == policy.delay_ns(attempt)

    @given(policies, st.integers(min_value=0, max_value=64))
    def test_monotone_non_decreasing(self, policy, attempt):
        assert policy.delay_ns(attempt) <= policy.delay_ns(attempt + 1)

    @given(policies, st.integers(min_value=0, max_value=256))
    def test_never_exceeds_cap(self, policy, attempt):
        assert policy.delay_ns(attempt) <= policy.cap_ns

    @given(policies, st.integers(min_value=0, max_value=64))
    def test_at_least_base(self, policy, attempt):
        assert policy.delay_ns(attempt) >= min(policy.base_ns, policy.cap_ns)


@pytest.mark.parametrize(
    "seed, n, value",
    [
        (0, 0, 0.30610597695091735),
        (0, 1, 0.30610591734627257),
        (7, 3, 0.20709086024643542),
        ("ingester-2", 41, 0.783199364425298),
        ("x", -5, 0.122440894019899),
    ],
)
def test_unit_interval_values_are_pinned(seed, n, value):
    """Every jittered schedule and heartbeat replays from these bits."""
    assert unit_interval(seed, n) == value
