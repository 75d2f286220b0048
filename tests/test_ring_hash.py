"""Consistent-hash ring: determinism and bounded movement.

The whole point of consistent hashing over modulo sharding is that a
membership change re-homes only the keys adjacent to the tokens that
appeared or vanished.  The property-based tests pin that down exactly:
a join moves keys *only onto the joiner*, a leave moves keys *only off
the leaver*, and the moved fraction stays near ``1/n``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StateError, ValidationError
from repro.common.hashing import fnv1a_64
from repro.common.labels import LabelSet
from repro.ring.hashring import HashRing, stream_key
from repro.tenancy.sharding import ShuffleSharder


def build_ring(members, vnodes=64):
    ring = HashRing(vnodes=vnodes)
    for member in members:
        ring.join(member)
    return ring


KEYS = [f"app=svc-{i};host=n{i % 97}" for i in range(400)]

member_lists = st.lists(
    st.sampled_from([f"ingester-{i}" for i in range(12)]),
    min_size=2,
    max_size=8,
    unique=True,
)


class TestBasics:
    def test_needs_positive_vnodes(self):
        with pytest.raises(ValidationError):
            HashRing(vnodes=0)

    def test_join_twice_rejected(self):
        ring = build_ring(["a"])
        with pytest.raises(StateError):
            ring.join("a")

    def test_leave_unknown_rejected(self):
        with pytest.raises(StateError):
            build_ring(["a"]).leave("b")

    def test_preference_list_needs_enough_members(self):
        ring = build_ring(["a", "b"])
        with pytest.raises(StateError):
            ring.preference_list("k", 3)

    def test_preference_list_distinct_members(self):
        ring = build_ring(["a", "b", "c", "d"])
        for key in KEYS[:50]:
            replicas = ring.preference_list(key, 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_fnv_is_stable(self):
        # Pinned value: placement must not drift across runs/versions.
        assert fnv1a_64(b"ingester-0#0") == 0x5467A577F6205208

    def test_stream_key_is_canonical(self):
        assert stream_key({"b": "2", "a": "1"}) == stream_key({"a": "1", "b": "2"})
        assert stream_key({"a": "1", "b": "2"}) == "a=1;b=2"


class TestDeterminism:
    @given(member_lists)
    @settings(max_examples=40, deadline=None)
    def test_placement_independent_of_join_order(self, members):
        forward = build_ring(members)
        backward = build_ring(list(reversed(members)))
        rf = min(3, len(members))
        assert forward.placement(KEYS, rf) == backward.placement(KEYS, rf)

    def test_two_identical_rings_agree(self):
        a = build_ring(["x", "y", "z"])
        b = build_ring(["x", "y", "z"])
        assert a.placement(KEYS, 2) == b.placement(KEYS, 2)


class TestBoundedMovement:
    @given(member_lists)
    @settings(max_examples=40, deadline=None)
    def test_join_moves_keys_only_onto_the_joiner(self, members):
        ring = build_ring(members)
        before = {key: ring.owner(key) for key in KEYS}
        ring.join("newcomer")
        moved = 0
        for key in KEYS:
            after = ring.owner(key)
            if after != before[key]:
                # A key may move only TO the new member, never between
                # incumbents — the consistent-hashing contract.
                assert after == "newcomer"
                moved += 1
        expected = len(KEYS) / (len(members) + 1)
        # vnode variance bounds the overshoot well under 3x expectation.
        assert moved <= 3 * expected + 5

    @given(member_lists)
    @settings(max_examples=40, deadline=None)
    def test_leave_moves_only_the_leavers_keys(self, members):
        ring = build_ring(members)
        leaver = members[0]
        before = {key: ring.owner(key) for key in KEYS}
        ring.leave(leaver)
        for key in KEYS:
            if before[key] != leaver:
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) != leaver

    @given(member_lists)
    @settings(max_examples=40, deadline=None)
    def test_join_then_leave_roundtrips(self, members):
        ring = build_ring(members)
        rf = min(3, len(members))
        before = ring.placement(KEYS, rf)
        ring.join("transient")
        ring.leave("transient")
        assert ring.placement(KEYS, rf) == before


MEMBER_POOL = [f"ingester-{i}" for i in range(8)]
ZONE_POOL = ["zone-a", "zone-b", "zone-c"]
STREAMS = [LabelSet({"app": f"svc-{i}", "host": f"n{i % 5}"}) for i in range(12)]
TENANTS = ["alpha", "beta", "gamma"]

ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.sampled_from(MEMBER_POOL)),
        st.tuples(st.just("leave"), st.sampled_from(MEMBER_POOL)),
        st.tuples(
            st.just("set_zone"),
            st.sampled_from(MEMBER_POOL),
            st.sampled_from(ZONE_POOL),
        ),
        st.tuples(
            st.just("exclude"),
            st.frozensets(st.sampled_from(MEMBER_POOL), max_size=3),
        ),
    ),
    min_size=1,
    max_size=14,
)


def uncached_copy(ring):
    """A ring with the same members and zones that has answered nothing."""
    fresh = build_ring(ring.members(), vnodes=ring.vnodes)
    for member in ring.members():
        if ring.zone(member) is not None:
            fresh.set_zone(member, ring.zone(member))
    return fresh


def answer(ring, key, n, zone_spread, exclude):
    try:
        return ring.preference_list(key, n, zone_spread=zone_spread, exclude=exclude)
    except StateError:
        return "too few members"


class TestPlacementMemo:
    """The memo may never be observable: a ring that has answered before
    must answer exactly as one that never has."""

    @given(ring_ops)
    @settings(max_examples=60, deadline=None)
    def test_memoised_ring_equals_fresh_ring_under_membership_churn(self, ops):
        ring = build_ring(MEMBER_POOL[:4])
        sharder = ShuffleSharder(ring, 3)
        exclude = frozenset()
        for op in [("exclude", frozenset()), *ops]:
            if op[0] == "join" and op[1] not in ring.members():
                ring.join(op[1])
            elif op[0] == "leave" and op[1] in ring.members() and len(ring) > 1:
                ring.leave(op[1])
            elif op[0] == "set_zone" and op[1] in ring.members():
                ring.set_zone(op[1], op[2])
            elif op[0] == "exclude":
                exclude = op[1]
            # Ask everything twice on the long-lived ring (the second
            # answer is the memo's) and once on a ring with no history.
            fresh = uncached_copy(ring)
            fresh_sharder = ShuffleSharder(fresh, 3)
            for zone_spread in (False, True):
                for labels in STREAMS:
                    key = stream_key(labels)
                    want = answer(fresh, key, 3, zone_spread, exclude)
                    want_all = answer(fresh, key, 3, zone_spread, ())
                    for _ in range(2):
                        assert answer(ring, labels, 3, zone_spread, exclude) == want
                        assert answer(ring, labels, 3, zone_spread, ()) == want_all
            for tenant in TENANTS:
                assert sharder.shard(tenant) == fresh_sharder.shard(tenant)
                subring = sharder.subring(tenant)
                fresh_subring = fresh_sharder.subring(tenant)
                for labels in STREAMS[:4]:
                    assert answer(subring, labels, 2, True, exclude) == answer(
                        fresh_subring, labels, 2, True, exclude
                    )

    def test_returned_lists_are_copies(self):
        ring = build_ring(MEMBER_POOL[:5])
        first = ring.preference_list(STREAMS[0], 3)
        want = list(first)
        first.clear()
        first.append("poison")
        assert ring.preference_list(STREAMS[0], 3) == want
        excluded = ring.preference_list(STREAMS[0], 3, exclude={want[0]})
        excluded.reverse()
        again = ring.preference_list(STREAMS[0], 3, exclude={want[0]})
        assert again == list(reversed(excluded)) and want[0] not in again

    def test_version_moves_exactly_with_membership_and_zones(self):
        ring = build_ring(["a", "b", "c"])
        seen = ring.version
        ring.preference_list("k", 2, exclude={"a"})
        ring.members(), ring.zones(), ring.zone("a")
        assert ring.version == seen
        for change in (
            lambda: ring.join("d"),
            lambda: ring.set_zone("d", "zone-a"),
            lambda: ring.leave("a"),
        ):
            change()
            assert ring.version > seen
            seen = ring.version

    def test_labelset_and_stream_key_place_identically(self):
        ring = build_ring(MEMBER_POOL)
        for labels in STREAMS:
            assert ring.preference_list(labels, 3) == ring.preference_list(
                stream_key(labels), 3
            )
            assert labels.fingerprint() == LabelSet(dict(labels)).fingerprint()

    def test_memo_is_dropped_when_the_epoch_moves(self):
        ring = build_ring(MEMBER_POOL[:5])
        for labels in STREAMS:
            ring.preference_list(labels, 3)
            ring.preference_list(labels, 3, exclude={"ingester-0"})
        assert len(ring._memo) == len(ring._memo_excluding) == len(STREAMS)
        # A different exclusion set replaces the old one's walks and
        # leaves the walks that exclude nobody alone...
        ring.preference_list(STREAMS[0], 3, exclude={"ingester-1"})
        assert len(ring._memo_excluding) == 1
        assert len(ring._memo) == len(STREAMS)
        # ...and a membership change drops everything.
        ring.join("ingester-7")
        assert not ring._memo and not ring._memo_excluding
