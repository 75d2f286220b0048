"""Shuffle sharding: property-based guarantees of shard stability.

Shuffle sharding only contains blast radius if shards are *stable*: a
tenant's shard must be a pure function of its id and the member set,
unmoved by other tenants arriving, and bounded in how much it can change
when the fleet itself changes.  These properties are exactly what the
ring's clockwise walk provides, and the hypothesis tests here pin them
down over arbitrary fleets and tenant populations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.ring.hashring import HashRing
from repro.tenancy.sharding import ShuffleSharder, shard_key
from tests.tracing import off_tracer


def build_ring(members, vnodes=64):
    ring = HashRing(vnodes=vnodes)
    for member in members:
        ring.join(member)
    return ring


member_lists = st.lists(
    st.sampled_from([f"ingester-{i}" for i in range(12)]),
    min_size=4,
    max_size=10,
    unique=True,
)

tenant_lists = st.lists(
    st.sampled_from([f"tenant-{i}" for i in range(30)]),
    min_size=1,
    max_size=12,
    unique=True,
)

shard_sizes = st.integers(min_value=1, max_value=4)


class TestBasics:
    def test_zero_shard_size_disables(self):
        sharder = ShuffleSharder(build_ring(["a", "b", "c"]), 0)
        assert not sharder.enabled
        assert sharder.shard("anyone") == ("a", "b", "c")

    def test_negative_shard_size_rejected(self):
        with pytest.raises(ValidationError):
            ShuffleSharder(build_ring(["a"]), -1)

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValidationError):
            ShuffleSharder(build_ring(["a"]), 1).shard("")

    def test_shard_key_is_namespaced(self):
        assert shard_key("t") == "tenant/t"

    def test_subring_only_places_on_shard(self):
        ring = build_ring([f"ingester-{i}" for i in range(8)])
        sharder = ShuffleSharder(ring, 3)
        shard = set(sharder.shard("alpha"))
        subring = sharder.subring("alpha")
        for i in range(50):
            assert set(subring.preference_list(f"app=svc-{i}", 2)) <= shard

    def test_subring_cache_survives_many_tenants(self):
        ring = build_ring([f"ingester-{i}" for i in range(8)])
        sharder = ShuffleSharder(ring, 3)
        first = {t: sharder.subring(t) for t in ("a", "b", "c")}
        # Interleaved lookups reuse each tenant's cached subring object.
        for t, subring in first.items():
            assert sharder.subring(t) is subring

    def test_subring_follows_a_zone_relabel(self):
        # The shard is unmoved by a relabel, but the cached subring
        # carries zone labels: it must not keep serving the old ones.
        ring = build_ring([f"ingester-{i}" for i in range(6)])
        sharder = ShuffleSharder(ring, 3)
        member = sharder.shard("alpha")[0]
        assert sharder.subring("alpha").zone(member) is None
        ring.set_zone(member, "zone-x")
        assert sharder.subring("alpha").zone(member) == "zone-x"


class TestSizeInvariants:
    @given(member_lists, tenant_lists, shard_sizes)
    @settings(max_examples=40, deadline=None)
    def test_shard_size_and_membership(self, members, tenants, size):
        sharder = ShuffleSharder(build_ring(members), size)
        for tenant in tenants:
            shard = sharder.shard(tenant)
            assert len(shard) == min(size, len(members))
            assert len(set(shard)) == len(shard)  # all distinct
            assert set(shard) <= set(members)


class TestStabilityUnderTenantGrowth:
    @given(member_lists, tenant_lists, shard_sizes)
    @settings(max_examples=40, deadline=None)
    def test_other_tenants_never_move_a_shard(self, members, tenants, size):
        """Placement is a pure function of (tenant, member set): computing
        shards for any number of other tenants — in any order, on any
        sharder instance — never changes an existing tenant's shard."""
        ring = build_ring(members)
        sharder = ShuffleSharder(ring, size)
        before = {t: sharder.shard(t) for t in tenants}
        # A fresh population of tenants arrives.
        for i in range(40):
            sharder.shard(f"newcomer-{i}")
        assert {t: sharder.shard(t) for t in tenants} == before
        # And an independent sharder over the same ring agrees exactly.
        fresh = ShuffleSharder(build_ring(members), size)
        assert {t: fresh.shard(t) for t in tenants} == before


class TestBoundedReassignment:
    @given(member_lists, tenant_lists, shard_sizes)
    @settings(max_examples=40, deadline=None)
    def test_member_addition_changes_shard_by_at_most_one(
        self, members, tenants, size
    ):
        ring = build_ring(members)
        sharder = ShuffleSharder(ring, size)
        before = {t: sharder.shard(t) for t in tenants}
        ring.join("newcomer")
        for tenant in tenants:
            after = sharder.shard(tenant)
            gained = set(after) - set(before[tenant])
            lost = set(before[tenant]) - set(after)
            # Either nothing moved, or the newcomer displaced exactly one
            # incumbent (or filled spare capacity on a small ring).
            assert gained <= {"newcomer"}
            assert len(lost) <= 1

    @given(member_lists, tenant_lists, shard_sizes)
    @settings(max_examples=40, deadline=None)
    def test_member_removal_only_touches_its_own_shards(
        self, members, tenants, size
    ):
        ring = build_ring(members)
        sharder = ShuffleSharder(ring, size)
        before = {t: sharder.shard(t) for t in tenants}
        leaver = members[0]
        ring.leave(leaver)
        for tenant in tenants:
            after = sharder.shard(tenant)
            old = before[tenant]
            if leaver not in old:
                # Shards that never held the leaver are untouched.
                assert after == old
            else:
                # Survivors stay; exactly the leaver is replaced (when
                # the shrunken ring still has spare members to offer).
                assert set(old) - {leaver} <= set(after)
                newcomers = set(after) - set(old)
                expected_new = min(len(old), len(members) - 1) - (
                    len(old) - 1
                )
                assert len(newcomers) == expected_new

    @given(member_lists, shard_sizes)
    @settings(max_examples=40, deadline=None)
    def test_removal_keeps_survivor_order(self, members, size):
        """The clockwise walk preserves the relative preference order of
        surviving shard members when another member leaves."""
        ring = build_ring(members)
        sharder = ShuffleSharder(ring, size)
        before = sharder.shard("tenant-a")
        leaver = members[-1]
        ring.leave(leaver)
        after = sharder.shard("tenant-a")
        survivors_before = [m for m in before if m != leaver]
        survivors_after = [m for m in after if m in set(survivors_before)]
        assert survivors_after == survivors_before


# ----------------------------------------------------------------------
# Zoned rings: a shard must not keep two members in one zone
# ----------------------------------------------------------------------
def build_zoned_ring(members, zones):
    ring = build_ring(members)
    for i, member in enumerate(members):
        ring.set_zone(member, f"zone-{i % zones}")
    return ring


class TestZonedRing:
    @given(member_lists, tenant_lists, shard_sizes, st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_shard_spans_as_many_zones_as_it_can(
        self, members, tenants, size, zones
    ):
        ring = build_zoned_ring(members, zones)
        sharder = ShuffleSharder(ring, size)
        for tenant in tenants:
            shard = sharder.shard(tenant)
            assert len(shard) == size
            assert len({ring.zone(m) for m in shard}) == min(size, zones)

    @given(member_lists, tenant_lists, st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_movement_properties_hold_for_the_shard_as_a_set(
        self, members, tenants, zones
    ):
        ring = build_zoned_ring(members, zones)
        sharder = ShuffleSharder(ring, 3)
        before = {t: set(sharder.shard(t)) for t in tenants}
        ring.join("ingester-new")
        ring.set_zone("ingester-new", "zone-0")
        grown = {t: set(sharder.shard(t)) for t in tenants}
        assert all(len(grown[t] - before[t]) <= 1 for t in tenants)
        victim = members[0]
        ring.leave(victim)
        for tenant in tenants:
            shrunk = set(sharder.shard(tenant))
            if victim not in grown[tenant]:
                assert shrunk == grown[tenant]
            else:
                assert grown[tenant] - {victim} <= shrunk

    def test_unzoned_ring_places_exactly_as_the_plain_walk(self):
        ring = build_ring([f"ingester-{i}" for i in range(8)])
        sharder = ShuffleSharder(ring, 3)
        for i in range(20):
            tenant = f"tenant-{i}"
            assert list(sharder.shard(tenant)) == ring.preference_list(
                shard_key(tenant), 3
            )

    @pytest.mark.parametrize("zone", ["zone-0", "zone-1", "zone-2"])
    def test_every_tenant_survives_any_one_zone_outage_at_quorum(self, zone):
        from repro.loki.model import LogEntry
        from repro.ring.cluster import RingLokiCluster

        cluster = RingLokiCluster(
            ingesters=6, replication_factor=3, shard_size=3, zones=3,
            tracer=off_tracer(),
        )
        for member in cluster.ring.members_in_zone(zone):
            cluster.crash_ingester(member)
        # 1 of 3 replicas accepted -> QuorumError before the fix, for any
        # tenant whose shard happened to hold two members of the dark zone.
        for i in range(24):
            labels = {"tenant": f"tenant-{i}", "app": "probe"}
            assert cluster.push_stream(labels, [LogEntry(1 + i, "alive")]) == 1
