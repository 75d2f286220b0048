"""Shuffle sharding: each tenant gets a stable subring of ingesters.

Loki/Cortex shuffle-shard tenants onto a small, deterministic subset of
the ingester fleet so a bad tenant (or a dead ingester) only touches the
tenants sharing its shard, not the whole cluster.  We derive the shard
with the ring's own clockwise walk: the tenant id hashes onto the token
circle and the shard is the first ``shard_size`` distinct members
clockwise.  That inherits the consistent-hash movement guarantees the
property tests in ``tests/test_tenancy_sharding.py`` pin down:

* adding tenants never moves any other tenant's shard (placement is a
  pure function of the tenant id and the member set);
* adding an ingester changes a tenant's shard by at most one member;
* removing an ingester leaves every shard that did not contain it
  untouched, and replaces exactly that one member in shards that did.

On a zoned ring the walk is the ring's zone-aware one — first one member
per zone, then the closest of the rest — so a shard spans
``min(shard_size, zones)`` zones and no single-zone outage can take a
tenant below write quorum.  All three properties still hold for the
shard as a *set*; its order is zone-first, so a membership change may
reorder the survivors (placement never reads the order, see below).

Within its shard the tenant's streams place on a *subring* holding only
the shard members, so replica choice stays consistent-hash stable too.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.ring.hashring import HashRing

#: Ring-key namespace for tenants, so a tenant id can never collide with
#: a stream key on the same circle.
_TENANT_KEY_PREFIX = "tenant/"


def shard_key(tenant: str) -> str:
    """Canonical ring key for a tenant's shard placement."""
    return _TENANT_KEY_PREFIX + tenant


class ShuffleSharder:
    """Deterministic tenant → subring mapping over a live ring.

    ``shard_size == 0`` disables sharding: every tenant sees the whole
    ring (Loki's default).  Subrings are cached per (tenant, ring
    version) so repeated pushes don't rebuild token tables; any
    join/leave/relabel on the underlying ring bumps the version, misses
    the cache and recomputes — shard members and their zones alike.
    """

    def __init__(self, ring: HashRing, shard_size: int = 0) -> None:
        if shard_size < 0:
            raise ValidationError("shard size must be >= 0 (0 = disabled)")
        self.ring = ring
        self.shard_size = shard_size
        self._subrings: dict[str, tuple[int, HashRing]] = {}

    @property
    def enabled(self) -> bool:
        return self.shard_size > 0

    def shard(self, tenant: str) -> tuple[str, ...]:
        """The tenant's ingester shard, in clockwise (preference) order.

        A ring smaller than the shard size yields every member — the
        shard can never manufacture capacity that does not exist.
        """
        if not tenant:
            raise ValidationError("tenant id must be non-empty")
        members = self.ring.members()
        if not self.enabled:
            return tuple(members)
        # Clamp instead of falling back to the sorted member list: even
        # when the shard spans the whole ring, the tenant's preference
        # *order* must stay the clockwise walk, so shrinking the fleet
        # to (or below) the shard size never reorders survivors.
        size = min(self.shard_size, len(members))
        # Unzoned rings (no spread) walk exactly as they always have.
        return tuple(
            self.ring.preference_list(
                shard_key(tenant), size, zone_spread=bool(self.ring.zones())
            )
        )

    def subring(self, tenant: str) -> HashRing:
        """A ring over just the tenant's shard, for stream placement."""
        cached = self._subrings.get(tenant)
        if cached is not None and cached[0] == self.ring.version:
            return cached[1]
        subring = HashRing(vnodes=self.ring.vnodes)
        for member in self.shard(tenant):
            subring.join(member)
            # Zone labels carry into the subring so zone-aware placement
            # spreads a tenant's replicas exactly like unsharded streams.
            zone = self.ring.zone(member)
            if zone is not None:
                subring.set_zone(member, zone)
        self._subrings[tenant] = (self.ring.version, subring)
        return subring
