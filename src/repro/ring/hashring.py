"""The consistent-hash ring: deterministic stream → ingester placement.

Same mechanism as the Loki/Cortex distributor ring: every ingester owns
``vnodes`` tokens on a 64-bit circle, a stream key hashes to a point on
the circle, and the owning replicas are the next ``n`` *distinct*
ingesters clockwise.  Placement is a pure function of the member set and
the hash, so every distributor sharing the ring agrees without
coordination, and a join/leave only re-homes the keys adjacent to the
tokens that appeared/vanished — the bounded-movement property the
property-based test in ``tests/test_ring_hash.py`` pins down.

Because placement is pure, it is also memoised: the ring carries a
``version`` that every ``join``/``leave``/``set_zone`` bumps, and
``preference_list`` answers a repeated question from a memo that lives
exactly as long as the version and the exclusion set it was computed
under.  The write path, the tenant sharder and the anti-entropy repairer
all place through that one method, so all three pay the clockwise walk
once per (key, membership epoch) instead of once per push or per sweep.
"""

from __future__ import annotations

import bisect
from typing import Collection, Iterable, Mapping

from repro.common.errors import StateError, ValidationError
from repro.common.hashing import fnv1a_64, mix64
from repro.common.labels import LabelSet


def stream_key(labels: LabelSet | Mapping[str, str]) -> str:
    """Canonical ring key for a stream's label set."""
    labelset = labels if isinstance(labels, LabelSet) else LabelSet(labels)
    return labelset.stream_key()


class HashRing:
    """Token ring with virtual nodes and clockwise preference lists."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValidationError("need at least one vnode per member")
        self.vnodes = vnodes
        # Sorted token positions with their owning member, kept in lockstep.
        self._tokens: list[int] = []
        self._owners: list[str] = []
        self._members: set[str] = set()
        # Optional availability-zone labels (repro.selfheal): members in
        # distinct zones fail independently, so the zone-spread placement
        # mode keeps a stream's replicas across as many zones as it can.
        self._zones: dict[str, str] = {}
        #: Bumped by every join/leave/set_zone: two reads of the same
        #: version saw the same tokens and zones, so placement between
        #: them cannot have moved.
        self.version = 0
        # (key, n, zone_spread) -> replicas under the current version:
        # one memo for walks that exclude nobody, one for walks excluding
        # ``_memo_excluded``.  A version bump drops both and a new
        # exclusion set drops the second, so a key being placed holds at
        # most two walks per (n, zone_spread) asked of it.
        self._memo: dict[tuple, tuple[str, ...]] = {}
        self._memo_excluding: dict[tuple, tuple[str, ...]] = {}
        self._memo_excluded: frozenset[str] = frozenset()

    def _membership_changed(self) -> None:
        self.version += 1
        self._memo.clear()
        self._memo_excluding.clear()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[str]:
        return sorted(self._members)

    def _member_tokens(self, member: str) -> list[int]:
        return [
            mix64(fnv1a_64(f"{member}#{i}".encode()))
            for i in range(self.vnodes)
        ]

    def join(self, member: str) -> None:
        """Add a member; only keys adjacent to its tokens re-home."""
        if not member:
            raise ValidationError("member id must be non-empty")
        if member in self._members:
            raise StateError(f"member {member!r} already in the ring")
        self._members.add(member)
        for token in self._member_tokens(member):
            pos = bisect.bisect_left(self._tokens, token)
            # Token collisions across members are possible in principle;
            # insertion order then breaks the tie deterministically by id.
            while pos < len(self._tokens) and self._tokens[pos] == token and (
                self._owners[pos] < member
            ):
                pos += 1
            self._tokens.insert(pos, token)
            self._owners.insert(pos, member)
        self._membership_changed()

    def leave(self, member: str) -> None:
        """Remove a member; only keys it owned re-home."""
        if member not in self._members:
            raise StateError(f"member {member!r} not in the ring")
        self._members.discard(member)
        self._zones.pop(member, None)
        keep = [(t, o) for t, o in zip(self._tokens, self._owners) if o != member]
        self._tokens = [t for t, _ in keep]
        self._owners = [o for _, o in keep]
        self._membership_changed()

    # ------------------------------------------------------------------
    # Zones
    # ------------------------------------------------------------------
    def set_zone(self, member: str, zone: str) -> None:
        """Label a member with its availability zone."""
        if member not in self._members:
            raise StateError(f"member {member!r} not in the ring")
        if not zone:
            raise ValidationError("zone must be non-empty")
        self._zones[member] = zone
        self._membership_changed()

    def zone(self, member: str) -> str | None:
        """The member's zone label, or ``None`` if unlabelled."""
        return self._zones.get(member)

    def zones(self) -> list[str]:
        """Distinct zone labels in use, sorted."""
        return sorted(set(self._zones.values()))

    def members_in_zone(self, zone: str) -> list[str]:
        """Members carrying the given zone label, sorted."""
        return sorted(m for m, z in self._zones.items() if z == zone)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def owner(self, key: str | LabelSet) -> str:
        """The single member owning ``key`` (first token clockwise)."""
        return self.preference_list(key, 1)[0]

    def preference_list(
        self,
        key: str | LabelSet,
        n: int,
        *,
        zone_spread: bool = False,
        exclude: Collection[str] = (),
    ) -> list[str]:
        """The first ``n`` *distinct* members clockwise of ``key``'s hash.

        This is the replica set for the key.  A stream places by its
        :class:`LabelSet` (hashed once, see ``LabelSet.fingerprint``) or,
        equivalently, by its :func:`stream_key` string.  Asking for more
        members than the ring holds raises: a distributor must degrade
        its replication factor explicitly, not silently.

        ``exclude`` is exactly that explicit degradation: members in it
        (e.g. SUSPECT/DEAD per the failure detector) are skipped on the
        clockwise walk, and the list may come back *shorter* than ``n``
        when too few survivors remain — the caller decides whether the
        survivors still make a quorum.

        ``zone_spread`` makes the walk zone-aware: a first pass accepts
        only members whose zone is not yet represented, a second pass
        tops the list up with the remaining closest members regardless
        of zone.  With at least ``n`` distinct zones among eligible
        members the replicas therefore land in ``n`` distinct zones;
        with fewer zones, every zone still gets at least one replica.
        Unlabelled members never block on the zone constraint.
        """
        if n < 1:
            raise ValidationError("preference list size must be >= 1")
        if n > len(self._members):
            raise StateError(
                f"ring has {len(self._members)} member(s), wanted {n} replicas"
            )
        excluded = frozenset(exclude)
        memo = self._memo
        if excluded:
            if excluded != self._memo_excluded:
                self._memo_excluding.clear()
                self._memo_excluded = excluded
            memo = self._memo_excluding
        memo_key = (key, n, zone_spread)
        replicas = memo.get(memo_key)
        if replicas is None:
            replicas = tuple(self._walk(key, n, zone_spread, excluded))
            memo[memo_key] = replicas
        # A fresh list each time: callers own (and may mutate) the result.
        return list(replicas)

    def _walk(
        self,
        key: str | LabelSet,
        n: int,
        zone_spread: bool,
        excluded: frozenset[str],
    ) -> list[str]:
        """The clockwise walk :meth:`preference_list` memoises."""
        # Finalize the key hash the same way member tokens are: raw
        # FNV-1a of short, similar keys clusters on a narrow arc of the
        # circle (the walk then always starts in the same band and a
        # handful of members dominate every replica set); mix64 spreads
        # the start points uniformly.
        if isinstance(key, LabelSet):
            h = key.fingerprint()
        else:
            h = mix64(fnv1a_64(key.encode()))
        start = bisect.bisect_right(self._tokens, h)
        candidates: list[str] = []
        for i in range(len(self._tokens)):
            member = self._owners[(start + i) % len(self._tokens)]
            if member in excluded or member in candidates:
                continue
            candidates.append(member)
            if not zone_spread and len(candidates) == n:
                break
        if not zone_spread:
            return candidates
        out: list[str] = []
        zones_used: set[str] = set()
        for member in candidates:
            zone = self._zones.get(member)
            if zone is None or zone not in zones_used:
                out.append(member)
                if zone is not None:
                    zones_used.add(zone)
                if len(out) == n:
                    return out
        for member in candidates:
            if member not in out:
                out.append(member)
                if len(out) == n:
                    break
        return out

    def placement(self, keys: Iterable[str], n: int = 1) -> dict[str, tuple[str, ...]]:
        """Replica sets for many keys — the property tests' workhorse."""
        return {key: tuple(self.preference_list(key, n)) for key in keys}
