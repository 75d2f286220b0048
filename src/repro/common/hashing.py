"""Shared stable hashing: 64-bit FNV-1a and the SplitMix64 finalizer.

Both the ring (vnode tokens, stream keys) and the sharded Loki cluster
(label-hash shard placement) need a hash that is stable across runs —
the builtin ``hash`` is salted per process — and, where the hash feeds a
small modulus, *finalized*: FNV-1a alone has weak avalanche on short
suffixes, so structured inputs (sequential member names, label values
over a stride-aligned alphabet) land in micro-clusters instead of
spreading.  ``mix64`` restores full avalanche.

This module is the single home for both primitives.  It lives under
``common`` because ``loki`` cannot import from ``ring`` (the ring packages
import ``loki`` at definition time) and the object-store shipper needs the
same fingerprints as the ring.
"""

from __future__ import annotations

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a — stable across runs (unlike builtin ``hash``)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def unit_interval(seed: int | str, n: int) -> float:
    """Deterministic uniform-ish value in [0, 1) from ``(seed, n)``: the
    top 53 bits of :func:`fnv1a_64` over ``"seed:n"``.

    The stack's shared jitter primitive: retry schedules hash
    ``(seed, attempt)``, the self-healing heartbeat loops hash
    ``(member_id, tick)`` — any site needing reproducible spread uses
    this instead of shared RNG state, so replays stay bit-identical.
    """
    return (fnv1a_64(f"{seed}:{n}".encode()) >> 11) / float(1 << 53)


def mix64(h: int) -> int:
    """SplitMix64 finalizer: full-avalanche scrambling of a 64-bit value.

    FNV-1a has weak avalanche on short suffixes: inputs differing only in
    the final byte produce hashes differing by ``delta * prime``, so
    structured corpora collapse onto few residues of a small modulus.
    Two independent call sites depend on this finalizer:

    * ring vnode tokens ``member#0 … member#63`` would land in a handful
      of micro-clusters instead of spreading over the circle — breaking
      the bounded-movement guarantee in practice (a joining member could
      capture half the key space);
    * a modulo placement ``fnv % shards`` (the stream shard cut in
      ``PostingsIndex.select``, the broker's partitioner) maps every
      label set whose values differ only in characters a multiple of 8
      apart (e.g. ``'0'`` vs ``'8'``, one ASCII bit) onto a *single*
      shard, because each per-byte delta times the odd FNV prime
      preserves the low three bits.

    Running the finalizer over the raw hash restores uniformity without
    changing the underlying key hash (pinned by regression tests).
    """
    h &= _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h
