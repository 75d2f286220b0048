"""Replica-entry merging: one stream's history across several copies.

Quorum reads, the tiered hot+cold read path, the store-gateway, queryx's
log merger, retention's expiry preview, the compactor and the
anti-entropy repairer all face the same problem: several replicas hold
overlapping views of the same logical stream and the union must count
every acknowledged write exactly once.  The max-multiplicity merge here
is the single shared answer; :func:`merge_streams` applies it per stream
to several sources' ``select``-shaped answers.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable

from repro.common.labels import LabelSet
from repro.loki.model import LogEntry

__all__ = ["merge_replica_entries", "merge_streams"]


def merge_streams(
    results: Iterable[tuple[LabelSet, list[LogEntry]]],
) -> list[tuple[LabelSet, list[LogEntry]]]:
    """Several sources' ``(labels, entries)`` pairs as one answer: per
    stream the :func:`merge_replica_entries` of its non-empty lists,
    streams in label order — the read contract of every store's
    ``select`` (a stream with nothing left is absent, each list fresh)."""
    per_stream: dict[LabelSet, list[list[LogEntry]]] = {}
    for labels, entries in results:
        if entries:
            per_stream.setdefault(labels, []).append(entries)
    out = [
        (labels, merge_replica_entries(entry_lists))
        for labels, entry_lists in per_stream.items()
    ]
    out.sort(key=lambda pair: pair[0].items_tuple())
    return out


def merge_replica_entries(replica_lists: list[list[LogEntry]]) -> list[LogEntry]:
    """Merge one stream's entries across replicas, deduplicating.

    Replicas hold consistent prefixes/subsequences of the same logical
    stream (they applied the same pushes in the same order, minus crash
    windows), so per timestamp the fullest replica's ordering is
    authoritative; an identical ``(ts, line)`` seen on several replicas
    is the same write and appears once — its multiplicity is the *max*
    across replicas, never the sum.  Each list is time-ordered, as every
    store's ``select`` answers.
    """
    if not replica_lists:
        return []
    first = replica_lists[0]
    # The healthy steady state: every replica returned the same list, so
    # the max multiplicity of every line is what any one of them holds.
    if all(entries == first for entries in replica_lists[1:]):
        return list(first)
    # One stream's consecutive chunks, or its cold part beside its hot
    # part: time-disjoint lists, where every timestamp has one group and
    # the general path's answer is the lists laid end to end.  A tied
    # boundary may hold one write on two lists, so it takes the general
    # path.
    spans = sorted(
        (entries for entries in replica_lists if entries),
        key=lambda entries: entries[0].timestamp_ns,
    )
    if all(
        earlier[-1].timestamp_ns < later[0].timestamp_ns
        for earlier, later in zip(spans, spans[1:])
    ):
        return list(chain.from_iterable(spans))
    return _merge_by_timestamp(replica_lists)


def _merge_by_timestamp(replica_lists: list[list[LogEntry]]) -> list[LogEntry]:
    """The general path: per timestamp, the fullest replica's lines in
    its order, then any line another replica saw more often."""
    # Group each replica's entries by timestamp, preserving intra-ts order.
    by_ts: dict[int, list[list[str]]] = {}
    for entries in replica_lists:
        groups: dict[int, list[str]] = {}
        for entry in entries:
            groups.setdefault(entry.timestamp_ns, []).append(entry.line)
        for ts, lines in groups.items():
            by_ts.setdefault(ts, []).append(lines)
    merged: list[LogEntry] = []
    for ts in sorted(by_ts):
        groups = by_ts[ts]
        base = max(groups, key=len)
        counts = Counter(base)
        merged.extend(LogEntry(ts, line) for line in base)
        # Any line a smaller group saw more often than the base is a
        # genuine extra write the base replica missed.
        extras: Counter[str] = Counter()
        for group in groups:
            if group is base:
                continue
            group_counts = Counter(group)
            for line, n in group_counts.items():
                short = n - counts[line]
                if short > extras[line]:
                    extras[line] = short
        for line in sorted(extras):
            merged.extend(LogEntry(ts, line) for _ in range(extras[line]))
    return merged
