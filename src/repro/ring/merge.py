"""Replica-entry merging: one stream's history across several copies.

Quorum reads, the tiered hot+cold read path, the compactor and the
anti-entropy repairer all face the same problem: several replicas hold
overlapping views of the same logical stream and the union must count
every acknowledged write exactly once.  The max-multiplicity merge here
is the single shared answer.
"""

from __future__ import annotations

from collections import Counter

from repro.loki.model import LogEntry

__all__ = ["merge_replica_entries"]


def merge_replica_entries(replica_lists: list[list[LogEntry]]) -> list[LogEntry]:
    """Merge one stream's entries across replicas, deduplicating.

    Replicas hold consistent prefixes/subsequences of the same logical
    stream (they applied the same pushes in the same order, minus crash
    windows), so per timestamp the fullest replica's ordering is
    authoritative; an identical ``(ts, line)`` seen on several replicas
    is the same write and appears once — its multiplicity is the *max*
    across replicas, never the sum.
    """
    if not replica_lists:
        return []
    first = replica_lists[0]
    # The healthy steady state: every replica returned the same list, so
    # the max multiplicity of every line is what any one of them holds.
    if all(entries == first for entries in replica_lists[1:]):
        return list(first)
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
