"""Replica merging: one stream's history across several copies.

Quorum reads, the tiered hot+cold read path, the store-gateway,
retention's expiry preview, the compactor and the anti-entropy repairer
all face the same problem: several copies hold overlapping views of the
same logical stream and the union must count every acknowledged write
exactly once.  The max-multiplicity merge here is the single shared
answer: :func:`merge_replica_columns` merges one stream's ``(entries,
ts)`` copies, and :func:`merge_stream_columns` applies it per stream to
several sources' ``select_columns``-shaped answers.  Copies differ only
in how a timestamp's group is ordered: replicas put the fullest copy's
group first, tiers (``in_copy_order``) the cold tier's.  Answers that are
not copies of one stream — queryx's shard and time-window partials —
never come here: they concatenate.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, pairwise
from typing import Iterable

from repro.common.labels import LabelSet
from repro.loki.model import LogEntry

__all__ = ["merge_replica_columns", "merge_stream_columns"]


def merge_stream_columns(
    results: Iterable[tuple[LabelSet, list[LogEntry], array]],
    in_copy_order: bool = False,
) -> list[tuple[LabelSet, list[LogEntry], array]]:
    """Several sources' ``select_columns``-shaped triples as one answer,
    in one pass and in no label order: streams come out in the order
    they are first seen, each stream's entries and timestamp column
    merged together (:func:`merge_replica_columns`); a stream with
    nothing is absent.  A copy equal to a
    stream's first non-empty one is dropped as it arrives — it cannot
    change a max-multiplicity merge — so a stream whose replicas agree
    is its first pair, handed on as it is, with no per-stream list or
    call (EXPERIMENTS X25).  The triples' lists and columns must be
    fresh, as every ``select_columns`` answers them.  ``in_copy_order``
    is handed to :func:`merge_replica_columns`."""
    first: dict[LabelSet, tuple[list[LogEntry], array]] = {}
    diverged: dict[LabelSet, list[tuple[list[LogEntry], array]]] = {}
    for labels, entries, ts in results:
        if not entries:
            continue
        held = first.get(labels)
        if held is None:
            first[labels] = (entries, ts)
        elif entries != held[0]:  # shared LogEntry objects compare by identity
            parts = diverged.get(labels)
            if parts is None:
                diverged[labels] = [held, (entries, ts)]
            else:
                parts.append((entries, ts))
    return [
        (labels, *merge_replica_columns(diverged[labels], in_copy_order))
        if labels in diverged
        else (labels, entries, ts)
        for labels, (entries, ts) in first.items()
    ]


def merge_replica_columns(
    replicas: list[tuple[list[LogEntry], array]],
    in_copy_order: bool = False,
) -> tuple[list[LogEntry], array]:
    """Merge one stream's fresh ``(entries, ts)`` copies, deduplicating.

    Copies hold consistent prefixes/subsequences of the same logical
    stream (replicas applied the same pushes in the same order, minus
    crash windows), so per timestamp the fullest copy's ordering is
    authoritative; an identical ``(ts, line)`` seen on several copies is
    the same write and appears once — its multiplicity is the *max*
    across copies, never the sum.  Each list is time-ordered, as every
    store's ``select_columns`` answers, and each column holds its list's
    timestamps.  Equal copies answer the first pair itself,
    time-disjoint ones their lists and columns laid end to end; only
    the general path builds a column from its entries.

    ``in_copy_order`` is the tiers' rule, for copies that are not
    replicas but one stream's older and newer parts: per timestamp the
    first copy's group, then each later copy's extras in its own order.
    A cold ``[1 a, 2 b]`` and a hot ``[2 c, 2 e, 3 d]`` read ``a, b, c,
    e, d``, the order they were written in, where the replicas' rule
    would put the longer hot group first.
    """
    first, first_ts = replicas[0]
    if all(entries == first for entries, _ts in replicas[1:]):
        return first, first_ts
    lists = [entries for entries, _ts in replicas]
    spans = _end_to_end(lists)
    if spans is None:
        merged = _merge_by_timestamp(lists, in_copy_order)
        return merged, array("q", [entry.timestamp_ns for entry in merged])
    ts = array("q")
    for i in spans:
        ts += replicas[i][1]
    return list(chain.from_iterable(lists[i] for i in spans)), ts


def _end_to_end(replica_lists: list[list[LogEntry]]) -> list[int] | None:
    """The indexes of the non-empty lists by first timestamp, if each
    ends strictly before the next begins; else None.

    One stream's consecutive chunks, or its cold part beside its hot
    part, are time-disjoint lists: every timestamp has one group, and
    the general path's answer is the lists laid end to end.  A tied
    boundary may hold one write on two lists, so it takes the general
    path."""
    spans = sorted(
        (i for i, entries in enumerate(replica_lists) if entries),
        key=lambda i: replica_lists[i][0].timestamp_ns,
    )
    for earlier, later in pairwise(spans):
        if replica_lists[earlier][-1].timestamp_ns >= replica_lists[later][0].timestamp_ns:
            return None
    return spans


def _merge_by_timestamp(
    replica_lists: list[list[LogEntry]], in_copy_order: bool = False
) -> list[LogEntry]:
    """The general path: per timestamp, a base group in its order, then
    any line another copy saw more often.  The base is the fullest
    group and the extras are sorted, or, ``in_copy_order``, the first
    copy's group and the extras in copy order."""
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
        lines = _in_copy_order(groups) if in_copy_order else _fullest_first(groups)
        merged.extend(LogEntry(ts, line) for line in lines)
    return merged


def _fullest_first(groups: list[list[str]]) -> list[str]:
    """The replicas' rule for one timestamp: the fullest group, then
    what the others saw more often, sorted."""
    base = max(groups, key=len)
    counts = Counter(base)
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
    lines = list(base)
    for line in sorted(extras):
        lines.extend([line] * extras[line])
    return lines


def _in_copy_order(groups: list[list[str]]) -> list[str]:
    """The tiers' rule for one timestamp: the first group, then each
    later group's lines past what came before, in that group's order."""
    lines = list(groups[0])
    counts = Counter(lines)
    for group in groups[1:]:
        seen: Counter[str] = Counter()
        for line in group:
            seen[line] += 1
            if seen[line] > counts[line]:
                lines.append(line)
                counts[line] += 1
    return lines
