"""Recombining subquery partials into the final query result.

Two merge surfaces, matching the two query families:

- **Metric partials** are ``Series`` lists.  Within one time window the
  shard partials combine per (labels, instant) with the plan's merge
  op (sum / max / min — the op :mod:`planner` proved distributes over
  the stream partition); across time windows the per-label points
  simply concatenate, because every evaluation instant belongs to
  exactly one window.
- **Log partials** are ``(labels, entries)`` groups.  Shards partition
  the source streams and time windows partition the instants, so no
  entry reaches two partials: a group's lists join in plan order and
  are sorted as :meth:`LogQLEngine.query_logs` sorts a group, which
  makes the sharded answer the unsharded one by construction.  Nothing
  here is a replica merge — two shards' equal ``(ts, line)`` entries are
  two writes, from two streams a label stage collapsed into one group.

A plan of one subquery (a small or unshardable one-window plan) merges
nothing: its one partial is the engine's own answer and is handed on as
it is.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.vector import Series
from repro.loki.model import LogEntry
from repro.queryx.planner import (
    MERGE_MAX,
    MERGE_MIN,
    MERGE_NONE,
    MERGE_SUM,
    QueryPlan,
    Subquery,
)

_MERGE_FN = {
    MERGE_SUM: sum,
    MERGE_MAX: max,
    MERGE_MIN: min,
    MERGE_NONE: None,  # single shard: nothing to combine
}


def merge_metric_partials(
    plan: QueryPlan,
    partials: list[tuple[Subquery, list[Series]]],
) -> list[Series]:
    """Combine per-(window, shard) series lists into the final frame."""
    fn = _MERGE_FN.get(plan.merge, None)
    if plan.merge not in _MERGE_FN:
        raise ValidationError(f"not a metric merge class: {plan.merge!r}")
    if len(partials) == 1:
        return partials[0][1]
    # (labels, ts) -> shard values within the owning window.  Windows
    # partition the instants, so ts alone identifies the window.
    cells: dict[tuple[LabelSet, int], list[float]] = {}
    for _sub, series_list in partials:
        for series in series_list:
            for ts, value in series.points:
                cells.setdefault((series.labels, ts), []).append(value)
    merged: dict[LabelSet, list[tuple[int, float]]] = {}
    for (labels, ts), values in cells.items():
        if fn is None:
            if len(values) != 1:
                raise ValidationError(
                    "unsharded plan produced colliding partials"
                )
            value = values[0]
        else:
            value = float(fn(values))
        merged.setdefault(labels, []).append((ts, value))
    out = []
    for labels, points in merged.items():
        points.sort(key=lambda p: p[0])
        out.append(Series(labels, tuple(points)))
    out.sort(key=lambda s: s.labels.items_tuple())
    return out


def merge_log_partials(
    partials: list[tuple[Subquery, list[tuple[LabelSet, list[LogEntry]]]]],
) -> list[tuple[LabelSet, list[LogEntry]]]:
    """Join log groups across shards and windows: per final label set
    the partials' lists in plan order, sorted, groups in label order —
    the unsharded engine's answer.  The partials' lists are consumed."""
    if len(partials) == 1:
        return partials[0][1]
    groups: dict[LabelSet, list[LogEntry]] = {}
    for _sub, partial in partials:
        for labels, entries in partial:
            held = groups.get(labels)
            if held is None:
                groups[labels] = entries
            else:
                held += entries
    for entries in groups.values():
        entries.sort()
    return sorted(groups.items(), key=lambda kv: kv[0].items_tuple())
