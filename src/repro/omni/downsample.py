"""Metric downsampling: OMNI's long-horizon storage economics.

Keeping "at least two years of data immediately" (paper §I) at full
resolution is wasteful for metrics: operators look at old data in hourly
strokes, not 15-second samples.  VictoriaMetrics ships exactly this
feature (retention-based downsampling); this module implements it for
the reproduction: samples older than ``downsample_after_ns`` are
replaced by per-bucket aggregates (mean + min + max), shrinking storage
by the bucket/scrape ratio while preserving query shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.common.labels import METRIC_NAME_LABEL, LabelSet
from repro.common.simclock import SimClock, hours
from repro.tsdb.storage import TimeSeriesStore


@dataclass(frozen=True)
class DownsamplePolicy:
    """Samples older than ``downsample_after_ns`` collapse into
    ``bucket_ns`` aggregates."""

    downsample_after_ns: int = 30 * 24 * hours(1)  # one month
    bucket_ns: int = hours(1)

    def __post_init__(self) -> None:
        if self.downsample_after_ns <= 0 or self.bucket_ns <= 0:
            raise ValidationError("downsample policy values must be positive")


class Downsampler:
    """Rewrites aged series regions into bucket aggregates.

    The mean lands back on the original series; min and max land on
    sibling series with a ``__rollup__`` label so range queries can still
    see envelopes.  Fresh samples are untouched.  Only whole buckets roll:
    the cutoff is floored to a bucket boundary, so a bucket is rolled once,
    from all of its raw samples, whenever the sweeps run; a sweep starts
    after the last bucket the ``min`` rollup holds.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        clock: SimClock,
        policy: DownsamplePolicy | None = None,
    ) -> None:
        self._store = store
        self._clock = clock
        self.policy = policy or DownsamplePolicy()

    def sweep(self) -> int:
        """Downsample every series' aged region; returns samples saved."""
        bucket = self.policy.bucket_ns
        cutoff = (self._clock.now_ns - self.policy.downsample_after_ns) // bucket * bucket
        saved = 0
        for labels in list(self._store._series):
            if "__rollup__" in labels:
                continue  # never re-roll rollups
            column = self._store._series[labels]
            ts = column.timestamps
            if len(ts) == 0 or int(ts[0]) >= cutoff:
                continue
            split = int(np.searchsorted(ts, cutoff, side="left"))
            # Buckets up to the last one rolled hold their one mean already.
            rolled = self._store._series.get(labels.with_labels(__rollup__="min"))
            first = 0 if rolled is None else int(np.searchsorted(ts, rolled.last_ts + bucket))
            if split <= first:
                continue
            old_ts, old_vals = ts[first:split], column.values[first:split]

            # Bucket the aged region (vectorised group-by on bucket index).
            buckets = old_ts // bucket
            boundaries = np.nonzero(np.diff(buckets))[0] + 1
            groups_ts = np.split(old_ts, boundaries)
            groups_vals = np.split(old_vals, boundaries)

            starts, means = [], []
            for g_ts, g_vals in zip(groups_ts, groups_vals):
                bucket_start = int(g_ts[0] // bucket * bucket)
                starts.append(bucket_start)
                means.append(float(g_vals.mean()))
                self._write_rollup(labels, "min", bucket_start, float(g_vals.min()))
                self._write_rollup(labels, "max", bucket_start, float(g_vals.max()))
            # In place, so the store's series refs keep leading here.
            column.rewrite(
                np.concatenate([ts[:first], starts, ts[split:]]),
                np.concatenate([column.values[:first], means, column.values[split:]]),
            )
            saved += split - first - len(groups_ts)
        return saved

    def _write_rollup(
        self, labels: LabelSet, kind: str, ts: int, value: float
    ) -> None:
        rollup_labels = labels.with_labels(__rollup__=kind)
        self._store._register(labels[METRIC_NAME_LABEL], rollup_labels).append(ts, value)
