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
from repro.common.labels import METRIC_NAME_LABEL, label_matcher
from repro.common.simclock import SimClock, hours
from repro.tsdb.storage import TimeSeriesStore

#: The label that marks a series as a rollup, valued ``min`` or ``max``.
ROLLUP_LABEL = "__rollup__"

#: A window start before any sample.
_BEGINNING = -(2**63)

#: Raw series (never re-roll rollups), and the ``min`` rollups, whose
#: newest sample is the last bucket rolled.
_RAW = (label_matcher(ROLLUP_LABEL, "=", ""),)
_MIN_ROLLUPS = (label_matcher(ROLLUP_LABEL, "=", "min"),)


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
        # Buckets up to the last one rolled hold their one mean already,
        # so each series' read starts after it: a sweep copies only what
        # aged since the last one.
        starts = {
            labels.without(ROLLUP_LABEL): last + bucket
            for labels, last in self._store.newest(_MIN_ROLLUPS).items()
        }
        saved = 0
        for labels, old_ts, old_vals in self._store.select(_RAW, _BEGINNING, cutoff, starts):
            # Bucket the aged region (vectorised group-by on bucket index).
            buckets = old_ts // bucket
            boundaries = np.nonzero(np.diff(buckets))[0] + 1
            groups_ts = np.split(old_ts, boundaries)
            groups_vals = np.split(old_vals, boundaries)

            bucket_starts, means = [], []
            name = labels[METRIC_NAME_LABEL]
            for g_ts, g_vals in zip(groups_ts, groups_vals):
                bucket_start = int(g_ts[0] // bucket * bucket)
                bucket_starts.append(bucket_start)
                means.append(float(g_vals.mean()))
                for kind, value in (("min", g_vals.min()), ("max", g_vals.max())):
                    self._store.ingest(
                        name, labels.with_labels(**{ROLLUP_LABEL: kind}),
                        float(value), bucket_start,
                    )
            # In place, so the store's series refs keep leading here.
            self._store.replace(
                labels, int(old_ts[0]), cutoff,
                np.array(bucket_starts, dtype=np.int64), np.array(means),
            )
            saved += len(old_ts) - len(groups_ts)
        return saved
