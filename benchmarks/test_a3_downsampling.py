"""A3 — ablation: metric downsampling for the two-year hot window.

OMNI keeps two years of data "immediately available" (paper §I); at full
scrape resolution that is storage-expensive for metrics nobody reads at
15-second grain.  This bench sweeps the rollup bucket size and reports
storage saved versus aggregate-query fidelity on the aged region.

Expected shape: storage shrinks by the bucket/scrape ratio; bucket-mean
queries over the aged region stay within noise of the full-resolution
answer.
"""

from repro.common.simclock import SimClock, days, hours, minutes
from repro.omni.downsample import DownsamplePolicy, Downsampler
from repro.tsdb.promql import PromQLEngine
from repro.tsdb.storage import TimeSeriesStore

import numpy as np

from conftest import report

SPAN_DAYS = 90
SCRAPE_MINUTES = 5
HOT_DAYS = 30


def _filled_store(clock):
    store = TimeSeriesStore()
    rng = np.random.default_rng(0)
    t = 0
    while t < days(SPAN_DAYS):
        store.ingest("node_power_watts", {"xname": "x1c0s0b0n0"},
                     450.0 + 60.0 * rng.standard_normal(), t)
        t += minutes(SCRAPE_MINUTES)
    clock.advance(days(SPAN_DAYS))
    return store


def _aged_mean(store, end_days):
    engine = PromQLEngine(store, lookback_ns=days(SPAN_DAYS))
    samples = engine.query_instant(
        f'avg_over_time(node_power_watts{{__rollup__=""}}[{end_days}d])',
        days(end_days),
    )
    return samples[0].value if samples else None


def test_a3_downsampling_sweep(benchmark):
    clock = SimClock(0)
    store = _filled_store(clock)
    full_res_mean = _aged_mean(store, HOT_DAYS)
    full_res_samples = store.sample_count()

    def run_sweep():
        c = SimClock(0)
        s = _filled_store(c)
        ds = Downsampler(
            s, c,
            DownsamplePolicy(downsample_after_ns=days(HOT_DAYS),
                             bucket_ns=hours(1)),
        )
        ds.sweep()
        return s

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = [
        f"{'bucket':>8} {'samples':>9} {'saved_pct':>10} {'aged_mean_W':>12} "
        f"{'mean_drift_pct':>15}"
    ]
    rows.append(
        f"{'(none)':>8} {full_res_samples:>9} {'0.0':>10} "
        f"{full_res_mean:>12.2f} {'0.00':>15}"
    )
    for bucket_h in (1, 6, 24):
        c = SimClock(0)
        s = _filled_store(c)
        ds = Downsampler(
            s, c,
            DownsamplePolicy(downsample_after_ns=days(HOT_DAYS),
                             bucket_ns=hours(bucket_h)),
        )
        ds.sweep()
        mean = _aged_mean(s, HOT_DAYS)
        saved = 100.0 * (1 - s.sample_count() / full_res_samples)
        drift = 100.0 * abs(mean - full_res_mean) / full_res_mean
        rows.append(
            f"{bucket_h:>7}h {s.sample_count():>9} {saved:>10.1f} "
            f"{mean:>12.2f} {drift:>15.2f}"
        )
        assert drift < 2.0  # bucket means preserve aggregates

    rows.append(
        "\nshape: storage shrinks with bucket size while aged-region "
        "aggregate queries stay within a fraction of a percent — how a "
        "two-year immediately-available window stays affordable."
    )
    report("A3_downsampling", "\n".join(rows))
