"""The SLO plane's recording is one error-ratio rule per window over every
SLO, each burn the ratio over its SLO's budget, and one read-back of the
burn families for the heatmap aliases.  The reference is what each SLO's
own rules recorded, kept here as PromQL run through the engine:

* ``slo_error_ratio_<w>{slo=s}`` — the ratio of ``s``'s two counters;
* ``slo_burn_rate_<w>{slo=s}`` — the same over ``{budget_rate:g}``;
* ``slo_burn_rate{window=<w>}`` — ``slo_burn_rate_<w>`` read at the
  tick, so through the staleness lookback once a window has gone quiet.

Every sample the manager records must be one of those, at the same
instant with the same bits, and every one of those must be recorded.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.simclock import SimClock, seconds
from repro.slo import SLO, BurnWindow, SloManager, StaticSource
from repro.tsdb import PromQLEngine, RecordingRule, TimeSeriesStore
from repro.tsdb.promql import parse_promql
from tests.tracing import off_tracer

STEP = seconds(30)
#: Short windows, so a run of a few minutes sees a window go quiet while
#: the last burn it recorded is still inside the 5-minute lookback.
WINDOWS = (
    BurnWindow("1m", "5m", 2.0, "page"),
    BurnWindow("2m", "10m", 1.0, "ticket"),
)
#: Objectives whose ``:g`` literal is not ``1 - objective`` (0.999,
#: 0.95, 0.99995), and ones where it is the same float.
OBJECTIVES = (0.999, 0.95, 0.99, 0.9, 0.99995)
NAMES = ("a", "b", "c")
FOREIGN = "x"  # an SLI series no SLO here is registered for

#: Per cycle and series: no scrape, a counter reset, or (good, bad)
#: increments in quarters.
step_st = st.one_of(
    st.none(),
    st.just("reset"),
    st.tuples(st.integers(0, 12), st.integers(0, 4)),
    st.just((0, 0)),
)
case_st = st.fixed_dictionaries(
    {
        "objectives": st.tuples(*(st.sampled_from(OBJECTIVES) for _ in NAMES)),
        # The cycle each SLO is registered before: 0, or while ticking.
        "joins": st.tuples(*(st.integers(0, 6) for _ in NAMES)),
        "cycles": st.lists(
            st.tuples(*(step_st for _ in (*NAMES, FOREIGN))), min_size=2, max_size=18
        ),
    }
)


def per_slo_ratio(name: str, window: str) -> str:
    """The error-ratio rule each SLO had of its own."""
    total = f'increase(slo_sli_total{{slo="{name}"}}[{window}])'
    good = f'increase(slo_sli_good_total{{slo="{name}"}}[{window}])'
    return f"({total} - {good}) / ({total} > 0)"


def recorded(store: TimeSeriesStore, selector: str) -> dict:
    """Every sample of ``selector`` in the store, by (labels, timestamp),
    its value as bits."""
    return {
        (labels.nameless().items_tuple(), t): v.hex()
        for labels, ts, values in store.select(parse_promql(selector).matchers, 0, 1 << 62)
        for t, v in zip(ts.tolist(), values.tolist())
    }


def run(objectives, joins, cycles):
    clock = SimClock(0)
    store = TimeSeriesStore()
    promql = PromQLEngine(store)
    manager = SloManager(clock, promql, store, windows=WINDOWS, tracer=off_tracer())
    windows = manager._distinct_windows()
    budgets = {name: f"{1 - objective:g}" for name, objective in zip(NAMES, objectives)}
    counters = {name: [0.0, 0.0] for name in (*NAMES, FOREIGN)}  # good, total
    registered: list[str] = []
    want = {w: ({}, {}, {}) for w in windows}  # ratio, burn, alias
    for k, steps in enumerate(cycles):
        for name, objective, join in zip(NAMES, objectives, joins):
            if join == k:
                manager.register(SLO(name=name, description="x", objective=objective), StaticSource())
                registered.append(name)
        clock.advance(STEP)
        now = clock.now_ns
        for (name, counter), step in zip(counters.items(), steps):
            if step is None:
                continue
            if step == "reset":
                counter[:] = [0.0, 0.0]
            else:
                good, bad = step
                counter[0] += good / 4
                counter[1] += (good + bad) / 4
            labels = {"slo": name, "job": "slo"}
            store.ingest("slo_sli_good_total", labels, counter[0], now)
            store.ingest("slo_sli_total", labels, counter[1], now)
        manager.tick()
        for w in windows:
            ratios, burns, aliases = want[w]
            for name in registered:
                for sample in promql.query_instant(per_slo_ratio(name, w), now):
                    ratios[(sample.labels.items_tuple(), now)] = sample.value.hex()
                expr = f"{per_slo_ratio(name, w)} / {budgets[name]}"
                for sample in promql.query_instant(expr, now):
                    burns[(sample.labels.items_tuple(), now)] = sample.value.hex()
            for sample in promql.query_instant(f"slo_burn_rate_{w}", now):
                labels = sample.labels.nameless().with_labels(window=w)
                aliases[(labels.items_tuple(), now)] = sample.value.hex()
    return store, manager, windows, want


def assert_recorded_as_per_slo(store, manager, windows, want) -> None:
    total = 0
    for w in windows:
        ratios, burns, aliases = want[w]
        assert recorded(store, f"slo_error_ratio_{w}") == ratios
        assert recorded(store, f"slo_burn_rate_{w}") == burns
        assert recorded(store, f'slo_burn_rate{{window="{w}"}}') == aliases
        total += len(ratios) + len(burns) + len(aliases)
    assert manager.recording.samples_recorded == total


class TestPerWindowEqualsPerSlo:
    @settings(max_examples=60, deadline=None)
    @given(case=case_st)
    def test_same_samples_same_instants_same_bits(self, case):
        store, manager, windows, want = run(**case)
        assert_recorded_as_per_slo(store, manager, windows, want)

    def test_the_pool_holds_what_it_says(self):
        """The property is only worth its name if the generated runs can
        show each case: a literal that is not ``1 - objective``, a reset,
        a window gone quiet whose alias re-emits through the lookback, an
        SLO joining mid-run and a foreign series recording nothing."""
        traffic, quiet = (8, 2), (0, 0)
        cycles = (
            [(traffic, traffic, None, traffic)] * 3
            + [("reset", traffic, None, traffic)]
            + [(traffic, quiet, traffic, traffic)] * 2
            + [(traffic, quiet, traffic, traffic)] * 4
        )
        store, manager, windows, want = run((0.999, 0.95, 0.99995), (0, 0, 4), cycles)
        assert 1 - 0.999 != float("0.001") and 1 - 0.95 != float("0.05")
        assert_recorded_as_per_slo(store, manager, windows, want)
        ratio_1m, burn_1m, alias_1m = want["1m"]
        slo = lambda labels: dict(labels)["slo"]  # noqa: E731
        assert {slo(labels) for labels, _ in ratio_1m} == {"a", "b", "c"}  # never "x"
        # c joined before cycle 4, and records from its second scrape on.
        assert min(t for labels, t in ratio_1m if slo(labels) == "c") == 6 * STEP
        # b went quiet from cycle 4: its 1m burn stops, and its alias keeps
        # re-emitting the last one through the lookback.
        end = len(cycles) * STEP
        assert max(t for labels, t in burn_1m if slo(labels) == "b") < end
        assert max(t for labels, t in alias_1m if slo(labels) == "b") == end
        assert not any(recorded(store, f'slo_error_ratio_{w}{{slo="x"}}') for w in windows)


class TestRecordingRule:
    def test_rejects_bad_record_name(self):
        with pytest.raises(ValidationError):
            RecordingRule(record="job:rate:5m", expr="up")

    def test_rejects_bad_expression(self):
        with pytest.raises(Exception):
            RecordingRule(record="ok_name", expr="rate(")

    def test_rejects_name_label_override(self):
        with pytest.raises(ValidationError):
            RecordingRule(record="x", expr="up", labels={"__name__": "y"})
