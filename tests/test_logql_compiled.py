"""A compiled pipeline answers what the interpreted one answers.

``LogQLEngine`` compiles a pipeline once and adds three exact
shortcuts to it (DESIGN §3, "compiled pipeline"): a byte prefilter that
drops a line before ``json`` decodes it when a ``label="value"`` filter
cannot hold, parser hints that make ``json`` extract only the labels a
``sum [by (…)]`` of counts or byte totals reads, and a prefix of leading
line filters applied to a stream's whole list.  The properties below pin
them to the line-by-line path with no hint and no prefilter, entry for
entry and bit for bit, over JSON built to hit their edges: escapes,
duplicate keys, keys that flatten or collide into one name, numbers whose
text is not their string, booleans, ``null`` and lines that are no JSON
at all.  The budgets at the bottom pin the work the shortcuts save.
"""

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.alerting.rules import RuleSpec
from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, seconds
from repro.loki.chunks import ChunkPolicy
from repro.loki.logql import engine as engine_mod
from repro.loki.logql.ast import LineFilter, UnwrapStage
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry
from repro.loki.ruler import Ruler
from repro.loki.store import LokiStore
from tests.counting import counted

SPAN_S = 12

#: Streams with and without the filtered labels (``level``, ``a_b``) and
#: with an ``app`` the lines' own ``app`` keys collide with.
STREAMS = (
    {"app": "x"},
    {"app": "error"},
    {"app": "y", "level": "error"},
    {"app": "z", "level": "info", "a_b": "error"},
)
#: ``a`` nests into ``a_b``, beside the key ``a_b``; ``lev-el`` and
#: ``levél`` sanitise into ``lev_el`` and ``lev_l``.  Repeats weight the
#: draw towards the filtered names.
KEYS = ("level",) * 4 + ("level_extracted", "app", "a", "a_b", "lev-el", "levél", "msg")
#: JSON text as written, so ``1e2`` and ``"err\u006fr"`` stay as they are.
VALUES = ('"error"', '"err\\u006fr"', '"\\u00e9rror"', "1e2") * 2 + (
    '"info"', '"\\"error\\""', '"érror"', '"true"', '"100"', "1.0", "100", "-0.0",
    "true", "false", "null", '{"b": "error"}', '["error", 1e2]', '{"b": {"c": true}}',
)
OBJECTS = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)), max_size=4).map(
    lambda pairs: "{" + ",".join(f"{json.dumps(k, ensure_ascii=False)}:{v}" for k, v in pairs) + "}"
)
NOT_JSON = st.sampled_from(["level=error", "error", "[1, 2]", '"error"', "{", ""])
LINES = st.one_of(OBJECTS, OBJECTS, OBJECTS, NOT_JSON)
FILTERS = ('level="error"',) * 3 + (
    'level="true"', 'level_extracted="error"', 'a_b="error"', 'app_extracted="error"',
    'lev_l="error"', 'level="100"', 'level="1e2"', 'level=""', 'level!="error"',
    'level=~"err.*"', '__error__=""', '__error__="JSONParserErr"',
)
#: (stream, second, line, whether an object line gets a key of its own).
PUSHES = st.lists(
    st.tuples(st.integers(0, len(STREAMS) - 1), st.integers(1, SPAN_S), LINES, st.booleans()),
    min_size=8, max_size=30,
)
#: Lines the prefilter must keep: the value is only there escaped, or
#: written as a number whose string is another text.
EDGES = [(0, 1, '{"level":"err\\u006fr"}', False), (1, 2, '{"level":1e2}', False)]


def store_of(pushes) -> LokiStore:
    """A line with a key of its own is a label set of its own, as a
    real line's latency or message makes it."""
    store = LokiStore()
    for n, (stream, ts, line, own) in enumerate(pushes):
        if own and line.startswith("{") and line.endswith("}"):
            line = f'{{"n":{n}{"," if len(line) > 2 else ""}{line[1:]}'
        store.push_stream(STREAMS[stream], [LogEntry(seconds(ts), line)])
    return store


def interpreted(run):
    """``run()`` with no parser hint, no byte prefilter and no
    line-filter prefix: every stage runs line by line."""
    compile_ = LogQLEngine._compile

    def line_by_line(self, pipeline):
        _prefix, _stages, contains, _needles = compile_(self, pipeline)
        stages = tuple(s for s in pipeline.stages if not isinstance(s, UnwrapStage))
        return (), stages, contains, ()

    with (
        mock.patch.object(engine_mod, "_sum_hint", return_value=None),
        mock.patch.object(LogQLEngine, "_compile", line_by_line),
    ):
        return run()


def exact(series) -> list:
    """Series with every float as its bits."""
    return [(s.labels, [(t, v.hex()) for t, v in s.points]) for s in series]


@pytest.mark.parametrize("shape", [
    # Hinted, and prefiltered where f allows.
    'sum by (app, level) (count_over_time({{app=~".+"}} | json | {f} [{r}]))',
    'sum by (level_extracted) (count_over_time({{app=~".+"}} | json | {f} [{r}]))',
    'sum(count_over_time({{app=~".+"}} |= "e" | json | {f} | {g} [{r}]))',
    'sum(bytes_over_time({{app=~".+"}} | json | {f} [{r}]))',
    # Unhinted: rows must stay whole, or their values are not integers.
    'max by (app) (count_over_time({{app=~".+"}} | json | {f} [{r}]))',
    'sum(rate({{app=~".+"}} | json | {f} [{r}]))',
    'sum without (level) (count_over_time({{app=~".+"}} | json | {f} [{r}]))',
    'sum by (app) (bytes_over_time({{app=~".+"}} | json | {f}'
    ' | line_format "{{{{.level}}}}" [{r}]))',
])
@settings(max_examples=80, deadline=None)
@given(
    pushes=PUSHES,
    f=st.sampled_from(FILTERS),
    g=st.sampled_from(FILTERS),
    r=st.sampled_from(["4s", "10s"]),
)
@example(pushes=EDGES, f='level="error"', g='level="100"', r="4s")
@example(pushes=EDGES, f='level="100"', g='level="error"', r="4s")
def test_metric_queries_match_the_interpreted_pipeline(shape, pushes, f, g, r):
    query = shape.format(f=f, g=g, r=r)
    store = store_of(pushes)

    def run():
        return exact(LogQLEngine(store).query_range(query, 0, seconds(SPAN_S), seconds(2)))

    assert run() == interpreted(run)


@pytest.mark.parametrize("shape", [
    '{{app=~".+"}} | json | {f}',
    '{{app=~".+"}} |= "e" | json | {f} | json | {g}',
    # Before any json stage only the stream's own labels can match.
    '{{app=~".+"}} | {f} | json | {g}',
    # The label a filter reads may come from elsewhere than the line.
    '{{app=~".+"}} | json | label_format level=app | {f}',
])
@settings(max_examples=80, deadline=None)
@given(pushes=PUSHES, f=st.sampled_from(FILTERS), g=st.sampled_from(FILTERS))
@example(pushes=EDGES, f='level="error"', g='level="100"')
@example(pushes=EDGES, f='level="100"', g='level="error"')
def test_log_queries_match_the_interpreted_pipeline(shape, pushes, f, g):
    query = shape.format(f=f, g=g)
    store = store_of(pushes)

    def run():
        return LogQLEngine(store).query_logs(query, 0, seconds(SPAN_S + 1))

    assert run() == interpreted(run)


#: Line filters of all four ops, as raw strings: needles at the start and
#: end of a line, backslashes, a needle no line holds and the empty one.
NEEDLES = ("{", "}", "\\", '"level"', "error", "err\\u006fr", "nothing-has-this", "")
PATTERNS = ("^\\{", "\\}$", "\\\\", "err.r", "^$", "1e2")
LINE_FILTERS = st.one_of(
    st.tuples(st.sampled_from(["|=", "!="]), st.sampled_from(NEEDLES)),
    st.tuples(st.sampled_from(["|~", "!~"]), st.sampled_from(PATTERNS)),
).map(lambda pair: f"{pair[0]} `{pair[1]}`")


@pytest.mark.parametrize("shape", [
    '{{app=~".+"}} {p}',
    '{{app=~".+"}} {p} {q}',
    '{{app=~".+"}} {p} {q} | json | {f}',
    '{{app=~".+"}} {p} | json | {f} {q}',
    # A filter after line_format reads the rewritten line.
    '{{app=~".+"}} {p} | json | line_format "{{{{.level}}}}" {q}',
    'count_over_time({{app=~".+"}} {p} {q} [{r}])',
    'sum by (app, level) (count_over_time({{app=~".+"}} {p} | json | {f} {q} [{r}]))',
    'bytes_over_time({{app=~".+"}} {p} {q} | json | {f} [{r}])',
])
@settings(max_examples=80, deadline=None)
@given(
    pushes=PUSHES,
    p=LINE_FILTERS,
    q=LINE_FILTERS,
    f=st.sampled_from(FILTERS),
    r=st.sampled_from(["4s", "10s"]),
)
@example(pushes=EDGES, p="|= `{`", q="!~ `\\}$`", f='level="error"', r="4s")
@example(pushes=EDGES, p="|~ `\\\\`", q="!= `nothing-has-this`", f='level="100"', r="4s")
@example(pushes=EDGES, p="!= ``", q="|= `{`", f='level="error"', r="4s")
def test_a_line_filter_prefix_matches_the_interpreted_pipeline(shape, pushes, p, q, f, r):
    """The leading filters run a stream at a time; a stream they empty
    is absent, as it is when every line is dropped one by one."""
    query = shape.format(p=p, q=q, f=f, r=r)
    store = store_of(pushes)
    engine = LogQLEngine(store)

    def run():
        if "_over_time" in query:
            return exact(engine.query_range(query, 0, seconds(SPAN_S), seconds(2)))
        return engine.query_logs(query, 0, seconds(SPAN_S + 1))

    assert run() == interpreted(run)


# ----------------------------------------------------------------------
# Work budgets
# ----------------------------------------------------------------------
AGG = 'sum by (app) (count_over_time({app=~".+"} | json | level="error" [5m]))'
LEVELS = ("info", "error", "warn", "debug", "error")


def fixture_store() -> tuple[LokiStore, list[str]]:
    """Three apps of lines that differ in every field but ``level``, a
    few with an escape in them."""
    store, lines = LokiStore(), []
    for i in range(60):
        line = json.dumps({
            "level": LEVELS[i % len(LEVELS)],
            "msg": f"request {i}" + ("\n" if i % 7 == 0 else ""),
            "latency_ms": i * 3,
        })
        lines.append(line)
        store.push_stream({"app": f"app{i % 3}"}, [LogEntry(seconds(i + 1), line)])
    return store, lines


def test_the_aggregation_decodes_only_lines_that_can_match():
    store, lines = fixture_store()

    def run():
        return LogQLEngine(store).query_instant(AGG, seconds(61))

    with counted(json, "loads") as loads, counted(LabelSet, "__init__") as label_sets:
        got = run()
    assert got == interpreted(run)
    assert loads.call_count == sum("error" in line or "\\" in line for line in lines)
    assert loads.call_count < len(lines)
    # One per (stream, level) that survives the filter: level="error".
    assert label_sets.call_count == 3
    with counted(json, "loads") as loads, counted(LabelSet, "__init__") as label_sets:
        interpreted(run)
    assert (loads.call_count, label_sets.call_count) == (len(lines), 24)


def test_a_rule_group_keeps_the_bare_aggregation_whole():
    """One ``RangeAgg`` under ``sum by`` in one rule and bare in the next:
    the hinted leaf is its own entry in the group's table, so the bare
    rule still sees every extracted label."""
    store, _lines = fixture_store()
    clock = SimClock(seconds(61))
    leaf = 'count_over_time({app=~".+"} | json | level="error" [5m])'
    for order in ((f"sum by (app) ({leaf})", leaf), (leaf, f"sum by (app) ({leaf})")):
        ruler = Ruler(LogQLEngine(store), clock, lambda event: None)
        for name, expr in zip(("first", "second"), order):
            ruler.add_rule(RuleSpec(name=name, expr=f"{expr} > 0"))
        by_rule = {"first": [], "second": []}
        for event in ruler.evaluate_all():
            by_rule[event.name].append(event.labels.without("alertname"))
        bare = by_rule["first" if order[0] == leaf else "second"]
        summed = by_rule["second" if order[0] == leaf else "first"]
        assert len(bare) == 24
        assert all(set(labels) == {"app", "level", "msg", "latency_ms"} for labels in bare)
        assert sorted(summed, key=LabelSet.items_tuple) == [{"app": f"app{i}"} for i in range(3)]


@pytest.mark.parametrize("query", [
    '{app=~".+"} |= "request 1"',
    '{app=~".+"} |= "request" !~ `latency_ms": [0-9]{3}`',
    'sum by (app) (count_over_time({app=~".+"} |= "request 1" [5m]))',
])
def test_a_line_filter_prefix_runs_a_stream_at_a_time(query):
    """Leading line filters alone: no line goes through the line-by-line
    stages, and no ``LineFilter.keep`` call is made."""
    store, lines = fixture_store()
    engine = LogQLEngine(store)

    def run():
        if query.startswith("sum"):
            return engine.query_instant(query, seconds(61))
        return engine.query_logs(query, 0, seconds(61))

    with (
        counted(LineFilter, "keep") as keep,
        counted(LogQLEngine, "_apply_stages") as stages,
    ):
        got = run()
    assert (keep.call_count, stages.call_count) == (0, 0)
    assert got and got == interpreted(run)


@pytest.mark.parametrize("query", [
    'count_over_time({app=~".+"}[10s])',
    'sum by (app) (rate({app=~".+"} |= "line 3" [10s]))',
    'sum(count_over_time({app=~".+"} | json | level="error" [10s]))',
])
def test_a_count_leaf_converts_its_timestamps_once(query):
    """However many streams and chunks a count leaf reads, sealed or
    open, its timestamps reach numpy in one conversion: the streams'
    columns are laid end to end first."""
    store = LokiStore(ChunkPolicy(target_size_bytes=120))
    for i in range(6):
        lines = [json.dumps({"level": ("error", "info")[s % 2], "n": f"line {s}"}) for s in range(40)]
        store.push_stream(
            {"app": f"app{i}"}, [LogEntry(seconds(s), line) for s, line in enumerate(lines)]
        )
    assert store.chunk_count() > 24 and len(store.sealed_chunks()) > 18
    engine = LogQLEngine(store)
    for run in (
        lambda: engine.query_range(query, seconds(10), seconds(40), seconds(5)),
        lambda: engine.query_instant(query, seconds(40)),
    ):
        with counted(engine_mod.np, "frombuffer") as frombuffer:
            got = run()
        assert got and got == interpreted(run)
        assert frombuffer.call_count == 1
