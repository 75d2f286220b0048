"""Tests of the benchmark harness itself.

Collected by ``PYTHONPATH=src python -m pytest benchmarks/perf``, not by
tier-1 (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
from repro.cluster.topology import Cluster  # noqa: E402
from repro.core.framework import FrameworkConfig  # noqa: E402
from repro.loki.chunks import ChunkPolicy  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
T0 = 1_646_272_077 * 10**9
MIN = 60 * 10**9


# -- percentile rule ---------------------------------------------------------
def test_p95_is_refused_below_200_samples():
    with pytest.raises(ValueError, match="p95 needs"):
        harness.p95_ms([1_000_000] * 199)


def test_p95_is_nearest_rank_with_ten_samples_beyond_it():
    samples = [i * 1_000_000 for i in range(1, 201)]  # 1..200 ms
    assert harness.p95_ms(samples) == 190.0
    assert sum(s > 190_000_000 for s in samples) == 10
    assert harness.median_ms(samples) == 100.5


# -- host speed --------------------------------------------------------------
def test_timings_are_read_net_of_the_sampler_at_the_reference_speed():
    speed = hostspeed.HostSpeed()
    # A slow host: every 5 ms for 2 s the unit costs 0.5 ms.
    for k in range(1, 401):
        speed._ends.append(k * 5_000_000)
        speed._cum.append(speed._cum[-1] + 500_000)
    # [1.0 s, 1.1 s] holds 21 samples (both ends inclusive) = 10.5 ms.
    got = speed.at_reference_speed(1_000_000_000, 1_100_000_000)
    assert got == pytest.approx(
        (100_000_000 - 10_500_000) * hostspeed.REFERENCE_UNIT_NS / 500_000
    )
    assert speed.unit_cost_ns(0, 2_000_000_000) == 500_000
    # The chase is one cycle through every entry.
    seen, at = set(), 0
    for _ in range(hostspeed.CHASE_ENTRIES):
        seen.add(at)
        at = speed._next[at]
    assert at == 0 and len(seen) == hostspeed.CHASE_ENTRIES
    with pytest.raises(RuntimeError, match="no host-speed samples"):
        hostspeed.HostSpeed().at_reference_speed(0, 1)


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    # root [0,100]; children a [10,40] and b [30,60] overlap on [30,40],
    # c [70,80] is disjoint; a has a grandchild [15,20].
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 0, "b", 30, 60),
        (3, 0, "c", 70, 80),
        (4, 1, "leaf", 15, 20),
    ]
    times = layers.self_times(spans, {})
    assert times["root"] == [1, 100, 100 - (50 + 10), 0]  # [10,60] u [70,80]
    assert times["a"] == [1, 30, 25, 0]
    assert times["b"] == [1, 30, 30, 0]
    assert times["leaf"] == [1, 5, 5, 0]


def test_self_time_counts_folded_rows_once_at_their_direct_parent():
    spans = [(0, -1, "root", 0, 1000), (1, 0, "pump", 100, 900)]
    rows = {
        # 50 ingest calls directly under pump: 600 total, 450 of it beneath.
        (1, None, "ingest"): [50, 600, 450, 0],
        # ...spent in push, folded via ingest, 100 of which in append.
        (1, "ingest", "push"): [50, 450, 100, 7],
        (1, "push", "append"): [50, 100, 0, 0],
    }
    times = layers.self_times(spans, rows)
    assert times["pump"][2] == 800 - 600
    assert times["ingest"] == [50, 600, 150, 0]
    assert times["push"] == [50, 450, 350, 7]
    assert times["append"][2] == 100
    assert sum(t[2] for t in times.values()) == 1000  # adds up to the root


def test_tracer_folds_hot_calls_and_everything_beneath_them():
    class Store:
        def push(self, n):
            return [self.append(i) for i in range(n)]

        def append(self, i):
            return i

        def select(self):
            return self.append(0)

    tracer = layers.Tracer()
    tracer._patch(Store, "push", "store.push", True, True)
    tracer._patch(Store, "append", "wal.append", False, False)
    tracer._patch(Store, "select", "store.select", False, False)
    store = Store()
    assert store.push(1) == [0]  # not recording yet
    tracer.begin()
    store.push(3)
    store.push(2)
    store.select()
    tracer.end()
    times = layers.self_times(tracer.spans, tracer.rows)
    assert times["store.push"][0] == 2 and times["store.push"][3] == 5
    assert tracer.rows[(0, "store.push", "wal.append")][0] == 5  # folded beneath
    assert [s[2] for s in tracer.spans] == ["wal.append", "store.select", layers.ROOT]
    root = tracer.spans[-1]
    assert sum(t[2] for t in times.values()) == root[4] - root[3]


# -- generator ---------------------------------------------------------------
@pytest.mark.parametrize("name", list(loadgen.WORKLOADS))
def test_inputs_repeat_by_seed_and_differ_across_seeds(name):
    w = loadgen.WORKLOADS[name].scaled(1 / 20)
    cluster = Cluster(w.cluster_spec())
    a = loadgen.build_inputs(cluster, w, 1, T0)
    b = loadgen.build_inputs(cluster, w, 1, T0)
    c = loadgen.build_inputs(cluster, w, 2, T0)
    assert a == b
    assert [x.line for x in a.logs] != [x.line for x in c.logs]
    assert a.queries != c.queries
    assert len(a.logs) == w.lines
    end = T0 + a.span_ns
    assert all(T0 <= x.timestamp_ns < end for x in a.logs)
    logs = [q for q in a.queries if q.cls in oracle.CLASSES]
    assert all(T0 <= q.start_ns <= q.end_ns < end + 1 for q in logs)
    assert len(a.queries) == sum(w.queries.values())
    assert sum(len(s) for s in a.slices()) == len(a.logs)


def test_scaling_keeps_the_line_rate_and_the_class_list():
    full = loadgen.WORKLOADS["logs_plain"]
    tenth = full.scaled(0.1)
    assert tenth.lines / tenth.sim_minutes == pytest.approx(full.lines / full.sim_minutes)
    assert set(tenth.queries) == set(full.queries)
    floor = full.scaled(0.001)
    assert floor.sim_minutes == loadgen.MIN_SIM_MINUTES
    assert floor.lines / floor.sim_minutes == pytest.approx(full.lines / full.sim_minutes)


def test_range_queries_sit_on_the_step_grid_unless_wider_than_a_split():
    for name, w in loadgen.WORKLOADS.items():
        cluster = Cluster(w.cluster_spec())
        queries = loadgen.plan_queries(sorted(cluster.nodes), w, 3, T0)
        for cls in ("agg", "wide"):
            shapes = [(q.start_ns, q.end_ns) for q in queries if q.cls == cls]
            assert len(set(shapes)) >= len(shapes) - (name == "logs_highcard"), (name, cls)
            if cls == "wide" and w.span_ns > 2 * loadgen.SPLIT_NS:
                # A minute apart, and wide enough that each sub-window is
                # cut by a split boundary wherever t0 falls in its hour.
                assert [s - shapes[0][0] for s, _ in shapes] == [
                    i * MIN for i in range(len(shapes))
                ]
                assert all(e - s > loadgen.SPLIT_NS for s, e in shapes)
            elif cls == "agg" or w.span_ns <= loadgen.SPLIT_NS:
                assert all((s - T0) % loadgen.STEP_NS == 0 for s, _ in shapes)


def test_allplanes_outlasts_chunk_max_age_a_flush_and_a_compaction():
    """The only workload that reads shipped chunks: its first chunks must
    seal (2 h), be shipped, and meet one compaction before the reads."""
    w = loadgen.WORKLOADS["logs_allplanes"]
    config = FrameworkConfig()
    seal = ChunkPolicy().max_age_ns + config.objstore_flush_interval_ns
    every = config.objstore_compaction_interval_ns
    first_compaction_after = -(-seal // every) * every
    assert w.span_ns + loadgen.SETTLE_NS >= first_compaction_after
    assert loadgen.SPLIT_NS == config.queryx_split_interval_ns


def test_soak_faults_of_one_kind_are_a_group_interval_apart():
    w = loadgen.WORKLOADS["telemetry_soak"]
    faults = loadgen.plan_faults(Cluster(w.cluster_spec()), w, 1, T0)
    assert sorted(f.kind for f in faults).count("CABINET_LEAK") == 2
    assert len(faults) == 14 and len({f.target for f in faults}) == 14
    for kind in ("SWITCH_OFFLINE", "NODE_DOWN"):
        starts = sorted(f.start_ns for f in faults if f.kind == kind)
        assert len(starts) == 6
        assert min(b - a for a, b in zip(starts, starts[1:])) > 7 * MIN


# -- oracle ------------------------------------------------------------------
def _corpus():
    """50 lines, one a minute.  Line i is a container log when i % 5 == 0
    (10 of them, app a0/a1 alternating, level error when i % 10 == 0),
    else syslog (40) on host hA (i even) or hB (i odd); syslog lines with
    i % 10 == 3 are severity err and carry the needle."""
    logs = []
    for i in range(50):
        ts = T0 + i * MIN
        if i % 5 == 0:
            labels = {"data_type": "container_log", "app": f"a{(i // 5) % 2}"}
            line = json.dumps({"level": "error" if i % 10 == 0 else "info"})
        else:
            hot = i % 10 == 3
            labels = {
                "data_type": "syslog", "hostname": "hA" if i % 2 == 0 else "hB",
                "severity": "err" if hot else "info",
            }
            line = f"kernel: nvme0: I/O error, sector {i}" if hot else f"ok {i}"
        logs.append(SimpleNamespace(timestamp_ns=ts, labels=labels, line=line))
    return logs


def _q(cls, start_min, end_min, step_min=0, param=""):
    return loadgen.Query(cls, "", T0 + start_min * MIN, T0 + end_min * MIN,
                         step_min * MIN, param)


def test_oracle_on_a_hand_checked_corpus():
    ref = oracle.Oracle(_corpus(), "I/O error")
    assert ref.totals == {"syslog": 40, "container_log": 10}
    assert ref.bytes_published == sum(len(x.line) for x in _corpus())
    # hA holds the even non-multiples of 5; minutes [10, 20): 12 14 16 18.
    assert ref.expect(_q("tail", 10, 20, param="hA")) == 4
    # start is inclusive, end exclusive: [12, 14) holds 12 only.
    assert ref.expect(_q("tail", 12, 14, param="hA")) == 1
    assert ref.expect(_q("tail", 0, 50, param="nobody")) == 0
    # needle lines are minutes 3 13 23 33 43; [3, 33) holds three.
    assert ref.expect(_q("filter", 3, 33)) == 3
    # Error container lines at minutes 0 10 20 30 40, all app a0 (i // 5
    # even).  A [5m] range at t counts (t - 5, t]: t = 10 sees minute 10,
    # t = 15 sees nothing (10 is exactly 5 back, exclusive), t = 20 sees 20.
    assert ref.expect(_q("agg", 10, 20, step_min=5)) == {
        ("a0", T0 + 10 * MIN): 1, ("a0", T0 + 20 * MIN): 1,
    }
    # Syslog by severity over (5, 10] and (10, 15]: minutes 6 7 8 9 are
    # info; 11 12 14 are info and 13 is err.
    assert ref.expect(_q("wide", 10, 15, step_min=5)) == {
        ("info", T0 + 10 * MIN): 4,
        ("info", T0 + 15 * MIN): 3, ("err", T0 + 15 * MIN): 1,
    }


def test_fault_checks_want_exactly_one_incident_and_a_slack_post():
    leak = loadgen.ScheduledFault("CABINET_LEAK", "x1002", 100, 50)
    node = loadgen.ScheduledFault("NODE_DOWN", "x1002c3s0b0n0", 200, 50)
    incidents = [("x1002c1b0", 150), ("x1002c3s0b0n0", 260), ("x1002c4r0b0", 10)]
    slack = ["leak in `x1002c1b0`", "Node x1002c3s0b0n0 is down"]
    assert oracle.check_faults([leak, node], incidents, slack) == ([], [50, 60])
    problems, latencies = oracle.check_faults(
        [leak, node], incidents[:1] + [("x1002c0b0", 160)], slack[:1]
    )
    assert len(problems) == 3  # leak duplicated; node missing, and unnamed
    assert latencies == []


# -- compare -----------------------------------------------------------------
def _doc(values, failed=0, seed=1, commit="abc", counts=None):
    metric = lambda v, unit: {"value": v, "unit": unit, "n": 1}  # noqa: E731
    return {
        "commit": commit, "seed": seed, "seconds": 15, "comparable": True,
        "workloads": {"logs_plain": {
            "end_to_end": {
                "ingest_msgs_per_s": metric(values[0], "msgs/s"),
                "q_wide_p50_ms": metric(values[1], "ms"),
            },
            "ops_attempted": 1000, "ops_failed": failed,
            "counts": counts or {"messages_ingested": 5},
        }},
    }


def _verdicts(base, new):
    lines, status = compare.compare(base, new, SPEC)
    found = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "logs_plain" and parts[1] in ("ingest_msgs_per_s", "q_wide_p50_ms"):
            found[parts[1]] = parts[-1]
    return found, status


def test_compare_reports_a_win_only_beyond_the_spread():
    base = [_doc((30_000 + d, 500.0)) for d in (-300, 0, 300)]
    new = [_doc((36_000 + d, 500.0)) for d in (-300, 0, 300)]
    found, status = _verdicts(base, new)
    assert found == {"ingest_msgs_per_s": "improved", "q_wide_p50_ms": "unchanged"}
    assert status == 0


def test_compare_fails_on_a_regression_in_either_direction():
    base = [_doc((30_000, 500.0)), _doc((30_100, 505.0))]
    found, status = _verdicts(base, [_doc((22_000, 502.0)), _doc((22_100, 503.0))])
    assert found["ingest_msgs_per_s"] == "regression" and status == 1
    found, status = _verdicts(base, [_doc((30_000, 640.0)), _doc((30_100, 645.0))])
    assert found["q_wide_p50_ms"] == "regression" and status == 1


def test_compare_marks_a_noisy_pair_unresolved_not_unchanged():
    base = [_doc((30_000, v)) for v in (400.0, 500.0, 600.0, 700.0)]
    new = [_doc((30_000, v)) for v in (450.0, 520.0, 610.0, 640.0)]
    found, status = _verdicts(base, new)
    assert found["q_wide_p50_ms"] == "unresolved" and status == 2
    # ...unless every new run beats every base run, by more than the spread.
    new = [_doc((30_000, v)) for v in (100.0, 110.0, 120.0, 130.0)]
    assert _verdicts(base, new)[0]["q_wide_p50_ms"] == "improved"


def test_compare_holds_sim_determined_metrics_to_the_issue_bounds_per_seed():
    def doc(latency, ratio, seed=1, commit="abc"):
        d = _doc((30_000, 500.0), seed=seed, commit=commit)
        d["workloads"]["logs_plain"]["end_to_end"].update(
            alert_latency_sim_s={"value": latency, "unit": "sim-s", "n": 1},
            store_bytes_per_log_byte={"value": ratio, "unit": "ratio", "n": 1},
        )
        return d

    base = [doc(105.0, 0.84)]
    assert compare.compare(base, [doc(105.0, 0.845, commit="def")], SPEC)[1] == 0
    # One sim-second later, or 1.2 % more bytes: inside BENCHMARK.json's
    # cross-seed bounds, a regression seed by seed.
    assert compare.compare(base, [doc(106.0, 0.84, commit="def")], SPEC)[1] == 1
    assert compare.compare(base, [doc(105.0, 0.851, commit="def")], SPEC)[1] == 1
    assert compare.compare(base, [doc(104.0, 0.80, commit="def")], SPEC)[1] == 0
    # Another seed is another input: only the cross-seed bound applies.
    assert compare.compare(base, [doc(106.0, 0.84, seed=2, commit="def")], SPEC)[1] == 0


def test_compare_fails_on_more_failed_operations_or_unrepeatable_counts():
    base = [_doc((30_000, 500.0))]
    assert _verdicts(base, [_doc((30_000, 500.0), failed=1)])[1] == 1
    moved = _doc((30_000, 500.0), counts={"messages_ingested": 6})
    assert _verdicts(base, [moved])[1] == 1
    other_commit = _doc((30_000, 500.0), commit="def", counts={"messages_ingested": 6})
    assert _verdicts(base, [other_commit])[1] == 0


# -- the contract file and the whole command ---------------------------------
def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(loadgen.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == loadgen.WORKLOADS[w["name"]].why
    spans = {b[3] for b in layers.BOUNDARIES} | {layers.EXPORTERS_SPAN}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    # loki.chunks.decode folds into loki.chunks.read; bench.* into bench.generator.
    assert {f"{s}_ms" for s in spans - {"loki.chunks.decode"}} <= per_layer
    assert len(SPEC["end_to_end"]) == 12 and len(per_layer) <= 128
    # Every per-layer metric names its layer (a package under src/repro, or
    # the benchmark itself) and the end-to-end metrics it should move.
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    packages = {p.name for p in (HERE.parents[1] / "src" / "repro").iterdir()}
    for name in per_layer:
        assert name.split(".")[0] in packages | {"bench"}, name
        assert set(layers.moves(name)) <= end_to_end
        assert layers.moves(name) or name.startswith("bench."), name
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_smoke_run_of_all_four_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["comparable"] is False and doc["claim"] is None
    assert list(doc["workloads"]) == list(loadgen.WORKLOADS)
    for result in doc["workloads"].values():
        assert result["ops_failed"] == 0 and result["ops_attempted"] > 500
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
