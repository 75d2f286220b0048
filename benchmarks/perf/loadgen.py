"""Workload definitions and the seeded input generator.

Everything the program under test sees comes out of this file: the log
lines (``repro.workloads.scenarios.steady_state_mix`` plus the optional
``pid`` fan-out), the fault schedule and the query plan.  The same
``(workload, seed, scale)`` always yields the same inputs, and the oracle
(:mod:`oracle`) computes its expectations from these values alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.cluster.topology import ClusterSpec
from repro.common.simclock import hours, minutes, seconds
from repro.common.xname import XName
from repro.workloads.loggen import GeneratedLog
from repro.workloads.scenarios import steady_state_mix

#: One publish slice; also the framework's default consumer cadence.
SLICE_NS = seconds(10)
#: Step of every range query class.
STEP_NS = minutes(5)
#: The query frontend's split interval (``FrameworkConfig`` default).
SPLIT_NS = hours(1)
#: Sim time run after the last slice so pending alerts are delivered.
SETTLE_NS = minutes(5)

#: Generated syslog comes from this many nodes (the small cluster's 32; one
#: chassis pair of the 512-node soak), so a host's tail has the same
#: density in every workload.
LOG_HOSTS = 32

#: A verified run needs one ``[5m]`` range and a step instant inside its
#: span, and sim time for the canary's alert to fire.
MIN_SIM_MINUTES = 6.0

QUERY_CLASSES = ("tail", "filter", "agg", "wide", "dash", "promql")

#: Nominal window per log-query class (clipped to half the ingested span).
_WINDOW_NS = {"tail": minutes(15), "filter": minutes(10), "agg": minutes(30)}

FILTER_NEEDLE = "I/O error"
FILTER_QUERY = '{data_type="syslog"} |= "' + FILTER_NEEDLE + '"'
AGG_QUERY = (
    'sum by (app) (count_over_time({app=~".+"} | json | level="error" [5m]))'
)
WIDE_QUERY = 'sum by (severity) (count_over_time({data_type="syslog"}[5m]))'
PROMQL_QUERIES = ("sum(node_up)", "avg by (cabinet) (node_temp_celsius)")


@dataclass(frozen=True)
class FaultSpec:
    """Faults of one kind: the first ``first_min`` sim-minutes in (or at
    ``first_frac`` of the span), then every ``every_min``, at most ``most``."""

    kind: str  # FaultKind member name
    first_min: float = 0.0
    first_frac: float = 0.0
    every_min: float = 0.0
    most: int = 1


#: Long enough for the alert to fire, short enough to resolve in the run.
FAULT_DURATION_NS = minutes(6)
#: An alert must get its own notification: a fault starts only if this
#: much of the span is left for the rule's ``for:`` and ``group_wait``.
FAULT_LEAD_NS = minutes(2)

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``None`` = the default 512-node ``ClusterSpec()``.
    cluster: tuple[int, int] | None  # (cabinets, chassis_per_cabinet)
    all_planes: bool
    lines: int
    sim_minutes: float
    pid_fanout: int
    queries: dict[str, int]
    faults: tuple[FaultSpec, ...]
    #: Query classes that are not this workload's own.  The driver wants
    #: every end-to-end metric from every run, so they ride along, few
    #: enough to stay a percent or two of the wall.
    carried: tuple[str, ...] = ("dash", "promql")

    def cluster_spec(self) -> ClusterSpec:
        if self.cluster is None:
            return ClusterSpec()
        return ClusterSpec(
            cabinets=self.cluster[0], chassis_per_cabinet=self.cluster[1]
        )

    @property
    def span_ns(self) -> int:
        return int(self.sim_minutes * 60) // 10 * SLICE_NS

    def scaled(
        self, factor: float, min_tail: int = 1, min_minutes: float = MIN_SIM_MINUTES
    ) -> "Workload":
        """Lines and sim-minutes shrink together by one factor, so lines per
        sim-second, the stream population and the query-class list are
        unchanged.  The factor is raised where it would leave less than
        ``min_minutes`` of sim time."""
        factor = max(factor, min_minutes / self.sim_minutes)
        if factor == 1.0:
            return self
        queries = {
            cls: max(min_tail if cls == "tail" else 1, round(n * factor))
            for cls, n in self.queries.items()
        }
        return replace(
            self,
            lines=round(self.lines * factor),
            sim_minutes=self.sim_minutes * factor,
            queries=queries,
        )


_CANARY = (FaultSpec("CABINET_LEAK", first_frac=1 / 12),)

#: 2 leaks, 6 switches, 6 nodes once the span reaches ~45 sim-min.  Faults
#: of one kind share an Alertmanager group (alertname, cluster) whose
#: ``group_interval`` is 5 min while a switch or node alert fires for ~4,
#: so same-kind faults sit 8 min apart: each alert then opens its own
#: group and is sent firing, not first seen resolved at a later flush.
_SOAK_FAULTS = (
    FaultSpec("CABINET_LEAK", first_min=0.5, every_min=30, most=2),
    FaultSpec("SWITCH_OFFLINE", first_min=1.5, every_min=8, most=6),
    FaultSpec("NODE_DOWN", first_min=2.5, every_min=8, most=6),
)

#: Sizes are for ``--seconds 15`` on the 2-core reference box: the issue's
#: probe sizes, each workload's lines and sim-minutes cut by one factor so
#: that 4 + 22 x 4 driver runs fit the contract's cap -- but for
#: ``logs_allplanes``, which trades line rate for span (README, "Sizing").
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="logs_plain",
            why=(
                "Fig. 1 path with every plane off: bus, telemetry API, consumers, "
                "warehouse, LokiStore/chunks/LogQL do all the work; the bypass "
                "workload for every plane optimisation."
            ),
            cluster=(1, 2),
            all_planes=False,
            lines=120_000,
            sim_minutes=96,
            pid_fanout=0,
            queries={"tail": 400, "filter": 36, "agg": 12, "wide": 6,
                     "dash": 12, "promql": 12},
            faults=_CANARY,
        ),
        Workload(
            name="logs_allplanes",
            why=(
                "Same streams, all eight enable_* planes on: the gap to logs_plain is "
                "the flag tax (ring/WAL, admission, miner); 150 sim-min outlast the "
                "2-h chunk age, so shipper, compactor and cold reads work here."
            ),
            cluster=(1, 2),
            all_planes=True,
            # The span outlasts the 2-h chunk max-age by six 5-min flushes
            # and one 30-min compaction, so the first half hour's chunks
            # are sealed, shipped and compacted, and reads of the first two
            # hours come from the cold tier.
            lines=15_000,
            sim_minutes=150,
            pid_fanout=0,
            queries={"tail": 400, "filter": 36, "agg": 12, "wide": 6,
                     "dash": 12, "promql": 12},
            faults=_CANARY,
        ),
        Workload(
            name="logs_highcard",
            why=(
                "All planes on, a pid label of fan-out 8: ~1 400 streams of ~3 "
                "entries, so stream creation, index growth and O(streams) periodic "
                "scans dominate, not per-entry append; no chunk seals, reads stay hot."
            ),
            cluster=(1, 2),
            all_planes=True,
            lines=5_000,
            sim_minutes=22.5,
            pid_fanout=8,
            # Ten is every distinct range shape a 22.5-min span holds.
            queries={"tail": 400, "filter": 12, "agg": 10, "wide": 10,
                     "dash": 12, "promql": 12},
            faults=_CANARY,
        ),
        Workload(
            name="telemetry_soak",
            why=(
                "512 nodes / 64 switches, planes off, machine telemetry plus 14 "
                "faults: tsdb, exporters, hms/ldms, alerting, ServiceNow, Slack and "
                "Grafana do the work and the Loki write path does little."
            ),
            cluster=None,
            all_planes=False,
            # A thin log stream (32 of the 512 nodes; < 3 % of the messages)
            # only so the four log-query classes have checked answers here
            # too: the driver wants every end-to-end metric from every run.
            lines=12_500,
            sim_minutes=50,
            pid_fanout=0,
            queries={"tail": 400, "filter": 36, "agg": 12, "wide": 10,
                     "dash": 24, "promql": 20},
            faults=_SOAK_FAULTS,
            carried=("tail", "filter", "agg", "wide"),
        ),
    )
}


@dataclass(frozen=True)
class Query:
    """One read request.  ``cls`` and ``param`` are all the oracle looks
    at; ``text`` is what the program gets."""

    cls: str
    text: str
    start_ns: int
    end_ns: int
    step_ns: int = 0
    param: str = ""


@dataclass(frozen=True)
class ScheduledFault:
    kind: str
    target: str
    start_ns: int
    duration_ns: int


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, fixed by (workload, seed)."""

    t0_ns: int
    span_ns: int
    logs: list[GeneratedLog]
    queries: list[Query]
    faults: list[ScheduledFault]

    def slices(self):
        """Logs grouped by the 10-sim-second slice that ends after them."""
        out: list[list[GeneratedLog]] = [[] for _ in range(self.span_ns // SLICE_NS)]
        for log in self.logs:
            out[(log.timestamp_ns - self.t0_ns) // SLICE_NS].append(log)
        return out


def generate_logs(
    nodes: list[XName], w: Workload, seed: int, t0_ns: int
) -> list[GeneratedLog]:
    logs = steady_state_mix(nodes, w.lines, t0_ns, w.span_ns, seed=seed)
    if w.pid_fanout:
        rng = random.Random(f"pid:{seed}")
        for log in logs:
            log.labels["pid"] = str(rng.randrange(w.pid_fanout))
    return logs


def _aligned(rng: random.Random, lo_ns: int, hi_ns: int) -> int:
    """A whole-second instant in ``[lo, hi]``."""
    if hi_ns <= lo_ns:
        return lo_ns
    return lo_ns + seconds(rng.randrange((hi_ns - lo_ns) // seconds(1) + 1))


def _grid_shapes(span: int, widest: int, count: int) -> list[tuple[int, int]]:
    """``count`` range-query shapes ``(start slot, width)`` on the step grid
    from t0, all inside the span: the widest first, then shorter ones, and
    repeats only once the span has no distinct shape left (a repeat is a
    frontend cache hit, and a class median should be that of a miss).  The
    shapes do not depend on the seed, so neither does what the frontend
    finds cached; the data under them does.

    On the grid, two instances either are the same query or differ in
    start bucket or length.  Same-length range queries inside one frontend
    split window that share a step bucket but not a phase collide in
    QueryFrontend's cache key today (README, finding 4), and the workloads
    must be ones on which no operation fails.
    """
    shapes: list[tuple[int, int]] = []
    for width in range(widest, -1, -STEP_NS):
        shapes += [
            (slot, width) for slot in range(1, (span - 1 - width) // STEP_NS + 1)
        ]
        if len(shapes) >= count:
            break
    shapes = shapes or [(1, 0)]
    return [shapes[i % len(shapes)] for i in range(count)]


def plan_queries(
    nodes: list[XName], w: Workload, seed: int, t0_ns: int
) -> list[Query]:
    """Tail and filter windows are drawn once from the seed; every log
    query lies inside the ingested span ``[t0, t0 + span)``."""
    rng = random.Random(f"queries:{w.name}:{seed}")
    span = w.span_ns
    end_of_data = t0_ns + span
    out: list[Query] = []
    hostnames = [str(x) for x in nodes]
    for _ in range(w.queries["tail"]):
        width = min(_WINDOW_NS["tail"], span // 2)
        start = _aligned(rng, t0_ns, end_of_data - width)
        host = rng.choice(hostnames)
        out.append(
            Query("tail", '{hostname="' + host + '"}', start, start + width, param=host)
        )
    for _ in range(w.queries["filter"]):
        width = min(_WINDOW_NS["filter"], span // 2)
        start = _aligned(rng, t0_ns, end_of_data - width)
        out.append(Query("filter", FILTER_QUERY, start, start + width))
    whole = max(0, span - 1 - STEP_NS) // STEP_NS * STEP_NS
    for slot, width in _grid_shapes(span, min(_WINDOW_NS["agg"], whole), w.queries["agg"]):
        start = t0_ns + slot * STEP_NS
        out.append(Query("agg", AGG_QUERY, start, start + width, STEP_NS))
    if whole > SPLIT_NS:
        # Each instance a minute after the last: five step phases, so the
        # first five miss the frontend's cache and the sixth finds the
        # first one's whole hours in it; the hit ratio is then measured,
        # not 0 or 1.  Wider than a split window, every sub-window is cut
        # by a split boundary and finding 4 cannot bite.  (A seventh would
        # start back where the first did: one more step would leave the span.)
        wide = [(STEP_NS + minutes(i % 6), whole - STEP_NS) for i in range(w.queries["wide"])]
    else:
        wide = [(slot * STEP_NS, width) for slot, width in
                _grid_shapes(span, whole, w.queries["wide"])]
    for offset, width in wide:
        out.append(Query("wide", WIDE_QUERY, t0_ns + offset, t0_ns + offset + width, STEP_NS))
    # Dashboards and PromQL look back from "now", which the harness knows
    # only once ingest has drained; it fills their window in.
    out += [Query("dash", "overview", 0, 0)] * w.queries["dash"]
    out += [
        Query("promql", PROMQL_QUERIES[i % len(PROMQL_QUERIES)], 0, 0)
        for i in range(w.queries["promql"])
    ]
    return _interleaved(out, w.queries)


def _interleaved(queries: list[Query], counts: dict[str, int]) -> list[Query]:
    """Each class spread evenly over the whole read phase.  The host's
    speed drifts within seconds and caches fill as reads go by; a class
    issued back to back would read one moment of both, a class spread out
    reads the phase's average."""
    seen: dict[str, int] = {}
    keyed = []
    for q in queries:
        i = seen.get(q.cls, 0)
        seen[q.cls] = i + 1
        keyed.append(((i + 0.5) / counts[q.cls], q))
    keyed.sort(key=lambda pair: pair[0])
    return [q for _position, q in keyed]


def plan_faults(
    cluster, w: Workload, seed: int, t0_ns: int
) -> list[ScheduledFault]:
    """Targets are drawn from the seed without replacement, so each fault
    maps to its own alert label set (and so its own incident)."""
    rng = random.Random(f"faults:{w.name}:{seed}")
    pools = {
        "CABINET_LEAK": [str(x) for x in sorted(cluster.cabinets)],
        "SWITCH_OFFLINE": [str(x) for x in sorted(cluster.switches)],
        "NODE_DOWN": [str(x) for x in sorted(cluster.nodes)],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    out = []
    for spec in w.faults:
        offset = minutes(spec.first_min) + int(spec.first_frac * w.span_ns)
        for _ in range(spec.most):
            if offset > w.span_ns - FAULT_LEAD_NS:
                break
            # Off the 10-s poll grid by a seeded second or so, as a real
            # fault would be; detection latency then varies with the seed.
            start = t0_ns + offset // SLICE_NS * SLICE_NS + seconds(rng.randrange(10))
            out.append(
                ScheduledFault(spec.kind, pools[spec.kind].pop(), start, FAULT_DURATION_NS)
            )
            offset += minutes(spec.every_min)
    out.sort(key=lambda f: f.start_ns)
    return out


def build_inputs(cluster, w: Workload, seed: int, t0_ns: int) -> Inputs:
    nodes = sorted(cluster.nodes)[:LOG_HOSTS]
    return Inputs(
        t0_ns=t0_ns,
        span_ns=w.span_ns,
        logs=generate_logs(nodes, w, seed, t0_ns),
        queries=plan_queries(nodes, w, seed, t0_ns),
        faults=plan_faults(cluster, w, seed, t0_ns),
    )
