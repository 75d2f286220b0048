"""Reference answers computed from the generator's inputs alone.

Nothing here imports the program's query code (``repro.loki.logql``,
``repro.queryx``, ``repro.tsdb.promql``): expectations are derived from
the ``GeneratedLog`` list and the query descriptors with plain Python,
so a hot-path rewrite that changes results fails the benchmark instead
of speeding it up.

Range semantics mirrored here (and asserted by the harness against the
program): log queries select ``start <= ts < end``; a range aggregation
evaluated at ``t`` over ``[5m]`` counts ``t - 5m < ts <= t`` and emits no
point where the count is zero.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict

#: Query classes with a reference answer.
CLASSES = ("tail", "filter", "agg", "wide")

#: Must equal the ``[5m]`` in loadgen's AGG_QUERY / WIDE_QUERY.
RANGE_NS = 5 * 60 * 1_000_000_000


class Oracle:
    """Indexes one generated corpus; answers each query class."""

    def __init__(self, logs, needle: str) -> None:
        self.totals: Counter[str] = Counter()
        self.bytes_published = 0
        by_host: dict[str, list[int]] = defaultdict(list)
        by_severity: dict[str, list[int]] = defaultdict(list)
        errors_by_app: dict[str, list[int]] = defaultdict(list)
        needle_ts: list[int] = []
        for log in logs:
            labels, ts = log.labels, log.timestamp_ns
            self.totals[labels["data_type"]] += 1
            self.bytes_published += len(log.line)
            if labels["data_type"] == "syslog":
                by_host[labels["hostname"]].append(ts)
                by_severity[labels["severity"]].append(ts)
                if needle in log.line:
                    needle_ts.append(ts)
            elif json.loads(log.line).get("level") == "error":
                errors_by_app[labels["app"]].append(ts)
        # Generated timestamps arrive sorted; sort anyway so a corpus
        # built by hand (the harness tests) needs no ordering.
        self._by_host = {k: sorted(v) for k, v in by_host.items()}
        self._by_severity = {k: sorted(v) for k, v in by_severity.items()}
        self._errors_by_app = {k: sorted(v) for k, v in errors_by_app.items()}
        self._needle_ts = sorted(needle_ts)

    @staticmethod
    def _between(ts: list[int], start_ns: int, end_ns: int) -> int:
        """Entries with ``start <= ts < end``."""
        return bisect_left(ts, end_ns) - bisect_left(ts, start_ns)

    @staticmethod
    def _steps(groups: dict[str, list[int]], q) -> dict[tuple[str, int], int]:
        out = {}
        t = q.start_ns
        while t <= q.end_ns:
            for key, ts in groups.items():
                n = bisect_right(ts, t) - bisect_right(ts, t - RANGE_NS)
                if n:
                    out[(key, t)] = n
            t += q.step_ns
        return out

    def expect(self, q):
        """Tail/filter: a line count.  Agg/wide: ``{(label, t): count}``."""
        if q.cls == "tail":
            return self._between(self._by_host.get(q.param, []), q.start_ns, q.end_ns)
        if q.cls == "filter":
            return self._between(self._needle_ts, q.start_ns, q.end_ns)
        if q.cls == "agg":
            return self._steps(self._errors_by_app, q)
        if q.cls == "wide":
            return self._steps(self._by_severity, q)
        raise ValueError(f"no reference for query class {q.cls!r}")


def _names(fault, text: str) -> bool:
    """A leak is reported by a chassis controller of the leaking cabinet
    (``x1000`` -> ``x1000c1b0``); switches and nodes by their own xname."""
    if fault.kind == "CABINET_LEAK":
        return re.search(rf"\b{fault.target}c\d+b\d+\b", text) is not None
    return re.search(rf"\b{fault.target}\b", text) is not None


def check_faults(faults, incidents, slack_texts) -> tuple[list[str], list[int]]:
    """Each scheduled fault opened exactly one incident on its own CI,
    after the fault began, and is named in at least one Slack post.

    ``incidents`` is ``[(ci_name, opened_at_ns)]``.  Returns one message
    per violated expectation, and fault start -> incident opened in ns for
    every fault that has its one incident.
    """
    problems, latencies_ns = [], []
    for fault in faults:
        opened = [at for ci, at in incidents if _names(fault, ci)]
        if len(opened) != 1:
            problems.append(
                f"{fault.kind} {fault.target}: {len(opened)} incidents, want 1"
            )
        elif opened[0] <= fault.start_ns:
            problems.append(f"{fault.kind} {fault.target}: incident precedes fault")
        else:
            latencies_ns.append(opened[0] - fault.start_ns)
        if not any(_names(fault, text) for text in slack_texts):
            problems.append(f"{fault.kind} {fault.target}: no Slack post names it")
    return problems, latencies_ns
