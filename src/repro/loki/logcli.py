"""LogCLI: Loki's command-line query client.

Paper §III.A: "The queries can be executed and visualized using Grafana
or a command line interface, LogCLI."  This module is that interface for
the in-process store: log queries print lines (optionally JSONL), metric
queries print instant vectors or step series, and ``labels`` /
``series`` subcommands browse the index.

Programmatic use::

    from repro.loki.logcli import run_logcli
    output = run_logcli(store, ["query", '{app="fm"} |= "offline"',
                                "--from", "0", "--to", "3600000000000"])
"""

from __future__ import annotations

import argparse
import json

from repro.common.errors import QueryError, ValidationError
from repro.common.jsonutil import ns_to_iso8601
from repro.common.labels import LabelSet
from repro.loki.logql.ast import LogPipeline
from repro.loki.logql.engine import LogQLEngine
from repro.loki.logql.parser import parse
from repro.loki.store import LokiStore


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcli", description="Query the Loki store from the command line."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a LogQL log or metric query")
    query.add_argument("logql", help="the LogQL expression")
    query.add_argument("--from", dest="from_ns", type=int, required=True,
                       help="window start, ns epoch (inclusive)")
    query.add_argument("--to", dest="to_ns", type=int, required=True,
                       help="window end, ns epoch (exclusive; metric "
                            "queries evaluate at this instant)")
    query.add_argument("--limit", type=int, default=100,
                       help="max log lines or pattern rows printed "
                            "(default 100; 0 = no limit)")
    query.add_argument("--step", type=int, default=None,
                       help="step in ns: evaluate a metric range query "
                            "instead of an instant query")
    query.add_argument("--output", choices=("default", "jsonl", "raw"),
                       default="default")
    query.add_argument("--patterns", action="store_true",
                       help="show mined log templates for a bare selector "
                            "(Loki's detected_patterns) instead of lines")

    sub.add_parser("labels", help="list label names in the index")

    values = sub.add_parser("label-values", help="list values of one label")
    values.add_argument("label")

    series = sub.add_parser("series", help="list streams matching a selector")
    series.add_argument("selector")

    slo = sub.add_parser(
        "slo", help="service-level objective status (budget, burn, state)"
    )
    slo.add_argument("--output", choices=("default", "jsonl"),
                     default="default")
    return parser


def run_logcli(store: LokiStore, argv: list[str], patterns=None, slo=None) -> str:
    """Execute one LogCLI invocation against ``store``; returns the output.

    ``patterns`` is an optional pattern store enabling ``query
    --patterns`` (``detected_patterns``); ``slo`` is an optional
    :class:`~repro.slo.manager.SloManager` enabling the ``slo``
    status-table subcommand."""
    args = _build_parser().parse_args(argv)
    if args.command == "slo":
        return _run_slo(slo, args)
    engine = LogQLEngine(store, patterns=patterns)
    # Browsing reads ``stream_labels()``, which every store shape has
    # (cold-only streams included); a label index only the bare one.
    if args.command == "labels":
        return "\n".join(sorted({n for ls in store.stream_labels() for n in ls}))
    if args.command == "label-values":
        streams = store.stream_labels()
        return "\n".join(sorted({ls[args.label] for ls in streams if args.label in ls}))
    if args.command == "series":
        expr = parse(args.selector)
        if not isinstance(expr, LogPipeline) or expr.stages:
            raise QueryError("series takes a bare stream selector")
        matching = store.stream_labels(expr.matchers)
        return "\n".join(str(ls) for ls in sorted(matching, key=LabelSet.items_tuple))
    return _run_query(store, engine, args)


def _run_query(store: LokiStore, engine: LogQLEngine, args) -> str:
    if args.to_ns <= args.from_ns:
        raise ValidationError("--to must be after --from")
    if args.limit < 0:
        raise ValidationError("--limit must be >= 0 (0 = no limit)")
    if args.patterns:
        return _run_patterns(engine, args)
    expr = parse(args.logql)
    if isinstance(expr, LogPipeline):
        results = engine.query_logs(expr, args.from_ns, args.to_ns)
        rows = []
        for labels, entries in results:
            for entry in entries:
                rows.append((entry.timestamp_ns, labels, entry.line))
        rows.sort(key=lambda r: r[0])
        if args.limit:
            rows = rows[-args.limit:]  # newest lines win, as in logcli
        out = []
        for ts, labels, line in rows:
            if args.output == "jsonl":
                out.append(json.dumps(
                    {"ts": ts, "labels": labels.to_dict(), "line": line}
                ))
            elif args.output == "raw":
                out.append(line)
            else:
                out.append(f"{ns_to_iso8601(ts)} {labels} {line}")
        return "\n".join(out)
    if args.step is not None:
        series = engine.query_range(expr, args.from_ns, args.to_ns, args.step)
        out = []
        for s in series:
            points = " ".join(f"{ts}:{value:g}" for ts, value in s.points)
            out.append(f"{s.labels} {points}")
        return "\n".join(out)
    samples = engine.query_instant(expr, args.to_ns)
    return "\n".join(f"{s.labels} => {s.value:g}" for s in samples)


def _run_patterns(engine: LogQLEngine, args) -> str:
    """Render ``detected_patterns`` as a table (or JSONL), busiest first."""
    rows = engine.detected_patterns(args.logql, args.from_ns, args.to_ns)
    if args.limit:
        rows = rows[: args.limit]
    if args.output == "jsonl":
        return "\n".join(
            json.dumps(
                {
                    "pattern_id": r.pattern_id,
                    "template": r.template,
                    "count": r.count,
                    "streams": r.streams,
                    "first_ts": r.first_ts_ns,
                    "last_ts": r.last_ts_ns,
                }
            )
            for r in rows
        )
    header = ("COUNT", "STREAMS", "PATTERN_ID", "TEMPLATE")
    table = [header] + [
        (str(r.count), str(r.streams), r.pattern_id, r.template) for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(3)]
    out = []
    for count, streams, pid, template in table:
        out.append(
            f"{count:>{widths[0]}}  {streams:>{widths[1]}}  "
            f"{pid:<{widths[2]}}  {template}"
        )
    return "\n".join(out)


def _run_slo(manager, args) -> str:
    """Render the SLO status table (or JSONL), like ``--patterns``."""
    if manager is None:
        raise ValidationError(
            "the slo subcommand needs an SLO manager (enable the SLO plane)"
        )
    rows = manager.status()
    if args.output == "jsonl":
        return "\n".join(
            json.dumps(
                {
                    "slo": r["slo"],
                    "objective": r["objective"],
                    "window": r["window"],
                    "budget_remaining": r["budget_remaining"],
                    "fast_burn": r["fast_burn"],
                    "slow_burn": r["slow_burn"],
                    "state": r["state"],
                }
            )
            for r in rows
        )
    header = ("SLO", "OBJECTIVE", "BUDGET_LEFT", "FAST_BURN", "SLOW_BURN",
              "STATE")
    table = [header] + [
        (
            str(r["slo"]),
            f"{float(r['objective']) * 100:g}%",
            f"{float(r['budget_remaining']) * 100:.1f}%",
            f"{float(r['fast_burn']):.2f}x",
            f"{float(r['slow_burn']):.2f}x",
            str(r["state"]),
        )
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    out = []
    for name, objective, budget, fast, slow, state in table:
        out.append(
            f"{name:<{widths[0]}}  {objective:>{widths[1]}}  "
            f"{budget:>{widths[2]}}  {fast:>{widths[3]}}  "
            f"{slow:>{widths[4]}}  {state}"
        )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin shell
    """OS entry point querying an empty store (demonstration only)."""
    print(run_logcli(LokiStore(), argv or []))
    return 0
