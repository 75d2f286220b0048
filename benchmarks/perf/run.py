#!/usr/bin/env python3
"""One command for the whole pipeline benchmark.

    python3 benchmarks/perf/run.py                      # four workloads, seed 1
    python3 benchmarks/perf/run.py --workload logs_plain --seed 2 --trace
    python3 benchmarks/perf/run.py --smoke              # 1/20 sizes, < 30 s

Each workload runs in its own subprocess (``PYTHONHASHSEED=0``), so
``peak_rss_mb`` and ``setup_s`` are per workload.  End-to-end metrics come
from an untraced run only; ``--trace`` adds a second, wrapped run for the
per-layer table.  The last line of standard output is one JSON object per
the driver contract in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
#: Sizes in loadgen.WORKLOADS take about this long to measure on the
#: 2-core reference box; ``--seconds`` scales lines and sim-minutes by
#: ``seconds / REFERENCE_SECONDS``, so a seed and a length fix the inputs.
REFERENCE_SECONDS = 15
SMOKE_FACTOR = 1 / 20
#: Warm-up size as a share of the measured size (same code paths).
WARMUP_FACTOR = 0.05
#: Process starts per untraced run whose set-up time is measured.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: The paper's OMNI ingest capability (PAPER.md); printed, never gated.
PAPER_MSGS_PER_S = 400_000


def contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Child: one process, one workload, one mode
# ---------------------------------------------------------------------------
def child_main(spec: dict) -> dict:
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    import hostspeed

    # Sampling from here on, so set-up too is read at the reference speed.
    speed = hostspeed.HostSpeed()
    sampling_since = time.perf_counter_ns()
    speed.start()
    try:
        return _child_run(spec, speed, sampling_since)
    finally:
        speed.stop()


def _child_run(spec: dict, speed, sampling_since: int) -> dict:
    import layers

    tracer = None
    if spec["mode"] == "trace":
        # On the classes, before any framework exists: periodic callbacks
        # are bound at start().
        tracer = layers.Tracer()
        tracer.install()
    import harness
    import loadgen

    w = loadgen.WORKLOADS[spec["workload"]].scaled(
        spec["factor"], min_tail=1 if spec["smoke"] else harness.P95_MIN_SAMPLES
    )
    harness.Run(
        w.scaled(WARMUP_FACTOR, min_minutes=2), spec["seed"], speed, tracer
    ).execute()
    run = harness.Run(w, spec["seed"], speed, tracer)
    setup_raw_s = time.time() - spec["spawned_at"]
    now = time.perf_counter_ns()
    setup_s = setup_raw_s * speed.at_reference_speed(sampling_since, now) / (now - sampling_since)
    if spec["mode"] == "setup":
        return {"value": setup_s, "raw": setup_raw_s}

    if tracer is not None:
        tracer.begin()
    run.execute()
    if tracer is not None:
        tracer.end()
    attempted, failed = run.verify()
    out = {
        "workload": w.name,
        "why": w.why,
        "carried": w.carried,
        "lines": w.lines,
        "sim_minutes": w.sim_minutes,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "problems": run.problems[:20],
        "wall_s": run.wall_s(),
        "wall_raw_s": run.wall_s(raw=True),
        "host_unit_ns": speed.unit_cost_ns(*run.wall_span),
        "counts": run.counts(),
    }
    if tracer is None:
        out["end_to_end"] = run.end_to_end()
        out["end_to_end"]["setup_s"] = {"value": setup_s, "n": 1, "raw": setup_raw_s}
    else:
        out["per_layer"] = harness.per_layer(
            run, spec["untraced_wall_s"], [m["name"] for m in contract()["per_layer"]]
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{w.name}.spans.jsonl", f"{w.name}-seed{spec['seed']}")
    return out


def spawn(spec: dict) -> dict:
    """Run one child to completion and return its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, spawned_at=time.time())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{spec['workload']} ({spec['mode']}) exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, factor: float, trace: bool, smoke: bool,
                 setup_samples: int, units: dict[str, str]) -> dict:
    spec = {"workload": name, "seed": seed, "factor": factor, "smoke": smoke}
    result = spawn(dict(spec, mode="measure"))
    for metric, m in result["end_to_end"].items():
        m["unit"] = units[metric]
    setups = [result["end_to_end"]["setup_s"]]
    setups += [spawn(dict(spec, mode="setup")) for _ in range(setup_samples - 1)]
    result["end_to_end"]["setup_s"].update(
        value=statistics.median(s["value"] for s in setups),
        raw=statistics.median(s["raw"] for s in setups),
        n=len(setups),
    )
    if trace:
        traced = spawn(dict(spec, mode="trace", untraced_wall_s=result["wall_s"]))
        if traced["counts"] != result["counts"]:
            traced["ops_failed"] += 1
            traced["problems"].append("traced and untraced runs disagree on counts")
        result["per_layer"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in traced["per_layer"].items()
        }
        result["traced"] = {
            k: traced[k]
            for k in ("ops_attempted", "ops_failed", "problems", "wall_s", "wall_raw_s")
        }
    return result


def print_report(result: dict, bounds: dict, comparable: bool) -> None:
    import layers

    note = "" if comparable else "  [smoke sizes: NOT comparable]"
    print(f"\n== {result['workload']}: {result['lines']} lines over "
          f"{result['sim_minutes']:g} sim-min{note}")
    print(f"   {result['why']}")
    print(f"   {'metric':<26}{'value':>14}{'raw wall':>14}  {'unit':<7}{'n':>8}  bound")
    for name, m in result["end_to_end"].items():
        raw = f"{m['raw']:>14.4f}" if "raw" in m else " " * 14
        # q_<class>_p50_ms of a class this workload only carries for the driver.
        carried = "  (carried)" if name.split("_")[1] in result["carried"] else ""
        print(f"   {name:<26}{m['value']:>14.4f}{raw}  {m['unit']:<7}{m['n']:>8}"
              f"  {bounds[name]['bound']:.0%}{carried}")
    rate = result["end_to_end"]["ingest_msgs_per_s"]["raw"]
    print(f"   reference line (never gated): paper's OMNI ingests "
          f"{PAPER_MSGS_PER_S:,} msgs/s; this run is {rate / PAPER_MSGS_PER_S:.1%} of it")
    print(f"   ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    if "per_layer" in result:
        wall = result["per_layer"]["bench.traced_wall_ms"]["value"]
        print(f"   per layer (traced run, {wall / 1e3:.2f} s wall; share is self time / wall)")
        print(f"   {'metric':<40}{'value':>16}  {'unit':<6}{'share':>6}  should move")
        for name, m in result["per_layer"].items():
            share = f"{m['value'] / wall:6.1%}" if m["unit"] == "ms" and wall else " " * 6
            print(f"   {name:<40}{m['value']:>16.3f}  {m['unit']:<6}{share}"
                  f"  {', '.join(layers.moves(name)) or '-'}")
        for problem in result["traced"]["problems"]:
            print(f"   FAILED (traced): {problem}")


def driver_line(result: dict, trace: bool, names: dict) -> str:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    section = "per_layer" if trace else "end_to_end"
    source = result["traced"] if trace else result
    metrics = {
        name: {"value": result[section][name]["value"], "unit": result[section][name]["unit"]}
        for name in names[section]
        if name in result[section]  # smoke has too few tails for a p95
    }
    return json.dumps({
        "correct": source["ops_failed"] == 0,
        "attempted": source["ops_attempted"],
        "failed": source["ops_failed"],
        "metrics": metrics,
    })


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="measured length the sizes are scaled to")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="also run traced, for the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 sizes; correctness only, metrics not comparable")
    parser.add_argument("--out", type=pathlib.Path, help="result file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0

    spec = contract()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    factor = SMOKE_FACTOR if args.smoke else args.seconds / REFERENCE_SECONDS
    trace = bool(args.trace)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }

    results = []
    for name in workloads:
        # A traced invocation spends its time on the second, wrapped run,
        # not on repeating set-up.
        result = run_workload(
            name, args.seed, factor, trace, args.smoke,
            setup_samples=1 if trace or args.smoke else SETUP_SAMPLES,
            units={m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        )
        print_report(result, bounds, comparable=not args.smoke)
        results.append(result)

    document = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": not args.smoke,
        "workloads": {r["workload"]: r for r in results},
        "claim": None,
    }
    out = args.out or OUT_DIR / (
        f"result-seed{args.seed}{'-trace' if trace else ''}{'-smoke' if args.smoke else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nresult file: {out}", flush=True)

    for result in results:
        print(driver_line(result, trace, names))
    return 1 if any(
        r["ops_failed"] or r.get("traced", {}).get("ops_failed") for r in results
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
