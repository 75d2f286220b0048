#!/usr/bin/env python3
"""Compare two sets of result files, metric by metric, workload by workload.

    python3 benchmarks/perf/compare.py BASE NEW

``BASE`` and ``NEW`` are each a result file written by ``run.py`` or a
directory of them.  Every end-to-end metric is judged by its own bound
and direction from BENCHMARK.json, one row per (workload, metric):

  regression   NEW's median is worse than BASE's by more than the bound
  unresolved   BASE's own run-to-run spread (IQR / median) exceeds the
               bound, so "no change" cannot be told from noise -- unless
               every NEW run beats every BASE run, which is still a win
  improved     every NEW run beats every BASE run and the medians differ
               by more than BASE's spread
  unchanged    anything else

``alert_latency_sim_s`` and ``store_bytes_per_log_byte`` are fixed by the
simulation and repeat exactly for one seed, so they are also held seed by
seed to the issue's own bounds (exact, and 1 %): BENCHMARK.json's bounds
for them are wider only because the driver compares runs of different
seeds.

Exit status: 1 on a regression, on a higher ``ops_failed / ops_attempted``,
or when two runs of one commit and seed disagree on a deterministic count;
2 when nothing regressed but a row is unresolved; 0 otherwise.  A combined
score is never computed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Share by which a sim-determined metric may worsen between two runs of
#: one seed.
PER_SEED_BOUND = {"alert_latency_sim_s": 0.0, "store_bytes_per_log_byte": 0.01}


def load_set(path: pathlib.Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    docs = [d for d in docs if "workloads" in d]
    if not docs:
        raise SystemExit(f"{path}: no result files")
    for doc in docs:
        if not doc.get("comparable", True):
            raise SystemExit(f"{path}: smoke results are not comparable")
    return docs


def spread(values: list[float]) -> float | None:
    """IQR as a share of the median; ``None`` with fewer than two runs."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = sign * (mn - mb) / abs(mb) if mb else sign * (mn - mb)
    if worse_by > bound:
        return "regression"
    base_spread = spread(base) or 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if base_spread > bound and not all_better:
        return "unresolved"
    if all_better and -worse_by > base_spread:
        return "improved"
    return "unchanged"


def compare(base_docs: list[dict], new_docs: list[dict], spec: dict) -> tuple[list[str], int]:
    """Returns the report lines and the exit status."""
    lines = [
        f"{'workload':<16}{'metric':<26}{'base':>13}{'new':>13}{'change':>9}"
        f"{'spread':>9}{'bound':>7}  verdict"
    ]
    failed = unresolved = False
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs = [d["workloads"][workload] for d in base_docs if workload in d["workloads"]]
        new_runs = [d["workloads"][workload] for d in new_docs if workload in d["workloads"]]
        if not base_runs or not new_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["end_to_end"][name]["value"] for r in base_runs if name in r["end_to_end"]]
            new = [r["end_to_end"][name]["value"] for r in new_runs if name in r["end_to_end"]]
            if not base or not new:
                continue
            result = verdict(base, new, metric["better"], metric["bound"])
            failed |= result == "regression"
            unresolved |= result == "unresolved"
            mb, mn = statistics.median(base), statistics.median(new)
            base_spread = spread(base)
            lines.append(
                f"{workload:<16}{name:<26}{mb:>13.4f}{mn:>13.4f}"
                f"{(mn - mb) / mb if mb else 0.0:>+9.1%}"
                f"{'n/a' if base_spread is None else format(base_spread, '.1%'):>9}"
                f"{metric['bound']:>7.0%}  {result}"
            )

        def failure_ratio(runs):
            return sum(r["ops_failed"] for r in runs) / sum(r["ops_attempted"] for r in runs)

        if failure_ratio(new_runs) > failure_ratio(base_runs):
            failed = True
            lines.append(
                f"{workload:<16}ops_failed/ops_attempted rose: "
                f"{failure_ratio(base_runs):.2e} -> {failure_ratio(new_runs):.2e}  regression"
            )
        same_seed = [
            (b_doc["seed"], b_doc["commit"] == n_doc["commit"] != "unknown",
             b_doc["workloads"][workload], n_doc["workloads"][workload])
            for b_doc in base_docs for n_doc in new_docs
            if b_doc["seed"] == n_doc["seed"] and b_doc["seconds"] == n_doc["seconds"]
            and workload in b_doc["workloads"] and workload in n_doc["workloads"]
        ]
        for seed, same_commit, b_run, n_run in same_seed:
            for name, bound in PER_SEED_BOUND.items():  # both lower-is-better
                if name not in b_run["end_to_end"] or name not in n_run["end_to_end"]:
                    continue
                b, n = (r["end_to_end"][name]["value"] for r in (b_run, n_run))
                if (n - b) / b > bound:
                    failed = True
                    lines.append(
                        f"{workload:<16}seed {seed}: {name} {b:.6g} -> {n:.6g} "
                        f"({(n - b) / b:+.2%}, bound {bound:.0%})  regression"
                    )
            # Same commit too: every sim-determined count must repeat.
            differing = sorted(
                k for k in b_run["counts"] if b_run["counts"][k] != n_run["counts"].get(k)
            )
            if same_commit and differing:
                failed = True
                lines.append(
                    f"{workload:<16}seed {seed}: counts differ within one "
                    f"commit: {', '.join(differing)}  regression"
                )
    return lines, 1 if failed else 2 if unresolved else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    lines, status = compare(
        load_set(pathlib.Path(argv[0])), load_set(pathlib.Path(argv[1])), spec
    )
    print("\n".join(lines))
    print({0: "no regression", 1: "REGRESSION", 2: "no regression, but unresolved rows"}[status])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
