"""Every exporter's exposition text, pinned as data.

``exposition_golden.json`` records, for the wiring manifest's eleven
plane configurations on the small cluster, the exact text of the batch
every scrape target handed vmagent at three of its scrapes of one short
seeded run:
the first (every since-last-scrape gauge baselines against zero, the
query scheduler is idle so six ``tenant_query_*`` families are a header
and nothing else), one in the middle of the faults (an ingester down, a
receiver refusing, a tenant flooding, a log storm — whichever the
config's planes accept — so the one-hot ``ring_member_state``, the
discard and burst gauges and the top-ten templates all carry values) and
one several quiet scrapes later (the gauges have fallen back).  Header
lines, family order, point order, label order and value spelling are all
in the text, so a change to how an exporter is written shows up here as
a diff in data.  Regenerate with::

    PYTHONPATH=src python -m tests.test_exposition_golden > tests/exposition_golden.json

A target whose text equals the planes-off run's at the same scrape is
recorded as ``"= planes-off"`` (the aruba fleet is 384 lines a scrape and
does not care which planes are on).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cluster.faults import FaultKind
from repro.common.simclock import minutes, seconds
from repro.core.framework import MonitoringFramework
from repro.tenancy.limits import TenantLimits
from tests.test_wiring_manifest import CONFIGS, _config

GOLDEN_PATH = Path(__file__).with_name("exposition_golden.json")

#: The scrapes kept, by 1-based round: first, mid-fault, quiet.
ROUNDS = {"first": 1, "faulted": 4, "quiet": 9}
BASELINE = "planes-off"
SAME = f"= {BASELINE}"

#: Fifteen line shapes, so the miner holds more templates than the
#: exporter's top ten.
SHAPES = (
    "kernel: eth{n} link state change seq={n}",
    "sshd: accepted publickey for user{n} from 10.0.0.{n}",
    "slurmd: job {n} started on partition gpu",
    "slurmd: job {n} completed with status 0",
    "lustre: client evicted by mdt{n} after timeout",
    "error: disk sd{n} reported io failure",
    "systemd: started session {n} of user root",
    "chronyd: selected source 10.1.1.{n}",
    "nhc: check {n} passed on node",
    "error: gpu {n} fell off the bus",
    "dvs: mount point /scratch{n} became unavailable",
    "kernel: oom killer invoked by pid {n}",
    "cxi: link {n} retrained at reduced speed",
    "munge: credential for uid {n} expired",
    "power: cabinet feed {n} voltage nominal",
)


def _schedule_faults(fw: MonitoringFramework) -> None:
    """The faults this configuration's planes accept, all inside
    [2 min, 5 min) so round 4 sees them live and round 9 sees them gone."""
    node = sorted(fw.cluster.nodes)[3]
    window = dict(delay_ns=minutes(2), duration_ns=minutes(3))
    fw.faults.schedule(FaultKind.NODE_DOWN, node, **window)
    if fw.ring is not None:
        fw.faults.schedule(FaultKind.INGESTER_CRASH, "ingester-1", **window)
    if fw.journal is not None:
        fw.faults.schedule(FaultKind.RECEIVER_OUTAGE, "slack", **window)
    if fw.admission is not None:
        fw.faults.schedule(
            FaultKind.NOISY_NEIGHBOR, "noisy", lines_per_tick=300,
            queries_per_tick=1, query='count_over_time({app="noisy-app"}[1m])',
            interval_ns=seconds(10), **window,
        )
    if fw.pattern_ingester is not None:
        fw.faults.schedule(
            FaultKind.LOG_STORM, "gpudriver", lines_per_tick=400,
            interval_ns=seconds(5), **window,
        )


def expositions(on: tuple[str, ...]) -> dict[str, dict[str, list[str]]]:
    """Round name -> scrape job -> the text of that scrape, as lines."""
    fw = MonitoringFramework(
        _config(
            on, seed=11,
            # Only the flooding tenant is ever throttled.
            tenant_overrides={
                "noisy": TenantLimits(
                    ingestion_rate_lines_s=20.0, ingestion_burst_lines=400,
                    per_stream_rate_lines_s=20.0, per_stream_burst_lines=400,
                )
            },
        )
    )
    if fw.queryx is not None:
        # Any engine query counts as slow, so the since-last-scrape
        # gauge moves once.
        fw.queryx.slow_query_threshold_ns = 1
    served: dict[str, list[str]] = {}
    for target in fw.vmagent.targets():
        texts = served[target.job] = []

        def recording(scrape=target.exporter.scrape, texts=texts):
            batch = scrape()
            texts.append(batch.text())
            return batch

        target.exporter.scrape = recording  # shim on the instance
    _schedule_faults(fw)
    fw.start()
    cluster = fw.config.cluster_name
    hosts = sorted(str(x) for x in fw.cluster.nodes)
    for minute in range(max(ROUNDS.values())):
        now = fw.clock.now_ns
        for i in range(10):
            n = minute * 10 + i
            fw.publish_syslog(
                {"hostname": hosts[n % len(hosts)], "data_type": "syslog",
                 "cluster": cluster},
                now + i, SHAPES[n % len(SHAPES)].format(n=n),
            )
            fw.publish_container_log(
                {"app": f"svc-{n % 3}", "data_type": "container_log",
                 "cluster": cluster},
                now + i, f"level=info request_id={n} took={n % 97}ms",
            )
        if minute == ROUNDS["faulted"] - 1:
            query = 'sum(count_over_time({data_type="syslog"} |= "link" [1m]))'
            window = (now - minutes(2), now, minutes(1))
            if fw.scheduler is not None:
                fw.scheduler.submit("ops", query, *window)
            else:
                (fw.frontend or fw.queryx or fw.logql).query_range(query, *window)
        fw.run_for(minutes(1))
    return {
        name: {job: texts[index - 1].splitlines() for job, texts in served.items()}
        for name, index in ROUNDS.items()
    }


def build_golden() -> dict:
    golden = {name: expositions(on) for name, on in CONFIGS.items()}
    baseline = golden[BASELINE]
    for name, rounds in golden.items():
        if name == BASELINE:
            continue
        for round_name, jobs in rounds.items():
            for job, lines in jobs.items():
                if baseline[round_name].get(job) == lines:
                    jobs[job] = SAME
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_exposition_matches_golden(golden, name):
    live = expositions(CONFIGS[name])
    pinned = golden[name]
    assert live.keys() == pinned.keys()
    for round_name, jobs in pinned.items():
        assert list(live[round_name]) == list(jobs), f"{name}: scrape jobs moved"
        for job, expected in jobs.items():
            if expected == SAME:
                expected = golden[BASELINE][round_name][job]
            assert live[round_name][job] == expected, f"{name}/{round_name}/{job}"


def test_golden_covers_every_family_shape(golden):
    """The cases the file exists to pin are really in it."""
    everything = golden["all-on"]
    assert len(everything["first"]) == 12
    idle = [ln for ln in everything["first"]["tenancy"] if "tenant_quer" in ln]
    assert len(idle) == 12 and all(ln.startswith("#") for ln in idle)
    states = [
        ln for ln in everything["faulted"]["loki-ring"]
        if ln.startswith('ring_member_state{ingester="ingester-1"')
    ]
    assert sorted(ln.rsplit(" ", 1)[1] for ln in states) == ["0.0"] * 3 + ["1.0"]
    top = [
        ln for ln in everything["faulted"]["patterns"]
        if ln.startswith("patterns_template_lines_total{")
    ]
    assert len(top) == 10

    def gauge(round_name: str, job: str, prefix: str) -> list[float]:
        lines = everything[round_name][job]
        return [float(ln.rsplit(" ", 1)[1]) for ln in lines if ln.startswith(prefix)]

    for job, prefix in (
        ("tenancy", 'tenant_ingest_discarded_recent{tenant="noisy"}'),
        ("queryx", "queryx_slow_queries_recent"),
        ("slo", 'slo_bad_events_recent{slo="ingest-availability"}'),
        ("patterns", "patterns_bursts_active"),
    ):
        assert gauge("faulted", job, prefix)[0] > 0, prefix
        assert gauge("quiet", job, prefix) == [0.0], prefix
    # A family with no detector attached is a header and nothing else.
    ring_only = golden["enable_ingest_ring"]["faulted"]["loki-ring"]
    ages = [ln for ln in ring_only if "ring_member_heartbeat_age_seconds" in ln]
    assert len(ages) == 2 and all(ln.startswith("#") for ln in ages)


if __name__ == "__main__":
    sys.stdout.write(json.dumps(build_golden(), indent=1) + "\n")
