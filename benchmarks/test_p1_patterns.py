"""P1 — pattern mining: compression ratio, novel-template detection
latency, and the alert-reduction factor during an injected log storm.

Three claims the ``repro.patterns`` subsystem must earn:

1. **Templates compress the stream.**  A realistic mixed corpus mines
   down to orders of magnitude fewer templates than raw lines.
2. **Novelty detection is bounded.**  A never-before-seen error-class
   template is detected within one ruler evaluation interval of its
   first line.
3. **Storm suppression.**  A 10-minute, 100-lines/s storm produces at
   least 50× fewer notifications than per-line alerting would send —
   the paper's alert-fatigue problem, solved by grouping on the
   content-derived ``pattern_id``.
"""

from repro.cluster.faults import FaultKind
from repro.cluster.topology import ClusterSpec
from repro.common.simclock import NANOS_PER_SECOND, minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.patterns.plane import RULER_INTERVAL_NS

from conftest import report

REDUCTION_TARGET = 50.0


def _world():
    return MonitoringFramework(
        FrameworkConfig(
            cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2),
            enable_pattern_mining=True,
        )
    )


def test_p1_pattern_mining(benchmark):
    def scenario():
        fw = _world()
        fw.run_for(minutes(5))  # organic traffic baseline
        storm = fw.faults.schedule(
            FaultKind.LOG_STORM, "gpudriver", duration_ns=minutes(10)
        )
        novel = fw.faults.schedule(
            FaultKind.NOVEL_ERROR, "gpudriver", delay_ns=minutes(2)
        )
        fw.run_for(minutes(12))
        return fw, storm, novel

    fw, storm, novel = benchmark.pedantic(scenario, rounds=1, iterations=1)

    lines_mined = fw.pattern_ingester.lines_observed
    templates = fw.pattern_store.pattern_count()
    compression = fw.pattern_ingester.compression_ratio()

    detections = fw.pattern_ruler.novel_detections
    injected_ns = int(novel.detail["injected_at_ns"])
    latencies = [
        d.latency_ns for d in detections if d.first_seen_ns >= injected_ns
    ]
    bound_ns = RULER_INTERVAL_NS

    storm_lines = int(storm.detail["lines_injected"])
    storm_notifications = [
        m for m in fw.slack.messages if "PatternBurst" in m.text
    ]
    reduction = storm_lines / max(1, len(storm_notifications))

    rows = [
        f"lines mined                 {lines_mined}",
        f"distinct templates          {templates}",
        f"compression ratio           {compression:.1f}x",
        f"novel detection latency     "
        f"{min(latencies) / NANOS_PER_SECOND:.1f} s "
        f"(bound {bound_ns / NANOS_PER_SECOND:.0f} s)",
        f"storm lines injected        {storm_lines}",
        f"storm notifications sent    {len(storm_notifications)}",
        f"alert reduction factor      {reduction:.0f}x "
        f"(target >= {REDUCTION_TARGET:.0f}x)",
    ]
    report("p1_patterns", "\n".join(rows))

    assert compression > 10.0
    assert latencies and min(latencies) <= bound_ns
    assert reduction >= REDUCTION_TARGET
