#!/usr/bin/env python3
"""The paper's §V future work, implemented: syslog monitoring through
Loki, GPFS health alerting, and automated remediation.

* A background syslog mix flows through the pipeline; a LogQL rule
  watches kernel error rates.
* GPFS 'scratch' degrades (unhealthy NSD servers, CRC errors); vmalert
  fires; ServiceNow opens an incident.
* The AutoRemediator picks the incident up, runs the GPFS playbook, and
  resolves the ticket — MTTR is reported at the end.

Run:  python examples/syslog_and_gpfs.py
"""

from repro.alerting.rules import RuleSpec
from repro.common.simclock import minutes, seconds
from repro.cluster.topology import ClusterSpec
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.core.remediation import AutoRemediator
from repro.servicenow.incidents import IncidentState
from repro.workloads.loggen import SyslogGenerator


def main() -> None:
    framework = MonitoringFramework(
        FrameworkConfig(cluster_spec=ClusterSpec(cabinets=1, chassis_per_cabinet=2))
    )
    framework.start()

    # --- §V: syslog monitoring via Loki ---------------------------------
    framework.ruler.add_rule(
        RuleSpec(
            name="KernelErrorBurst",
            expr=(
                'sum(count_over_time({data_type="syslog", facility="kernel", '
                'severity=~"err|crit"}[10m])) > 5'
            ),
            for_="1m",
            labels={"severity": "warning", "category": "syslog"},
            annotations={"summary": "{{ $value }} kernel errors in 10m"},
        )
    )
    nodes = sorted(framework.cluster.nodes)[:8]
    generator = SyslogGenerator(nodes, seed=42)
    for log in generator.generate(600, framework.clock.now_ns + seconds(1), seconds(2)):
        framework.publish_syslog(log.labels, log.timestamp_ns, log.line)

    # --- §V: GPFS health + remediation -----------------------------------
    remediator = AutoRemediator(framework.clock, framework.servicenow)

    def gpfs_playbook(incident) -> bool:
        framework.gpfs.set_degraded("scratch", False)
        return True

    remediator.register_playbook("GpfsDegraded", gpfs_playbook,
                                 duration_ns=minutes(5))
    framework.clock.every(minutes(1), remediator.poll)

    framework.clock.call_later(
        minutes(3), lambda: framework.gpfs.set_degraded("scratch", True, 0.25)
    )

    framework.run_for(minutes(30))

    print("=== Slack ===")
    for message in framework.slack.messages:
        print(message.text)
        print("-" * 60)

    print("\n=== Syslog error-rate query (LogQL over the stored mix) ===")
    samples = framework.logql.query_instant(
        'sum(count_over_time({data_type="syslog"}[30m])) by (severity)',
        framework.clock.now_ns,
    )
    for sample in samples:
        print(f"  {sample.labels.get('severity'):<8} {sample.value:>6.0f} lines")

    print("\n=== ServiceNow ===")
    for incident in framework.servicenow.incidents():
        print(
            f"{incident.number}  {incident.state.value:<12} "
            f"{incident.short_description}"
        )
    resolved = framework.servicenow.incidents(IncidentState.RESOLVED)
    mttr = framework.servicenow.mttr_ns()
    if resolved and mttr:
        print(f"\nauto-remediation success rate: {remediator.success_rate():.0%}")
        print(f"MTTR: {mttr / 1e9 / 60:.1f} minutes")


if __name__ == "__main__":
    main()
