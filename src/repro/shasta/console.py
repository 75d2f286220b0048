"""Console log collection (conman-style).

Paper §III.C lists "console logs" among OMNI's event data and Figure 1
routes them through Kafka like syslog.  This module models the console
concentrator: every node has a serial console whose output (boot
messages, kernel chatter, and — critically — panics and MCEs) is
captured per-node and published to a Kafka topic.

A kernel panic on the console is often the *only* trace of a crashed
node, which is why console capture exists; the framework's rules grep
for exactly those signatures.
"""

from __future__ import annotations

import numpy as np

from repro.bus.broker import Broker, TopicConfig
from repro.common.errors import ValidationError
from repro.common.jsonutil import LogEnvelopeEncoder
from repro.common.simclock import SimClock
from repro.common.xname import XName

TOPIC_CONSOLE_LOGS = "shasta-console-logs"

#: (weight, template) — ordinary console chatter.
_CHATTER = [
    (10.0, "systemd[1]: Started {unit}."),
    (6.0, "kernel: perf: interrupt took too long ({n} > {n2}), lowering rate"),
    (4.0, "login: root login on ttyS0"),
    (3.0, "kernel: hrtimer: interrupt took {n} ns"),
    (2.0, "NetworkManager[{pid}]: <info> device hsn0: state change"),
]

_UNITS = ("munge.service", "slurmd.service", "dvs.service", "nscd.service")

#: The signatures the panic rule greps for.
PANIC_LINES = (
    "kernel: Kernel panic - not syncing: Fatal hardware error",
    "kernel: mce: [Hardware Error]: CPU {cpu}: Machine Check Exception",
    "kernel: Kernel panic - not syncing: Attempted to kill init!",
)


class ConsoleCollector:
    """Per-node console streams, published as envelopes to Kafka."""

    def __init__(
        self,
        broker: Broker,
        clock: SimClock,
        nodes: list[XName],
        cluster: str = "perlmutter",
        seed: int = 0,
    ) -> None:
        if not nodes:
            raise ValidationError("console collector needs nodes")
        broker.ensure_topic(TOPIC_CONSOLE_LOGS, TopicConfig(partitions=4))
        self._broker = broker
        self._clock = clock
        self._nodes = [str(x) for x in nodes]
        self._cluster = cluster
        self._rng = np.random.default_rng(seed)
        self._envelopes = LogEnvelopeEncoder()
        weights = np.array([w for w, _ in _CHATTER])
        self._probs = weights / weights.sum()
        self.lines_published = 0

    def _publish(self, node: str, line: str) -> None:
        labels = {
            "cluster": self._cluster,
            "data_type": "console_log",
            "hostname": node,
        }
        now = self._clock.now_ns
        self._broker.produce(
            TOPIC_CONSOLE_LOGS, self._envelopes.encode(labels, now, line),
            key=node, timestamp_ns=now,
        )
        self.lines_published += 1

    def emit_chatter(self, lines: int = 5) -> int:
        """Publish ``lines`` of ordinary console noise across the fleet."""
        if lines < 0:
            raise ValidationError("line count must be non-negative")
        picks = self._rng.choice(len(_CHATTER), size=lines, p=self._probs)
        node_idx = self._rng.integers(0, len(self._nodes), size=lines)
        numbers = self._rng.integers(1000, 99999, size=(lines, 3))
        for i in range(lines):
            _w, template = _CHATTER[int(picks[i])]
            line = template.format(
                unit=_UNITS[int(numbers[i][0]) % len(_UNITS)],
                n=int(numbers[i][0]),
                n2=int(numbers[i][1]),
                pid=int(numbers[i][2]) % 32768,
            )
            self._publish(self._nodes[int(node_idx[i])], line)
        return lines

    def emit_panic(self, node: XName | str, kind: int = 0) -> str:
        """Publish a kernel panic signature for ``node``; returns the line."""
        name = str(node)
        if name not in self._nodes:
            raise ValidationError(f"{name} has no console here")
        template = PANIC_LINES[kind % len(PANIC_LINES)]
        line = template.format(cpu=int(self._rng.integers(0, 64)))
        self._publish(name, line)
        return line
