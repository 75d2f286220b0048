"""Host-speed sampling, so that timings can be read at one reference speed.

The reference box is a shared 2-vCPU VM that moves between a quiet state
and slower ones, staying in each for seconds to minutes (a fixed
pure-Python loop reads 30 ms a pass in the one and 39 ms or more in the
others, on both vCPUs alike, in CPU time as in wall-clock).  A whole run
lands in one state or a mix, so every timing of a run moves together and
raw wall-clock spreads 7-44 % between back-to-back runs of one commit.
More samples in a run do not help, because the state outlasts a run, and
the driver refuses a benchmark whose spread exceeds its bound.

So the benchmark measures the host while it measures the program.  A
50 Hz interval timer interrupts the single thread and times a fixed unit
of interpreter work (no repo code; ~2 % of the CPU).  A timing is then
reported as

    (wall - time spent in the sampler) * REFERENCE_UNIT_NS / mean unit cost

with the mean taken over the samples that fell in or around the timed
interval: an estimate of the wall-clock the same work takes on the
reference box when the unit costs REFERENCE_UNIT_NS there.  The wall-clock
as it read is kept beside every such value.

The unit is half computation (dict, str and int operations on a working
set that fits the L1 cache) and half memory stalls (a pointer chase through
a shuffled 256 Ki-entry list), in equal shares of its cost, because the
program is some of each and the host's slow states slow the two unequally:
against a compute-only unit the wall of ``logs_allplanes`` moved only half
as much as the unit (log-log slope 0.51 over 20 runs) and normalising
gained nothing; against the two halves together the slopes of the four
workloads are 0.78-1.01 and what is left of the run-to-run scatter of the
wall is 2.5-3.9 % (standard deviation) where the raw wall's is 5.4-7.5 %.

What this cannot see: the unit shares the process with the program, so a
change that slows the interpreter as a whole (a bigger heap to collect,
cache lines evicted from under the unit) slows the unit a little too and
is under-read by that much.  The raw wall is there to check against.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

TICK_S = 0.02
#: A typical cost of the unit on the reference box, between its states.
#: Only a scale: it makes normalised values read like that box's
#: milliseconds.
REFERENCE_UNIT_NS = 410_000
#: Every interval is read with the samples from this long before it to
#: this long after it, and wider still if those are fewer than MIN_SAMPLES.
PAD_NS = 500_000_000
MIN_SAMPLES = 40
#: Entries of the pointer-chase table (~9 MiB with its int objects, more
#: than a core's private caches) and steps taken through it per unit.
CHASE_ENTRIES = 1 << 18
CHASE_STEPS = 425


class HostSpeed:
    """Samples taken from :meth:`start` to :meth:`stop`, main thread only."""

    def __init__(self) -> None:
        self._ends: list[int] = []  # perf_counter_ns at the end of each sample
        self._cum: list[int] = [0]  # running sum of sample costs
        # One random cycle through all entries: each step's address depends
        # on the last one's value, so neither prefetcher nor cache helps.
        order = list(range(CHASE_ENTRIES))
        random.Random(7).shuffle(order)
        self._next = [0] * CHASE_ENTRIES
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there
        self._at = 0

    def _unit(self) -> None:
        table: dict[int, str] = {}
        total = 0
        for i in range(1250):
            table[i % 500] = str(i)
            total += len(table[i % 500])
        chase, at = self._next, self._at
        for _ in range(CHASE_STEPS):
            at = chase[at]
        self._at = at

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter_ns()
        self._unit()
        end = perf_counter_ns()
        self._ends.append(end)
        self._cum.append(self._cum[-1] + end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start_ns: int, end_ns: int) -> tuple[int, int]:
        """(samples, their total cost) that ended within the interval."""
        lo = bisect_left(self._ends, start_ns)
        hi = bisect_right(self._ends, end_ns)
        return hi - lo, self._cum[hi] - self._cum[lo]

    def unit_cost_ns(self, start_ns: int, end_ns: int) -> float:
        """Mean cost of the unit over an interval: the host's speed reading."""
        count, cost = self._between(start_ns, end_ns)
        return cost / count if count else float("nan")

    def at_reference_speed(self, start_ns: int, end_ns: int) -> float:
        """The interval's length in ns, less the sampler's own time, scaled
        to the reference speed by the unit cost observed around it."""
        _count, inside = self._between(start_ns, end_ns)
        # The host's speed over a second or more is what the samples
        # estimate well; over less, they scatter as much as they inform.
        pad = PAD_NS
        count, cost = self._between(start_ns - pad, end_ns + pad)
        while count < MIN_SAMPLES and pad < 64 * PAD_NS:
            pad *= 2
            count, cost = self._between(start_ns - pad, end_ns + pad)
        if count == 0:
            raise RuntimeError("no host-speed samples; was the sampler started?")
        return (end_ns - start_ns - inside) * REFERENCE_UNIT_NS * count / cost
