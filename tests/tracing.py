"""The tests' one tracer for components built outside a framework.

``sampling=0.0`` is tracing off, as in a framework built with the
default ``tracing_sampling``: the tracer records and counts nothing.
"""

from repro.common.simclock import SimClock
from repro.tempo.store import TraceStore
from repro.tempo.tracer import Tracer


def off_tracer() -> Tracer:
    """A tracer that records nothing."""
    return Tracer(TraceStore(), SimClock(), sampling=0.0)
