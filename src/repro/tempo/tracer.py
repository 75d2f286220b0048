"""The in-process tracer: ID generation, head sampling, span recording.

:meth:`Tracer.record` is the one way a component writes a span: a
finished span in one call, its start and end the clock's now unless
given — the natural style in a discrete-event simulation, where a stage
like "broker queue wait" is only known to be over at the *consumer*
side, long after the producer returned.

:attr:`Tracer.current` is the ambient context, as OpenTelemetry keeps
one: the span a store write in progress joins.  Whoever starts that
write sets it and clears it when the write is done; a stage deep in the
write path (admission, the ring distributor) reads it rather than take
the context as an argument.

Sampling is head-based and decided once per trace at the root: a sampled-
out root returns ``None`` and every downstream stage, seeing no context,
records nothing.  Every component holds a tracer; tracing off is
``sampling = 0.0``, which short-circuits before the RNG is touched, so
such a tracer records nothing, counts nothing and perturbs nothing.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.common.simclock import SimClock
from repro.tempo.model import TRACEPARENT_KEY, Span, SpanContext, SpanStatus
from repro.tempo.store import TraceStore


class Tracer:
    """Creates spans against the simulated clock and a :class:`TraceStore`."""

    def __init__(
        self,
        store: TraceStore,
        clock: SimClock,
        sampling: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sampling <= 1.0:
            raise ValueError(f"sampling must be in [0, 1], got {sampling}")
        self.store = store
        self._clock = clock
        #: Head-sampling rate; 0.0 is tracing off.  A root span inside a
        #: loop over records reads it once per batch instead of calling
        #: :meth:`record` per item.
        self.sampling = sampling
        self._rng = random.Random(seed)
        #: The context the store write in progress joins, or ``None``.
        self.current: SpanContext | None = None
        self.traces_started = 0
        self.traces_sampled_out = 0
        self.spans_recorded = 0

    @property
    def now_ns(self) -> int:
        """Clock passthrough for instrumentation sites without a clock."""
        return self._clock.now_ns

    # ------------------------------------------------------------------
    # ID generation and sampling
    # ------------------------------------------------------------------
    def _new_trace_id(self) -> str:
        return f"{self._rng.getrandbits(128):032x}"

    def _new_span_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def _sample_root(self) -> bool:
        """One head-sampling decision per new trace."""
        if self.sampling <= 0.0:
            return False
        self.traces_started += 1
        if self.sampling >= 1.0:
            return True
        if self._rng.random() < self.sampling:
            return True
        self.traces_sampled_out += 1
        return False

    # ------------------------------------------------------------------
    # One-shot recording
    # ------------------------------------------------------------------
    def record(
        self,
        service: str,
        name: str,
        parent: SpanContext | None = None,
        start_ns: int | None = None,
        end_ns: int | None = None,
        attributes: Mapping[str, object] | None = None,
        status: SpanStatus = SpanStatus.OK,
    ) -> SpanContext | None:
        """Record a finished span; a missing start or end is the clock's now.

        With ``parent=None`` this roots a new trace (subject to the head-
        sampling decision); otherwise the span joins the parent's trace
        unconditionally.  Attribute values are stored as ``str(value)``.
        Returns the new span's context for further children, or ``None``
        if the root was sampled out.
        """
        if parent is None:
            if not self._sample_root():
                return None
            trace_id = self._new_trace_id()
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        now = self._clock.now_ns
        span = Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent_id,
            service=service,
            name=name,
            start_ns=now if start_ns is None else start_ns,
            end_ns=now if end_ns is None else end_ns,
            attributes={k: str(v) for k, v in (attributes or {}).items()},
            status=status,
        )
        self._commit(span)
        return span.context()

    def _commit(self, span: Span) -> None:
        self.store.add(span)
        self.spans_recorded += 1

    # ------------------------------------------------------------------
    # Context propagation
    # ------------------------------------------------------------------
    @staticmethod
    def inject(ctx: SpanContext) -> dict[str, str]:
        """Context → carrier headers for a message envelope."""
        return {TRACEPARENT_KEY: ctx.to_traceparent()}

    @staticmethod
    def extract(carrier: Mapping[str, str]) -> SpanContext | None:
        """Carrier headers → context; ``None`` if absent or malformed."""
        value = carrier.get(TRACEPARENT_KEY)
        if value is None:
            return None
        return SpanContext.from_traceparent(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "traces_started": self.traces_started,
            "traces_sampled_out": self.traces_sampled_out,
            "spans_recorded": self.spans_recorded,
        }
