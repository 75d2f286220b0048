"""Shared primitives used by every subsystem.

This package holds the small, dependency-free building blocks the rest of
the stack is built on:

* :mod:`repro.common.simclock` — a deterministic simulated clock so a
  "one minute sustained alert" costs microseconds of wall time.
* :mod:`repro.common.labels` — immutable label sets (the Prometheus/Loki
  data model's key abstraction).
* :mod:`repro.common.xname` — HPE Shasta component naming (``x1203c1b0``).
* :mod:`repro.common.errors` — the exception hierarchy.
* :mod:`repro.common.jsonutil` — strict helpers for the nested-JSON
  telemetry payloads.
"""

from repro.common.errors import (
    ReproError,
    ValidationError,
    QueryError,
    AuthError,
    NotFoundError,
)
from repro.common.labels import LabelSet, label_matcher, Matcher, MatchOp
from repro.common.simclock import SimClock, Timer
from repro.common.xname import XName

__all__ = [
    "ReproError",
    "ValidationError",
    "QueryError",
    "AuthError",
    "NotFoundError",
    "LabelSet",
    "Matcher",
    "MatchOp",
    "label_matcher",
    "SimClock",
    "Timer",
    "XName",
]
