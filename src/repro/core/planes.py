"""The plane list: which feature planes exist, and in what order.

One order serves every site the framework loops at (DESIGN §16): it is
a valid build order — a plane reads only what earlier planes built — and
it is the order the planes' default rules already had on vmalert, which
reaches the Slack transcript.  Proactive detection comes last: it reads
only the TSDB and Alertmanager, and adds no rule, route or target.
"""

from __future__ import annotations

from repro.core.plane import Plane
from repro.objstore.plane import ObjstorePlane
from repro.omni.plane import ProactivePlane
from repro.patterns.plane import PatternsPlane
from repro.queryx.plane import QueryxPlane
from repro.resilience.plane import DeliveryPlane
from repro.ring.plane import RingPlane
from repro.selfheal.plane import SelfHealPlane
from repro.slo.plane import SloPlane
from repro.tenancy.plane import TenancyPlane

PLANES: list[Plane] = [
    RingPlane(),
    SelfHealPlane(),
    TenancyPlane(),
    ObjstorePlane(),
    QueryxPlane(),
    DeliveryPlane(),
    PatternsPlane(),
    SloPlane(),
    ProactivePlane(),
]
