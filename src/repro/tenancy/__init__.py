"""repro.tenancy: multi-tenant limits, shuffle-sharded ingest, fair queries.

The OMNI warehouse serves many consumers — operations staff, dashboards,
rulers, case-study pipelines — off one shared Loki/VictoriaMetrics
deployment.  Without isolation, one runaway log producer or one
pathological dashboard query degrades every other consumer.  This
package reproduces how Loki operates multi-tenant at scale:

* :mod:`repro.tenancy.limits` — per-tenant limits with overrides and a
  deterministic token bucket on the simulated clock;
* :mod:`repro.tenancy.admission` — write-path admission control: tenant
  tagging, rate/stream limits, typed 429-style rejections, per-tenant
  discard accounting;
* :mod:`repro.tenancy.sharding` — shuffle sharding: each tenant hashes
  to a stable subring of ingesters, containing the blast radius of a
  bad tenant or a dead ingester;
* :mod:`repro.tenancy.scheduler` — a query scheduler with per-tenant
  FIFO queues drained round-robin under per-tenant concurrency caps.

The per-tenant ingest/discard/queue metrics live with the other
exporters (:mod:`repro.exporters.tenancy_exporter`), driving the
``TenantRateLimited`` rule and the "Tenants" Grafana dashboard.
"""

from repro.tenancy.admission import AdmissionController, TenantCounters
from repro.tenancy.limits import LimitsRegistry, TenantLimits, TokenBucket
from repro.tenancy.scheduler import QueryScheduler, ScheduledQuery

# ``ShuffleSharder`` is not re-exported: ``repro.tenancy.sharding`` imports
# the ring, whose cluster imports it back, so loading it here would make
# ``repro.tenancy.limits`` unimportable before ``repro.ring``.

__all__ = [
    "AdmissionController",
    "LimitsRegistry",
    "QueryScheduler",
    "ScheduledQuery",
    "TenantCounters",
    "TenantLimits",
    "TokenBucket",
]
