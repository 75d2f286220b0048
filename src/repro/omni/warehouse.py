"""The OMNI warehouse facade.

One object owning the two stores ("As a rule, we send metrics to
Victoriametrics, the time series database and logs to Loki" — paper §III)
plus the ingest accounting that backs the 400 k msgs/s capability claim
(bench C1).  What ages out of them is :mod:`repro.omni.lifecycle`'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.common.labels import LabelSet
from repro.common.simclock import SimClock, NANOS_PER_SECOND, days
from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.loki.store import LokiStore
from repro.objstore.tiered import TieredLokiStore
from repro.ring.cluster import RingLokiCluster
from repro.tenancy.admission import AdmissionController
from repro.tsdb.storage import TimeSeriesStore

if TYPE_CHECKING:
    from repro.patterns.ingester import PatternIngester


class OmniWarehouse:
    """Logs → Loki, metrics → VictoriaMetrics, one roof, one history.

    The log backend is a single :class:`LokiStore` (the default), a
    replicated :class:`~repro.ring.cluster.RingLokiCluster`, or a
    :class:`~repro.objstore.tiered.TieredLokiStore` wrapping either —
    one store contract.  The lifecycle runs against whatever backend is
    installed: with the tiered store, a sweep archives and deletes
    across the hot *and* cold tiers in one pass.
    """

    def __init__(
        self,
        clock: SimClock,
        loki: LokiStore | RingLokiCluster | TieredLokiStore | None = None,
        admission: AdmissionController | None = None,
        patterns: "PatternIngester | None" = None,
    ) -> None:
        self._clock = clock
        self.loki = loki or LokiStore()
        # Only a bare LokiStore resolves mapping refs itself, so only it
        # takes a plane-less line straight (see `ingest_log`).
        self._resolves_refs = isinstance(self.loki, LokiStore)
        self.tsdb = TimeSeriesStore()
        #: Multi-tenant front door.  When set, every log push is
        #: attributed to a tenant, tagged, and limit-checked before it
        #: reaches either log backend; over-limit pushes raise typed 429s.
        self.admission = admission
        #: Pattern ingester tee (Loki's pattern ingester sits on the
        #: distributor): every *accepted* push is also mined for
        #: templates.  Rejected pushes never reach it.
        self.patterns = patterns
        # Labels as given (a mapping's items, in its order) -> their
        # LabelSet, tenant-tagged when admission is on, for the push
        # requests the planes take; a bare LokiStore keeps its own stream
        # refs.  A ref is added once a push of it went through —
        # validated, admitted, stored — so the table is bounded by the
        # streams that exist x key orders, never by lines or by what
        # admission turned away.
        self._labelsets: dict[tuple, LabelSet] = {}
        self.messages_ingested = 0
        self._ingest_started_ns = clock.now_ns

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_log(
        self,
        labels: Mapping[str, str] | LabelSet,
        timestamp_ns: int,
        line: str,
        tenant: str | None = None,
    ) -> int:
        entries = (LogEntry(timestamp_ns, line),)
        if self._resolves_refs and self.admission is None and self.patterns is None:
            accepted = self.loki.push_stream(labels, entries)
            self.messages_ingested += accepted
            return accepted
        # Every plane takes a push request: one stream, one entry.
        ref = labelset = None
        if type(labels) is LabelSet:
            labelset = labels
        else:
            ref = tuple(labels.items())
            try:
                labelset = self._labelsets.get(ref)
            except TypeError:  # an unhashable label value: let LabelSet say so
                pass
        first_sight = labelset is None
        if first_sight:
            labelset = LabelSet(labels)
        request = PushRequest(
            streams=(PushStream(labels=labelset, entries=entries),)
        )
        accepted = self.ingest_logs(request, tenant=tenant)
        if first_sight:
            # Admitted and pushed: the stream exists now, so its ref may —
            # to the label set admission tagged it as, which passes the
            # stream's next pushes on as they come.
            if self.admission is not None:
                labelset = self.admission.tag(labelset, tenant)
            self._labelsets[ref] = labelset
        return accepted

    def ingest_logs(
        self,
        request: PushRequest,
        tenant: str | None = None,
    ) -> int:
        if self.admission is not None:
            # Admission tags every stream with the tenant label and
            # raises the typed 429 before anything reaches a store.
            request = self.admission.admit_push(request, tenant=tenant)
        accepted = self.loki.push(request)
        if self.patterns is not None:
            for stream in request.streams:
                self.patterns.observe(
                    stream.labels, stream.entries, tenant=tenant
                )
        self.messages_ingested += accepted
        return accepted

    def ingest_metric(
        self,
        name: str,
        labels: Mapping[str, str] | LabelSet,
        value: float,
        timestamp_ns: int,
    ) -> bool:
        ok = self.tsdb.ingest(name, labels, value, timestamp_ns)
        if ok:
            self.messages_ingested += 1
        return ok

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def ingest_rate_per_simsecond(self) -> float:
        """Messages per *simulated* second since construction."""
        elapsed = (self._clock.now_ns - self._ingest_started_ns) / NANOS_PER_SECOND
        if elapsed <= 0:
            return 0.0
        return self.messages_ingested / elapsed

    def storage_report(self) -> dict[str, float]:
        """Sizes and ratios for the storage benches."""
        report = {
            "log_entries": float(self.loki.stats.entries_ingested),
            "log_streams": float(self.loki.stream_count()),
            "log_chunks": float(self.loki.chunk_count()),
            "log_stored_bytes": float(self.loki.stored_bytes()),
            "log_uncompressed_bytes": float(self.loki.uncompressed_bytes()),
            "log_index_bytes": float(self.loki.index_bytes()),
            "metric_samples": float(self.tsdb.sample_count()),
            "metric_series": float(self.tsdb.series_count()),
            "metric_bytes": float(self.tsdb.retained_bytes()),
        }
        if isinstance(self.loki, TieredLokiStore):
            # With the cold tier on, `log_stored_bytes` above is the
            # *resident* hot-tier figure; these break out what moved cold.
            report["log_cold_chunks"] = float(self.loki.cold_chunk_count())
            report["log_cold_bytes"] = float(self.loki.cold_bytes())
            report["log_cold_entries"] = float(self.loki.cold_entry_count())
        return report

    def history_span_days(self) -> float:
        """How far back immediately-queryable log data reaches, in days."""
        oldest = self.loki.oldest_entry_ns()
        if oldest is None:
            return 0.0
        return (self._clock.now_ns - oldest) / days(1)
