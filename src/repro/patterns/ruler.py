"""Pattern-aware ruler: EWMA burst baselines and novelty alerts.

A :class:`~repro.alerting.rules.RuleEvaluator` whose query language is
two pseudo-expressions over the pattern store:

* ``pattern_burst`` — one sample per (tenant, pattern_id) whose current
  line rate is bursting: above the absolute storm floor
  (:data:`MIN_BURST_RATE` lines/s), or — once the baseline has warmed up —
  above :data:`BURST_FACTOR` × its EWMA rate.  The EWMA is frozen while a
  pattern bursts so the baseline cannot chase the storm and mask it.
* ``novel_error_pattern`` — one sample per never-before-seen error-class
  template, held active for :data:`NOVEL_ACTIVE_NS` so the alert is visible
  and then self-resolves when the series disappears.  Templates first
  sighted within ``novel_bootstrap_ns`` of the ruler's birth are corpus
  cold-start, not novelty — with an empty template store *everything*
  is "never before seen".

Every emitted sample carries ``pattern_id``, which is the whole point:
Alertmanager groups on it, so a storm of thousands of identical lines —
across streams and ingesters — collapses into one incident with one
ServiceNow ticket, instead of one notification per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.alerting.events import AlertEvent
from repro.alerting.rules import RuleEvaluator
from repro.common.errors import ValidationError
from repro.common.labels import LabelSet
from repro.common.simclock import NANOS_PER_SECOND, minutes
from repro.common.vector import Sample

if TYPE_CHECKING:
    from repro.common.simclock import SimClock
    from repro.patterns.ingester import NovelPattern, PatternIngester
    from repro.patterns.store import PatternStore
    from repro.tempo.tracer import Tracer

BURST_EXPR = "pattern_burst"
NOVEL_EXPR = "novel_error_pattern"

#: How much of a template to put in the ``pattern`` label — enough to
#: read in Slack, bounded so labels stay sane.
_TEMPLATE_LABEL_LEN = 96

#: Weight of the newest non-burst rate in a template's EWMA baseline.
EWMA_ALPHA = 0.3
#: A warmed-up template bursts at this many times its baseline rate.
BURST_FACTOR = 8.0
#: A template bursts at this rate (lines/s) whatever its baseline.
MIN_BURST_RATE = 50.0
#: Non-burst evaluations a baseline needs before it can judge a burst.
WARMUP_EVALS = 3
#: How long a novel error template stays alerting after it was first seen.
NOVEL_ACTIVE_NS = minutes(10)


@dataclass
class _Baseline:
    ewma: float | None = None
    last_count: int = 0
    last_eval_ns: int = 0
    evals: int = 0


@dataclass
class NovelDetection:
    """Ground truth for the bench: when a novel error template appeared
    and when the ruler noticed it."""

    pattern_id: str
    first_seen_ns: int
    detected_ns: int

    @property
    def latency_ns(self) -> int:
        return self.detected_ns - self.first_seen_ns


class PatternRuler(RuleEvaluator):
    """Evaluates pattern-rate rules against the store and ingester."""

    def __init__(
        self,
        clock: "SimClock",
        notifier: Callable[[AlertEvent], None],
        ingester: "PatternIngester",
        store: "PatternStore",
        cluster: str = "",
        novel_bootstrap_ns: int = 0,
        *,
        tracer: "Tracer",
    ) -> None:
        if novel_bootstrap_ns < 0:
            raise ValidationError("novel_bootstrap_ns must be >= 0")
        super().__init__(clock, notifier, generator="pattern-ruler")
        self._ingester = ingester
        self._store = store
        self._cluster = cluster
        self._novel_bootstrap_ns = novel_bootstrap_ns
        self._born_ns = clock.now_ns
        self._tracer = tracer
        self._baselines: dict[tuple[str, str], _Baseline] = {}
        self._bursting: set[tuple[str, str]] = set()
        self._last_burst_eval_ns: int | None = None
        self._novel_cursor = 0
        # (tenant, pattern_id) -> the NovelPattern event, kept active
        # until NOVEL_ACTIVE_NS elapses past first_seen.
        self._novel_active: dict[tuple[str, str], "NovelPattern"] = {}
        self.bursts_detected = 0
        self.novel_detected = 0
        self.active_bursts = 0
        self.novel_detections: list[NovelDetection] = []

    # ------------------------------------------------------------------
    # RuleEvaluator hooks
    # ------------------------------------------------------------------

    def _compile(self, expr: str) -> str:
        if expr not in (BURST_EXPR, NOVEL_EXPR):
            raise ValidationError(
                f"pattern ruler only evaluates {BURST_EXPR!r} or "
                f"{NOVEL_EXPR!r}, got {expr!r}"
            )
        return expr

    def _instant(self, time_ns: int) -> Callable[[str], list[Sample]]:
        # Each rule reads the miner directly; there is nothing to share.
        def query(expr: str) -> list[Sample]:
            if expr == BURST_EXPR:
                samples = self._burst_samples(time_ns)
            else:
                samples = self._novel_samples(time_ns)
            self._tracer.record(
                "pattern-ruler",
                f"ruler.{expr}",
                start_ns=time_ns,
                end_ns=time_ns,
                attributes={"samples": len(samples)},
            )
            return samples

        return query

    # ------------------------------------------------------------------
    # Burst detection
    # ------------------------------------------------------------------

    def _burst_samples(self, now_ns: int) -> list[Sample]:
        samples: list[Sample] = []
        counts = self._store.counts_by_pattern()
        prev_eval_ns = self._last_burst_eval_ns
        self._last_burst_eval_ns = now_ns
        for key in sorted(counts):
            tenant, pattern_id = key
            total, template = counts[key]
            state = self._baselines.get(key)
            if state is None:
                if prev_eval_ns is None:
                    # Very first evaluation: no window to rate against —
                    # anchor and move on.
                    self._baselines[key] = _Baseline(
                        last_count=total, last_eval_ns=now_ns
                    )
                    continue
                # A template that did not exist at the previous
                # evaluation accumulated its whole count since then, so
                # that evaluation bounds its window: a brand-new storm
                # template trips the absolute floor on first sighting
                # (detection latency <= one evaluation interval).
                state = _Baseline(last_count=0, last_eval_ns=prev_eval_ns)
                self._baselines[key] = state
            delta = total - state.last_count
            dt = (now_ns - state.last_eval_ns) / NANOS_PER_SECOND
            state.last_count = total
            state.last_eval_ns = now_ns
            if dt <= 0.0:
                continue
            rate = delta / dt
            absolute_burst = rate >= MIN_BURST_RATE
            relative_burst = (
                state.evals >= WARMUP_EVALS
                and state.ewma is not None
                and rate >= BURST_FACTOR * max(state.ewma, 0.1)
                and rate >= 1.0
            )
            if absolute_burst or relative_burst:
                if key not in self._bursting:
                    self._bursting.add(key)
                    self.bursts_detected += 1
                samples.append(
                    Sample(
                        self._labels_for(tenant, pattern_id, template),
                        rate,
                        now_ns,
                    )
                )
            else:
                # Baseline only learns from non-burst traffic.
                self._bursting.discard(key)
                if state.ewma is None:
                    state.ewma = rate
                else:
                    state.ewma = EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * state.ewma
                state.evals += 1
        self.active_bursts = len(samples)
        return samples

    def baseline_rate(self, tenant: str, pattern_id: str) -> float:
        state = self._baselines.get((tenant, pattern_id))
        if state is None or state.ewma is None:
            return 0.0
        return state.ewma

    # ------------------------------------------------------------------
    # Novelty detection
    # ------------------------------------------------------------------

    def _novel_samples(self, now_ns: int) -> list[Sample]:
        events = self._ingester.novel_events
        while self._novel_cursor < len(events):
            event = events[self._novel_cursor]
            self._novel_cursor += 1
            if not event.is_error:
                continue
            if (
                event.first_seen_ns - self._born_ns
                < self._novel_bootstrap_ns
            ):
                # Cold start: with an empty corpus every early template
                # is "never before seen".  Templates first sighted
                # inside the bootstrap window are corpus, not novelty.
                continue
            self._novel_active[(event.tenant, event.pattern_id)] = event
            self.novel_detected += 1
            self.novel_detections.append(
                NovelDetection(
                    pattern_id=event.pattern_id,
                    first_seen_ns=event.first_seen_ns,
                    detected_ns=now_ns,
                )
            )
        samples: list[Sample] = []
        expired = []
        for key, event in self._novel_active.items():
            if now_ns - event.first_seen_ns >= NOVEL_ACTIVE_NS:
                expired.append(key)
                continue
            samples.append(
                Sample(
                    self._labels_for(
                        event.tenant, event.pattern_id, event.template
                    ),
                    1.0,
                    now_ns,
                )
            )
        for key in expired:
            del self._novel_active[key]
        return samples

    # ------------------------------------------------------------------

    def _labels_for(
        self, tenant: str, pattern_id: str, template: str
    ) -> LabelSet:
        labels = {
            "pattern_id": pattern_id,
            "pattern": template[:_TEMPLATE_LABEL_LEN],
            "tenant": tenant,
        }
        if self._cluster:
            labels["cluster"] = self._cluster
        return LabelSet(labels)

    def counters(self) -> dict[str, int]:
        return {
            "bursts_detected": self.bursts_detected,
            "active_bursts": self.active_bursts,
            "novel_detected": self.novel_detected,
            "evaluations": self.evaluations,
        }
