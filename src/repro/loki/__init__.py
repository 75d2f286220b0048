"""Grafana-Loki-like log aggregation store.

This is a faithful, from-scratch reimplementation of the Loki mechanisms
the paper's design leans on (§III.A, §IV.A):

* every log line has a **timestamp** (ns epoch), a **label set** and
  **content**; a unique label combination identifies a **stream**;
* only timestamps and labels are indexed (:mod:`repro.loki.index`);
  content is compressed into **chunks** (:mod:`repro.loki.chunks`) —
  "a small index and compressed chunks significantly reduce the costs
  for storage and the log query times";
* each stream fills its own chunk, so label overuse creates "a huge
  amount of small chunks" — measurable here (bench C4);
* **LogQL** (:mod:`repro.loki.logql`) filters streams by label, greps
  content, parses lines (``json``, ``pattern``, ``logfmt``) and converts
  logs into Prometheus-style metrics (``count_over_time`` + ``sum by``);
* the **Ruler** (:mod:`repro.loki.ruler`) continually evaluates alerting
  rules and pushes events to Alertmanager.
"""

from repro.loki.model import LogEntry, PushRequest, PushStream
from repro.loki.chunks import Chunk, ChunkPolicy
from repro.loki.store import LokiStore, StoreStats, aggregate_stats
from repro.loki.ruler import Ruler

__all__ = [
    "LogEntry",
    "PushRequest",
    "PushStream",
    "Chunk",
    "ChunkPolicy",
    "LokiStore",
    "StoreStats",
    "aggregate_stats",
    "Ruler",
]
