"""C3 — "a small index and compressed chunks significantly reduce the
costs for storage and the log query times" (paper §III.A).

Ingests the same synthetic syslog corpus into three stores:

* **Loki** (labels indexed, content compressed in chunks),
* **full-text** (Elasticsearch-style inverted index over every token),
* **grep** (no index at all),

and measures index size, resident storage, ingest rate, and query
latency for (a) a label-scoped needle query — Loki's home turf — and
(b) an arbitrary-content token query — full-text's home turf.

Expected shape: Loki's index is orders of magnitude smaller and its
ingest faster than full-text; full-text wins raw arbitrary-token
latency; grep pays a full scan every time.
"""

import time

from repro.common.labels import LabelSet
from repro.common.xname import XName
from repro.baselines.fulltext import FullTextLogStore
from repro.baselines.grepstore import GrepLogStore
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore
from repro.workloads.loggen import SyslogGenerator

from conftest import report

N_LOGS = 30_000
NODES = [XName.parse(f"x1c{c}s{s}b0n0") for c in range(4) for s in range(8)]


def _corpus():
    return SyslogGenerator(NODES, seed=7).generate(N_LOGS, 0, 1_000_000)


def _fill_loki(corpus):
    store = LokiStore()
    by_stream = {}
    for g in corpus:
        by_stream.setdefault(LabelSet(g.labels), []).append(
            LogEntry(g.timestamp_ns, g.line)
        )
    for labels, entries in by_stream.items():
        store.push_stream(labels, entries)
    store.flush_all()
    return store


def _fill_fulltext(corpus):
    store = FullTextLogStore()
    for g in corpus:
        store.ingest(g.labels, g.timestamp_ns, g.line)
    return store


def _fill_grep(corpus):
    store = GrepLogStore()
    for g in corpus:
        store.ingest(g.labels, g.timestamp_ns, g.line)
    return store


def test_c3_loki_vs_fulltext_vs_grep(benchmark):
    corpus = _corpus()

    loki = benchmark.pedantic(lambda: _fill_loki(corpus), rounds=1, iterations=1)

    t0 = time.perf_counter()
    fulltext = _fill_fulltext(corpus)
    fulltext_ingest_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    grep = _fill_grep(corpus)
    grep_ingest_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _fill_loki(corpus)
    loki_ingest_s = time.perf_counter() - t0

    engine = LogQLEngine(loki)
    end = corpus[-1].timestamp_ns + 1

    # (a) label-scoped needle query.
    t0 = time.perf_counter()
    loki_hits = engine.query_logs(
        '{facility="kernel"} |= "I/O error"', 0, end
    )
    loki_q_label = time.perf_counter() - t0
    n_loki = sum(len(e) for _, e in loki_hits)

    t0 = time.perf_counter()
    ft_hits = fulltext.search(["error", "nvme"], label_equals={"facility": "kernel"})
    ft_q_label = time.perf_counter() - t0

    t0 = time.perf_counter()
    grep_hits = grep.grep("I/O error", label_equals={"facility": "kernel"})
    grep_q_label = time.perf_counter() - t0

    assert n_loki == len(grep_hits) > 0

    # (b) arbitrary token, no label scope: Loki must scan all streams.
    t0 = time.perf_counter()
    engine.query_logs('{cluster="perlmutter"} |= "CRC"', 0, end)
    loki_q_any = time.perf_counter() - t0
    t0 = time.perf_counter()
    fulltext.search(["crc"])
    ft_q_any = time.perf_counter() - t0

    # The paper's claims, asserted as shape:
    assert loki.index_bytes() < fulltext.index_bytes() / 20
    assert loki.stored_bytes() < fulltext.stored_bytes()
    assert loki_ingest_s < fulltext_ingest_s
    assert ft_q_any < loki_q_any  # full-text's home turf

    rows = [
        f"{'store':<10} {'index_bytes':>12} {'stored_bytes':>13} "
        f"{'ingest_s':>9} {'q_label_ms':>11} {'q_token_ms':>11}",
        f"{'loki':<10} {loki.index_bytes():>12,} {loki.stored_bytes():>13,} "
        f"{loki_ingest_s:>9.3f} {loki_q_label * 1e3:>11.2f} {loki_q_any * 1e3:>11.2f}",
        f"{'fulltext':<10} {fulltext.index_bytes():>12,} {fulltext.stored_bytes():>13,} "
        f"{fulltext_ingest_s:>9.3f} {ft_q_label * 1e3:>11.2f} {ft_q_any * 1e3:>11.2f}",
        f"{'grep':<10} {grep.index_bytes():>12,} {grep.stored_bytes():>13,} "
        f"{grep_ingest_s:>9.3f} {grep_q_label * 1e3:>11.2f} {'n/a':>11}",
        "",
        f"corpus: {N_LOGS} syslog lines, {loki.stream_count()} Loki streams",
        f"loki index is {fulltext.index_bytes() / max(loki.index_bytes(), 1):,.0f}x "
        "smaller than the full-text inverted index",
        f"loki chunks compress content {loki.compression_ratio():.1f}x",
        "paper claim: small index + compressed chunks reduce storage and "
        "query costs (holds for label-scoped queries; full-text wins "
        "arbitrary-token search, which is the trade Loki makes)",
    ]
    report("C3_loki_vs_fulltext", "\n".join(rows))
