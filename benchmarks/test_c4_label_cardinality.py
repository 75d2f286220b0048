"""C4 — "The overuse of labels will create a huge amount of small chunks
in memory and on disk. Moreover, Loki prefers handling bigger but fewer
chunks" (paper §IV.A).

The ablation behind the paper's labeling decision (Context as a label;
Severity/MessageId/Message as content): sweep how many fields are
promoted to labels and measure streams, chunks, per-chunk size, index
size and query time for a fixed corpus.

Expected shape: chunk count grows with label cardinality while mean
chunk size shrinks; the index grows; label-scoped queries stay fast but
whole-corpus aggregation slows with stream count.
"""

import json
import time

import numpy as np

from repro.common.labels import LabelSet
from repro.loki.logql.engine import LogQLEngine
from repro.loki.model import LogEntry
from repro.loki.store import LokiStore

from conftest import report

N_EVENTS = 20_000
SEVERITIES = ("OK", "Warning", "Critical")
MESSAGE_IDS = tuple(f"CrayAlerts.1.0.Event{i}" for i in range(40))
CONTEXTS = tuple(f"x1{c:03d}c{ch}b0" for c in range(16) for ch in range(8))


def _events(rng):
    for i in range(N_EVENTS):
        yield {
            "Context": CONTEXTS[int(rng.integers(len(CONTEXTS)))],
            "Severity": SEVERITIES[int(rng.integers(len(SEVERITIES)))],
            "MessageId": MESSAGE_IDS[int(rng.integers(len(MESSAGE_IDS)))],
            "Message": f"event body {i} with some detail text",
            "ts": i * 1_000_000,
        }


def _ingest(label_fields):
    """Promote ``label_fields`` to labels; the rest stays in content."""
    rng = np.random.default_rng(11)
    store = LokiStore()
    for ev in _events(rng):
        labels = {"cluster": "perlmutter", "data_type": "redfish_event"}
        content = {}
        for field in ("Context", "Severity", "MessageId", "Message"):
            if field in label_fields:
                labels[field] = ev[field]
            else:
                content[field] = ev[field]
        store.push_stream(
            LabelSet(labels),
            [LogEntry(ev["ts"], json.dumps(content, sort_keys=False))],
        )
    store.flush_all()
    return store


CONFIGS = [
    ((), "none (everything in content)"),
    (("Context",), "paper's choice: Context only"),
    (("Context", "Severity"), "+Severity"),
    (("Context", "Severity", "MessageId"), "+MessageId"),
    (("Context", "Severity", "MessageId", "Message"), "everything a label"),
]


def test_c4_label_cardinality_sweep(benchmark):
    benchmark.pedantic(lambda: _ingest(("Context",)), rounds=1, iterations=1)

    rows = [
        f"{'labels':<36} {'streams':>8} {'chunks':>7} {'mean_chunk_B':>13} "
        f"{'index_B':>9} {'agg_query_ms':>13}"
    ]
    chunk_counts = []
    for fields, title in CONFIGS:
        store = _ingest(fields)
        engine = LogQLEngine(store)
        t0 = time.perf_counter()
        engine.query_instant(
            'sum(count_over_time({cluster="perlmutter"} | json [1h])) by (Severity)',
            N_EVENTS * 1_000_000,
        )
        q_ms = (time.perf_counter() - t0) * 1e3
        chunks = store.chunk_count()
        chunk_counts.append(chunks)
        mean_chunk = store.stored_bytes() / chunks
        rows.append(
            f"{title:<36} {store.stream_count():>8} {chunks:>7} "
            f"{mean_chunk:>13,.0f} {store.index_bytes():>9,} {q_ms:>13.1f}"
        )

    # The paper's claim as shape: more labels -> more, smaller chunks.
    assert chunk_counts == sorted(chunk_counts)
    assert chunk_counts[-1] > 20 * chunk_counts[0]
    rows.append(
        "\npaper §IV.A: overusing labels creates 'a huge amount of small "
        "chunks'; Context-only keeps chunks big and the index small."
    )
    report("C4_label_cardinality", "\n".join(rows))
