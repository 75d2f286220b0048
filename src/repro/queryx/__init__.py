"""repro.queryx — the sharded parallel query engine.

Loki's read path at scale: a :class:`QueryPlanner` decomposes a LogQL
range query along frontend-aligned time windows and label-hash stream
shards, a :class:`QuerierPool` of simulated querier workers executes
the subqueries concurrently on the sim clock (wall-clock = the busiest
worker, not the sum) with retry on querier crashes, and the merger
recombines partials with the tiered store's max-multiplicity dedup.
:class:`ShardedQueryEngine` snaps the three behind the ordinary
``query_range`` / ``query_logs`` surface.  Alongside rides the bloom
subsystem: the compactor builds per-(stream, period) n-gram
:class:`BloomBlock`\\ s into a :class:`BloomStore` and the store-gateway
consults them to skip chunks that provably cannot match a line filter.
"""

from repro.queryx.bloom import (
    BloomBlock,
    BloomFilter,
    BloomStore,
    NGRAM_LEN,
    line_ngrams,
)
from repro.queryx.engine import DEFAULT_SLOW_QUERY_NS, ShardedQueryEngine
from repro.queryx.executor import (
    AllQueriersDown,
    QuerierCrash,
    QuerierPool,
    QuerierWorker,
)
from repro.queryx.merger import merge_log_partials, merge_metric_partials
from repro.queryx.planner import (
    MERGE_CONCAT,
    MERGE_MAX,
    MERGE_MIN,
    MERGE_NONE,
    MERGE_SUM,
    QueryPlan,
    QueryPlanner,
    Subquery,
    merge_class,
)

__all__ = [
    "AllQueriersDown",
    "BloomBlock",
    "BloomFilter",
    "BloomStore",
    "DEFAULT_SLOW_QUERY_NS",
    "MERGE_CONCAT",
    "MERGE_MAX",
    "MERGE_MIN",
    "MERGE_NONE",
    "MERGE_SUM",
    "NGRAM_LEN",
    "QuerierCrash",
    "QuerierPool",
    "QuerierWorker",
    "QueryPlan",
    "QueryPlanner",
    "ShardedQueryEngine",
    "Subquery",
    "line_ngrams",
    "merge_class",
    "merge_log_partials",
    "merge_metric_partials",
]
