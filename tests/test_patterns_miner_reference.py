"""The Drain miner against a frozen reference copy of itself.

``ReferenceMiner`` below is the miner as it was before its per-line work
was cut (a digit test per character in Python, the winning cluster
scored twice, the template re-joined for every line).  The miner must
mint the same clusters, with the same ``pattern_id``, template, tokens,
count, timestamps and exemplar, line by line, on a seeded multi-stream corpus
and on token soups built to hit its edge cases.
"""

import random
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.common.hashing import fnv1a_64, mix64
from repro.common.xname import XName
from repro.patterns.miner import (
    WILDCARD,
    DrainConfig,
    DrainMiner,
    _has_digit,
    tokenize,
)
from repro.workloads.scenarios import alert_storm, steady_state_mix

# -- the frozen reference ---------------------------------------------------


def _ref_has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


@dataclass
class _RefCluster:
    pattern_id: str
    tokens: list[str]
    masked: tuple[bool, ...]
    count: int = 0
    first_seen_ns: int = 0
    last_seen_ns: int = 0
    exemplar: str = ""

    @property
    def template(self) -> str:
        return " ".join(self.tokens)

    def _similarity(self, tokens):
        matching = sum(
            1
            for t, s, m in zip(self.tokens, tokens, self.masked)
            if t == s or (m and _ref_has_digit(s))
        )
        return matching / len(tokens)

    def _absorb(self, tokens, timestamp_ns):
        for i, tok in enumerate(tokens):
            if self.tokens[i] != tok and self.tokens[i] != WILDCARD:
                self.tokens[i] = WILDCARD
        self.count += 1
        self.first_seen_ns = min(self.first_seen_ns, timestamp_ns)
        self.last_seen_ns = max(self.last_seen_ns, timestamp_ns)


@dataclass
class _RefNode:
    children: dict = field(default_factory=dict)
    clusters: list = field(default_factory=list)


class ReferenceMiner:
    def __init__(self, config):
        self.config = config
        self._root = _RefNode()
        self._clusters = []
        self.lines_mined = 0
        self.forced_merges = 0

    def add_line(self, line, timestamp_ns=0):
        tokens = tokenize(line, self.config)
        if tokens is None:
            return None
        self.lines_mined += 1
        leaf = self._route(tokens)
        cluster = self._best_match(leaf, tokens)
        if cluster is not None:
            cluster._absorb(tokens, timestamp_ns)
            return cluster, False
        if len(leaf.clusters) >= self.config.max_clusters_per_leaf:
            cluster = self._closest(leaf, tokens)
            cluster._absorb(tokens, timestamp_ns)
            self.forced_merges += 1
            return cluster, False
        seed = [WILDCARD if _ref_has_digit(tok) else tok for tok in tokens]
        cluster = _RefCluster(
            pattern_id=format(mix64(fnv1a_64(" ".join(seed).encode())), "016x"),
            tokens=seed,
            masked=tuple(tok == WILDCARD for tok in seed),
            count=1,
            first_seen_ns=timestamp_ns,
            last_seen_ns=timestamp_ns,
            exemplar=line,
        )
        leaf.clusters.append(cluster)
        self._clusters.append(cluster)
        return cluster, True

    def _route(self, tokens):
        key = str(len(tokens))
        node = self._root.children.get(key)
        if node is None:
            node = _RefNode()
            self._root.children[key] = node
        for i in range(self.config.leading_tokens):
            tok = tokens[i] if i < len(tokens) else ""
            key = WILDCARD if _ref_has_digit(tok) else tok
            node = self._child(node, key)
        return node

    def _child(self, node, key):
        child = node.children.get(key)
        if child is not None:
            return child
        if key != WILDCARD and len(node.children) >= self.config.max_children:
            return self._child(node, WILDCARD)
        child = _RefNode()
        node.children[key] = child
        return child

    def _best_match(self, leaf, tokens):
        best = self._closest(leaf, tokens)
        if best is None:
            return None
        if best._similarity(tokens) >= self.config.sim_threshold:
            return best
        return None

    @staticmethod
    def _closest(leaf, tokens):
        best = None
        best_sim = -1.0
        for cluster in leaf.clusters:
            sim = cluster._similarity(tokens)
            if sim > best_sim:
                best, best_sim = cluster, sim
        return best


# -- comparison -------------------------------------------------------------


def state(cluster):
    return (
        cluster.pattern_id, cluster.template, tuple(cluster.tokens), cluster.count,
        cluster.first_seen_ns, cluster.last_seen_ns, cluster.exemplar,
    )


def assert_same_mining(config, streams):
    """Feed each ``(stream, timestamp, line)`` to a miner per stream, as
    the pattern ingester does, and compare every answer."""
    miners, references = {}, {}
    for stream, ts, line in streams:
        miner = miners.setdefault(stream, DrainMiner(config))
        reference = references.setdefault(stream, ReferenceMiner(config))
        got, want = miner.add_line(line, ts), reference.add_line(line, ts)
        if want is None:
            assert got is None
            continue
        assert (state(got[0]), got[1]) == (state(want[0]), want[1])
    for stream, miner in miners.items():
        reference = references[stream]
        assert [state(c) for c in miner.clusters()] == [state(c) for c in reference._clusters]
        assert (miner.lines_mined, miner.forced_merges) == (
            reference.lines_mined, reference.forced_merges,
        )


#: The defaults, and a tree so tight that children fold into the
#: wildcard and full leaves force merges.
CONFIGS = [
    DrainConfig(),
    DrainConfig(leading_tokens=1, sim_threshold=0.9, max_children=2,
                max_clusters_per_leaf=2, max_length_tokens=6),
]


def corpus(seed: int) -> list[tuple[str, int, str]]:
    nodes = [XName.parse(f"x1c0s{s}b0n{n}") for s in range(4) for n in range(2)]
    logs = steady_state_mix(nodes, 3000, 0, 10**12, seed=seed)
    logs += alert_storm(nodes, 20, 5 * 10**11)
    rng = random.Random(seed)
    out = []
    for log in logs:
        # Streams as the high-cardinality workload makes them: a pid label
        # of fan-out 8 on top of each generator's own.
        stream = tuple(sorted(log.labels.items())) + (("pid", str(rng.randrange(8))),)
        out.append((stream, log.timestamp_ns, log.line))
    return out


def test_a_seeded_multi_stream_corpus_mines_the_same():
    for seed in (1, 2):
        for config in CONFIGS:
            assert_same_mining(config, corpus(seed))


# Tokens that tie, match literally, carry digits of every kind, or spell
# the wildcard itself.
TOKENS = st.sampled_from(
    ["a", "b", "err", "<*>", "<...>", "1", "a1", "x²", "٣", "Ⅻ", "½", "ok:", "0x1f", "é"]
)
LINES = st.lists(TOKENS, max_size=8).map(" ".join)


@settings(deadline=None, max_examples=200)
@given(
    config=st.sampled_from(CONFIGS),
    lines=st.lists(st.tuples(st.integers(0, 2), st.integers(-5, 5), LINES), max_size=40),
)
def test_token_soups_mine_the_same(config, lines):
    assert_same_mining(config, lines)


@settings(max_examples=500)
@given(st.text())
def test_has_digit_is_any_isdigit(token):
    assert _has_digit(token) == any(ch.isdigit() for ch in token)


def test_has_digit_on_digits_beyond_ascii():
    for token in ("²", "x³y", "٣", "१२", "𝟘", "①"):
        assert _has_digit(token) and any(ch.isdigit() for ch in token)
    for token in ("Ⅻ", "½", "五", "abc", ""):
        assert not _has_digit(token) and not any(ch.isdigit() for ch in token)
