"""Online Drain-style log-template miner.

Implements the fixed-depth parse tree of Drain (He et al., ICWS'17), the
algorithm behind Loki's pattern ingester: an incoming line is routed by
its token count, then by its first few tokens (digit-bearing tokens
route through a wildcard branch so identifiers and counters never
explode the tree), landing in a leaf that holds a bounded set of
template clusters.  Within the leaf the line joins the most similar
cluster — similarity is the fraction of positions whose tokens match
exactly or carry digits where the cluster's seed did — and positions
that disagree are widened to the ``<*>`` wildcard.  By construction
every line matches the template of the cluster it joined, and the total
number of clusters is bounded by the tree shape (see
:meth:`DrainConfig.max_clusters`).

Cluster identities are content-derived: the pattern id is the mix64
finalizer over the FNV-1a hash of the *seed* template (the first line
with digits masked), so the same storm observed on different streams,
tenants, or simulation runs yields the same ``pattern_id`` — which is
what lets Alertmanager group a cross-stream storm into one incident.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.hashing import fnv1a_64, mix64

WILDCARD = "<*>"
# Overlong lines are clamped to ``max_length_tokens`` and tagged with a
# rest marker so stack traces / dumps of arbitrary length share one
# length group instead of minting one group per line length.
REST_MARKER = "<...>"
# Routing key used at internal nodes for positions past the end of a
# short line.  Real tokens come from str.split() and are never empty,
# so the empty string cannot collide with one.
_PAD_KEY = ""


@dataclass(frozen=True)
class DrainConfig:
    """Shape of the parse tree; every knob bounds the template count."""

    leading_tokens: int = 2
    sim_threshold: float = 0.5
    max_children: int = 8
    max_clusters_per_leaf: int = 16
    max_length_tokens: int = 40

    def __post_init__(self) -> None:
        if self.leading_tokens < 1:
            raise ValidationError("leading_tokens must be >= 1")
        if not 0.0 < self.sim_threshold <= 1.0:
            raise ValidationError("sim_threshold must be in (0, 1]")
        if self.max_children < 1:
            raise ValidationError("max_children must be >= 1")
        if self.max_clusters_per_leaf < 1:
            raise ValidationError("max_clusters_per_leaf must be >= 1")
        if self.max_length_tokens < 1:
            raise ValidationError("max_length_tokens must be >= 1")

    def max_clusters(self) -> int:
        """Hard bound on distinct clusters a single miner can create.

        One length group per token count in ``1..max_length_tokens``
        plus one for clamped overlong lines; each internal level admits
        at most ``max_children`` literal children plus the wildcard
        child; each leaf holds at most ``max_clusters_per_leaf``
        clusters.
        """
        leaves = (self.max_children + 1) ** self.leading_tokens
        return (self.max_length_tokens + 1) * leaves * self.max_clusters_per_leaf


def tokenize(line: str, config: DrainConfig) -> list[str] | None:
    """Split into the effective token sequence routed through the tree.

    Returns ``None`` for blank lines (nothing to mine).  Overlong lines
    are clamped and terminated with :data:`REST_MARKER`.
    """
    tokens = line.split()
    if not tokens:
        return None
    if len(tokens) > config.max_length_tokens:
        tokens = tokens[: config.max_length_tokens]
        tokens.append(REST_MARKER)
    return tokens


_ASCII_DIGIT = re.compile("[0-9]").search


def _has_digit(token: str) -> bool:
    """``any(ch.isdigit() for ch in token)``, answered in C: the only
    ASCII digits are 0-9, and other text is walked by ``map``."""
    if token.isascii():
        return _ASCII_DIGIT(token) is not None
    return any(map(str.isdigit, token))


def _seed_template(tokens: list[str]) -> list[str]:
    """Mask digit-bearing tokens up front: sequence numbers, addresses
    and sector counts are parameters, never template structure."""
    return [WILDCARD if _has_digit(tok) else tok for tok in tokens]


def pattern_id_for(seed_tokens: list[str]) -> str:
    """Content-derived cluster id, stable across streams and runs."""
    return _pattern_id(" ".join(seed_tokens))


@functools.lru_cache(maxsize=4096)
def _pattern_id(seed: str) -> str:
    # Kept per seed: every stream of a storm seeds the same template.
    return format(mix64(fnv1a_64(seed.encode())), "016x")


def template_matches(template: str, line: str, config: DrainConfig) -> bool:
    """True iff ``line`` is an instance of ``template``."""
    tokens = tokenize(line, config)
    if tokens is None:
        return False
    ttokens = template.split(" ")
    if len(ttokens) != len(tokens):
        return False
    return all(t == WILDCARD or t == s for t, s in zip(ttokens, tokens))


@dataclass
class PatternCluster:
    """One mined template with its running aggregates."""

    pattern_id: str
    tokens: list[str]
    #: Per position: did the seed mask a digit-bearing token here?  Fixed
    #: at creation; ``tokens`` also gains ``<*>`` where lines disagree.
    masked: tuple[bool, ...]
    count: int = 0
    first_seen_ns: int = 0
    last_seen_ns: int = 0
    exemplar: str = ""
    #: ``" ".join(tokens)``, kept: it changes only when a line widens it.
    template: str = field(init=False)

    def __post_init__(self) -> None:
        self.template = " ".join(self.tokens)
        self._masked_at = [i for i, m in enumerate(self.masked) if m]

    def _similarity(self, tokens: list[str]) -> float:
        """Fraction of positions that match: the same token, or a
        digit-bearing token where the seed masked one — so the seed line
        itself scores 1.0 however many of its tokens carry digits, and a
        second cluster with this one's ``pattern_id`` is never minted.  A
        position widened by disagreement earns no credit, so a template
        cannot dissolve into ``<*>`` by attracting everything."""
        # A masked position holds ``<*>``, which carries no digit, so the
        # two ways to match never both count.
        matching = sum(map(operator.eq, self.tokens, tokens))
        for i in self._masked_at:
            if _has_digit(tokens[i]):
                matching += 1
        return matching / len(tokens)

    def _absorb(self, tokens: list[str], timestamp_ns: int) -> None:
        if tokens != self.tokens:
            widened = [t if t == s else WILDCARD for t, s in zip(self.tokens, tokens)]
            if widened != self.tokens:
                self.tokens = widened
                self.template = " ".join(widened)
        self.count += 1
        if timestamp_ns < self.first_seen_ns:
            self.first_seen_ns = timestamp_ns
        if timestamp_ns > self.last_seen_ns:
            self.last_seen_ns = timestamp_ns


class _Node:
    __slots__ = ("children", "clusters")

    def __init__(self) -> None:
        self.children: dict[int | str, _Node] = {}
        self.clusters: list[PatternCluster] = []


class DrainMiner:
    """One online miner instance (per (tenant, stream) in the ingester)."""

    def __init__(self, config: DrainConfig | None = None) -> None:
        self.config = config or DrainConfig()
        self._root = _Node()
        self._clusters: list[PatternCluster] = []
        self.lines_mined = 0
        self.forced_merges = 0

    def add_line(
        self, line: str, timestamp_ns: int = 0
    ) -> tuple[PatternCluster, bool] | None:
        """Mine one line; returns ``(cluster, created)`` or ``None`` for
        blank input.  ``created`` is True when the line seeded a new
        cluster rather than joining an existing one."""
        tokens = tokenize(line, self.config)
        if tokens is None:
            return None
        self.lines_mined += 1
        leaf = self._route(tokens)
        cluster, similarity = self._closest(leaf, tokens)
        if cluster is not None and similarity < self.config.sim_threshold:
            if len(leaf.clusters) < self.config.max_clusters_per_leaf:
                cluster = None  # room for a new one
            else:
                # Full leaf: force-merge into the closest cluster even below
                # the similarity threshold — boundedness beats purity.
                self.forced_merges += 1
        if cluster is not None:
            cluster._absorb(tokens, timestamp_ns)
            return cluster, False
        seed = _seed_template(tokens)
        cluster = PatternCluster(
            pattern_id=pattern_id_for(seed),
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

    def clusters(self) -> list[PatternCluster]:
        """All clusters in creation order (deterministic)."""
        return list(self._clusters)

    @property
    def cluster_count(self) -> int:
        return len(self._clusters)

    def _route(self, tokens: list[str]) -> _Node:
        # Level 0: length group.  Always admitted — lines of different
        # token counts must never share a leaf (similarity and widening
        # assume equal lengths), and tokenize() already bounds the
        # number of length groups to max_length_tokens + 1, so this
        # level needs no max_children folding.
        node = self._root.children.get(len(tokens))
        if node is None:
            node = self._root.children[len(tokens)] = _Node()
        # Levels 1..leading_tokens: leading tokens, digits masked.
        for i in range(self.config.leading_tokens):
            tok = tokens[i] if i < len(tokens) else _PAD_KEY
            key = WILDCARD if _has_digit(tok) else tok
            node = node.children.get(key) or self._child(node, key)
        return node

    def _child(self, node: _Node, key: str) -> _Node:
        child = node.children.get(key)
        if child is not None:
            return child
        # The wildcard child is always admitted on top of the literal
        # budget; once literals are exhausted, new keys fold into it.
        if key != WILDCARD and len(node.children) >= self.config.max_children:
            return self._child(node, WILDCARD)
        child = _Node()
        node.children[key] = child
        return child

    @staticmethod
    def _closest(
        leaf: _Node, tokens: list[str]
    ) -> tuple[PatternCluster | None, float]:
        """The leaf's most similar cluster and its similarity, each
        cluster scored once."""
        best = None
        best_sim = -1.0
        for cluster in leaf.clusters:  # creation order breaks ties
            sim = cluster._similarity(tokens)
            if sim > best_sim:
                best, best_sim = cluster, sim
        return best, best_sim
