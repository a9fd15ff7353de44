"""Epoch-versioned memoization of routing state.

The VRA recomputes the LVN weight table (equations 1-4) and a full
Dijkstra tree for every decision, yet its inputs only change when a
*routing epoch* advances: an SNMP sample lands in the limited-access
database, a link fails or recovers, or — on the ground-truth path —
link usage itself mutates.  Between epochs every recomputation is
byte-identical, so the service threads a cheap epoch token (see
``VoDService.routing_epoch``) through this cache and reuses:

* the LVN ``weight_table`` — one per epoch, and
* the ``DijkstraResult`` shortest-path tree — one per ``(epoch, source)``,
  LRU-bounded by ``max_trees``.

Correctness contract: the epoch token MUST change whenever any routing
input could have changed.  Under that contract a cache hit returns the
same decision bit-for-bit as a cold run; the SNMP *staleness* the paper
reproduces lives in the database values themselves, not in the act of
recomputing, so memoization preserves it exactly (the VRA still sees
exactly the last SNMP sample).

A new epoch token flushes everything (an *invalidation*): the weight
table and every cached tree are dropped and recompute lazily on the next
request.

``max_trees=0`` disables the cache entirely: every call computes fresh
and no counters move, restoring the uncached behaviour exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional

from repro.errors import ReproError
from repro.network.routing.dijkstra import DijkstraResult
from repro.obs.phase import NO_PHASE_TIMER, PhaseTimer
from repro.obs.registry import NULL_COUNTER, Counter, MetricsRegistry

#: Default LRU bound on cached Dijkstra trees (one per home server is the
#: steady state, so this comfortably covers topologies of ~128 nodes).
DEFAULT_TREE_CAPACITY = 128

#: Default LRU bound on whole memoized decisions; one flash crowd keys a
#: handful of (home, title, holder-signature) tuples, so this covers many
#: concurrent crowds.
DEFAULT_DECISION_CAPACITY = 4096


@dataclass
class RoutingCacheStats:
    """Hit/miss/invalidation counters of one :class:`RoutingCache`.

    Attributes:
        weight_hits: LVN table requests answered from cache.
        weight_misses: LVN table requests that recomputed.
        tree_hits: Dijkstra-tree requests answered from cache.
        tree_misses: Dijkstra-tree requests that recomputed.
        invalidations: Epoch transitions that flushed the cache (the
            first epoch a cache sees is not counted).
        trees_rerooted: Cached trees discarded by those flushes (they
            recompute lazily, from their own source only, on next use).
        trees_repaired: Always 0; kept readable for external readers of
            the earlier in-place tree-repair counter.
        dirty_links: Always 0; kept readable for the same reason.
        evictions: Trees dropped by the LRU bound (not by invalidation).
    """

    weight_hits: int = 0
    weight_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    invalidations: int = 0
    trees_rerooted: int = 0
    trees_repaired: int = 0
    dirty_links: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Total cache hits (weights + trees)."""
        return self.weight_hits + self.tree_hits

    @property
    def misses(self) -> int:
        """Total cache misses (weights + trees)."""
        return self.weight_misses + self.tree_misses

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, in [0, 1] (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots, traces and reports."""
        return {
            "weight_hits": self.weight_hits,
            "weight_misses": self.weight_misses,
            "tree_hits": self.tree_hits,
            "tree_misses": self.tree_misses,
            "invalidations": self.invalidations,
            "trees_rerooted": self.trees_rerooted,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class RoutingCache:
    """Per-epoch memo of the LVN table and Dijkstra trees.

    Args:
        max_trees: LRU bound on cached trees; ``0`` disables the cache.

    The cache holds state for exactly one epoch at a time: the first
    lookup under a new epoch token flushes the previous epoch's state
    (counted as an invalidation).  Keeping only the live epoch is
    deliberate — stale epochs can never be asked for again, because the
    version counters feeding the token are monotonic.
    """

    max_trees: int = DEFAULT_TREE_CAPACITY
    stats: RoutingCacheStats = field(default_factory=RoutingCacheStats)
    _epoch: Optional[Hashable] = field(default=None, repr=False)
    _weights: Optional[Dict[str, float]] = field(default=None, repr=False)
    _trees: "OrderedDict[str, DijkstraResult]" = field(
        default_factory=OrderedDict, repr=False
    )
    #: Wall-clock timer around epoch transitions (obs.phase.cache_sync_ms);
    #: the service swaps in a live timer when phase profiling is on.
    phase_timer: PhaseTimer = field(default=NO_PHASE_TIMER, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_trees < 0:
            raise ReproError(
                f"routing cache size must be >= 0, got {self.max_trees!r}"
            )

    @property
    def enabled(self) -> bool:
        """False when ``max_trees`` is 0 (pass-through mode)."""
        return self.max_trees > 0

    @property
    def epoch(self) -> Optional[Hashable]:
        """The epoch token currently cached (None before first use)."""
        return self._epoch

    def weights(
        self, epoch: Hashable, compute: Callable[[], Dict[str, float]]
    ) -> Dict[str, float]:
        """The LVN table for ``epoch``, computing via ``compute`` on miss."""
        if not self.enabled:
            return compute()
        self.sync(epoch)
        if self._weights is None:
            self.stats.weight_misses += 1
            self._weights = compute()
        else:
            self.stats.weight_hits += 1
        return self._weights

    def tree(
        self,
        epoch: Hashable,
        source: str,
        compute: Callable[[], DijkstraResult],
    ) -> DijkstraResult:
        """The Dijkstra tree from ``source`` for ``epoch`` (LRU-bounded)."""
        if not self.enabled:
            return compute()
        self.sync(epoch)
        cached = self._trees.get(source)
        if cached is not None:
            self.stats.tree_hits += 1
            self._trees.move_to_end(source)
            return cached
        self.stats.tree_misses += 1
        result = compute()
        self._trees[source] = result
        while len(self._trees) > self.max_trees:
            self._trees.popitem(last=False)
            self.stats.evictions += 1
        return result

    def clear(self) -> None:
        """Drop all cached state (counters are preserved)."""
        self._epoch = None
        self._weights = None
        self._trees.clear()

    def sync(self, epoch: Hashable) -> bool:
        """Bring the cache onto ``epoch``; True when live state was flushed.

        Called implicitly by :meth:`weights`/:meth:`tree`, and explicitly
        by the VRA, which flushes the :class:`DecisionCache` on a True
        answer.  The first epoch and an unchanged epoch answer False.
        """
        if epoch == self._epoch:
            return False
        t_phase = self.phase_timer.start()
        flushed = self._epoch is not None
        if flushed:
            self.stats.invalidations += 1
            self.stats.trees_rerooted += len(self._trees)
        self._epoch = epoch
        self._weights = None
        self._trees.clear()
        self.phase_timer.stop(t_phase)
        return flushed


@dataclass
class DecisionCacheStats:
    """Hit/miss/invalidation counters of one :class:`DecisionCache`.

    Attributes:
        hits: Decisions answered whole from cache.
        misses: Lookups that fell through to a full VRA run.
        invalidations: Epoch transitions that flushed every decision.
        decisions_flushed: Decisions dropped by those flushes.
        decisions_dropped: Decisions dropped because a circuit-breaker
            transition touched their chosen server.
        evictions: Decisions dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    decisions_flushed: int = 0
    decisions_dropped: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, in [0, 1] (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for snapshots, traces and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "decisions_flushed": self.decisions_flushed,
            "decisions_dropped": self.decisions_dropped,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _DecisionEntry:
    """One memoized decision plus its replayed telemetry sample."""

    decision: object
    candidate_count: int


class DecisionCache:
    """Whole-decision memo layered above the :class:`RoutingCache`.

    Every request sharing a key — the caller builds it from the home
    server, title, per-holder availability signature and QoS class — is
    answered with the *same* :class:`~repro.core.vra.VraDecision` within
    one routing epoch, so a 10k-request flash crowd costs one Dijkstra
    run plus 10k dict hits.

    Invalidation contract:

    * An epoch transition that flushes the routing cache underneath
      flushes every decision too (:meth:`flush`).
    * Availability churn that moves no routing-epoch counter — a holder
      filling its last stream slot, a title evicted by the DMA — is
      carried by the *key* (the holder signatures change), not by
      invalidation.

    ``max_decisions=0`` disables the cache entirely: lookups miss, stores
    are dropped, and no counters move.
    """

    def __init__(self, max_decisions: int = DEFAULT_DECISION_CAPACITY):
        if max_decisions < 0:
            raise ReproError(
                f"decision cache size must be >= 0, got {max_decisions!r}"
            )
        self.max_decisions = max_decisions
        self.stats = DecisionCacheStats()
        self._entries: "OrderedDict[Hashable, _DecisionEntry]" = OrderedDict()
        self._on = max_decisions > 0
        self._full = False
        self._m_hits: Counter = NULL_COUNTER
        self._m_misses: Counter = NULL_COUNTER
        self._m_dropped: Counter = NULL_COUNTER

    @property
    def enabled(self) -> bool:
        """False when ``max_decisions`` is 0 (pass-through mode)."""
        return self.max_decisions > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[_DecisionEntry]:
        """The live entry under ``key``, or None (counted as hit/miss)."""
        if not self._on:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._m_misses.inc()
            return None
        self.stats.hits += 1
        self._m_hits.inc()
        if self._full:
            # LRU ordering only matters once eviction is possible; below
            # capacity the reorder is skipped to keep the hit path lean.
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: Hashable) -> Optional[_DecisionEntry]:
        """The entry under ``key`` without hit/miss accounting or LRU
        reordering (introspection; the service's replay layer reads the
        candidate count it just stored)."""
        return self._entries.get(key)

    def put(
        self,
        key: Hashable,
        decision: object,
        candidate_count: int = 0,
    ) -> None:
        """Memoize ``decision`` under ``key`` (LRU-bounded).

        Args:
            key: The full decision key; the caller guarantees that equal
                keys within one epoch imply bit-identical decisions.
            decision: The decision object to hand back on hits.
            candidate_count: Polled-up remote candidates, replayed into
                the ``vra.candidates`` histogram on hits so telemetry
                matches a cache-off run.
        """
        if not self._on:
            return
        self._entries[key] = _DecisionEntry(decision, candidate_count)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_decisions:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._full = len(self._entries) >= self.max_decisions

    def flush(self) -> None:
        """Drop every decision because the routing epoch moved (counted)."""
        self.stats.invalidations += 1
        self.stats.decisions_flushed += len(self._entries)
        self.clear()

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Resolve the ``decision.*`` counters from a registry."""
        self._m_hits = registry.counter(
            "decision.hits", subsystem="core",
            description="VRA decisions answered whole from the decision cache",
        )
        self._m_misses = registry.counter(
            "decision.misses", subsystem="core",
            description="decision-cache lookups that ran the full VRA",
        )
        self._m_dropped = registry.counter(
            "decision.dropped", subsystem="core",
            description="cached decisions evicted by a server breaker transition",
        )

    def evict_server(self, uid: str) -> int:
        """Drop every cached decision whose chosen source is ``uid``.

        Circuit-breaker transitions change which servers the service's
        holder filter admits without moving any routing-epoch counter;
        the service evicts the transitioning server's decisions here so a
        probe (or a re-opened breaker) can never replay a choice made
        under the previous breaker state.

        Returns:
            The number of decisions dropped.
        """
        if not self._entries:
            return 0
        stale = [
            key
            for key, entry in self._entries.items()
            if getattr(entry.decision, "chosen_uid", None) == uid
        ]
        for key in stale:
            del self._entries[key]
            self.stats.decisions_dropped += 1
            self._m_dropped.inc()
        if stale:
            self._full = len(self._entries) >= self.max_decisions
        return len(stale)

    def count_hit(self) -> None:
        """Count a hit answered by an outer replay layer.

        The service's same-state fast path can prove (via its freshness
        token) that a previously returned decision is still exact without
        re-entering the VRA; it calls this so hit-rate reporting matches
        what a full lookup would have counted.
        """
        self.stats.hits += 1
        self._m_hits.inc()

    def clear(self) -> None:
        """Drop all cached decisions (counters are preserved)."""
        self._entries.clear()
        self._full = False
