"""Dirty-token-keyed result cache for expensive aggregate queries.

Aggregates (collection rollups, marketplace rollups, funnel statistics)
cost O(tokens) or O(records) to compute; point queries cost O(1).  At
serving load the aggregates dominate -- unless their results are
reused.  The difficulty is *invalidation*: the monitor revises state
every tick, but most ticks touch a handful of tokens, so flushing the
whole cache per tick throws away almost everything that is still true.

This cache instead keys invalidation on the scheduler's dirty set.  An
entry is registered under one or more *scopes* -- ``("collection",
contract)``, ``("venue", name)``, or the global ``("funnel",)`` -- and
the serving index translates each tick's ``dirty_nfts`` (plus the
venues of flipped activities) into exactly the scopes whose answers may
have moved.  Entries in untouched scopes survive arbitrarily many
ticks.

Thread safety uses per-scope generation counters: a reader captures its
scopes' generations before computing, and the computed value is stored
only if no invalidation intervened -- a racing tick can waste one
compute, never poison the cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, Tuple

#: Scope of every aggregate that can change whenever any token is
#: reprocessed (the funnel statistics read every token's stage counts).
FUNNEL_SCOPE: Tuple[str, ...] = ("funnel",)

Scope = Tuple[Hashable, ...]


def collection_scope(contract: str) -> Scope:
    """Invalidation scope of one collection's aggregates."""
    return ("collection", contract)


def venue_scope(venue: str) -> Scope:
    """Invalidation scope of one marketplace's aggregates."""
    return ("venue", venue)


@dataclass
class CacheStats:
    """Counters the benchmark and the CLI report."""

    hits: int = 0
    misses: int = 0
    #: Entries dropped by scope invalidation.
    invalidated: int = 0
    #: Computed values discarded because a tick raced the computation.
    stale_discards: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass
class _Entry:
    scopes: Tuple[Scope, ...]
    generations: Tuple[int, ...]
    value: Any = field(repr=False, default=None)


class AggregateCache:
    """Scope-invalidated result cache shared by every query thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generations: Dict[Scope, int] = {}
        self._entries: Dict[Hashable, _Entry] = {}
        self.stats = CacheStats()

    def _generations_of(self, scopes: Tuple[Scope, ...]) -> Tuple[int, ...]:
        return tuple(self._generations.get(scope, 0) for scope in scopes)

    def get_or_compute(
        self,
        key: Hashable,
        scopes: Iterable[Scope],
        compute: Callable[[], Any],
    ) -> Any:
        """Serve ``key`` from cache, or compute and (safely) store it.

        ``compute`` runs outside the lock.  If any of ``scopes`` is
        invalidated between the generation capture and the store, the
        freshly computed value is returned to the caller (it is correct
        for the version the caller read) but not cached.
        """
        scope_tuple = tuple(scopes)
        with self._lock:
            generations = self._generations_of(scope_tuple)
            entry = self._entries.get(key)
            if entry is not None and entry.generations == generations:
                self.stats.hits += 1
                return entry.value
            self.stats.misses += 1
        value = compute()
        with self._lock:
            if self._generations_of(scope_tuple) == generations:
                self._entries[key] = _Entry(scope_tuple, generations, value)
            else:
                self.stats.stale_discards += 1
        return value

    def invalidate(self, scopes: Iterable[Scope]) -> int:
        """Bump the given scopes and drop every entry touching them.

        Returns the number of entries dropped.  Called by the serving
        index with the scopes derived from one tick's dirty set; an
        empty iterable is a no-op (empty ticks keep the cache warm).
        """
        scope_set = set(scopes)
        if not scope_set:
            return 0
        with self._lock:
            for scope in scope_set:
                self._generations[scope] = self._generations.get(scope, 0) + 1
            dead = [
                key
                for key, entry in self._entries.items()
                if scope_set.intersection(entry.scopes)
            ]
            for key in dead:
                del self._entries[key]
            self.stats.invalidated += len(dead)
            return len(dead)

    def register_metrics(self, registry) -> None:
        """Expose the cache through a registry *collector*.

        The cache already counts everything the stats surface needs in
        :class:`CacheStats`; a snapshot-time collector publishes those
        counters (and the live entry count / hit ratio) without adding
        any work to the lookup hot path.  Idempotent per registry call
        site: registering twice just reports the same numbers twice.
        """

        def collect():
            stats = self.stats
            return {
                "counters": {
                    "serve_cache_hits_total": stats.hits,
                    "serve_cache_misses_total": stats.misses,
                    "serve_cache_invalidated_total": stats.invalidated,
                    "serve_cache_stale_discards_total": stats.stale_discards,
                },
                "gauges": {
                    "serve_cache_entries": len(self),
                    "serve_cache_hit_ratio": stats.hit_rate,
                },
            }

        registry.register_collector(collect)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
