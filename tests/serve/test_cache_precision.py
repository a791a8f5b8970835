"""Invalidation precision of the aggregate cache, proven by counters.

The cache's contract is not just "correct answers" (the parity suites
pin that) but "*precise* invalidation": a tick may only evict answers
its dirty set could actually have moved.  These tests read the
hit/miss counters -- through ``CacheStats`` and through the metrics
registry the operators see -- to prove the negative space: a warm
re-walk of every aggregate is all hits, and a tick leaves every
collection its dirty set never touched warm.
"""

from __future__ import annotations

import random

from repro.obs.registry import MetricsRegistry
from repro.serve import ServeService
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import apply_random_reorg

from tests.serve.storm import storm_tick


def _warm(query):
    """Touch every aggregate family once (fills the caches)."""
    query.funnel_stats()
    for contract in query.collections():
        query.collection_rollup(contract)
    for venue in query.venues():
        query.marketplace_rollup(venue)


class TestRegistryCounters:
    def test_hits_and_misses_surface_through_the_registry(self, tiny_world):
        registry = MetricsRegistry()
        service = ServeService.for_world(tiny_world, registry=registry)
        service.run()
        _warm(service.query)
        first = registry.snapshot()["counters"]
        assert first["serve_cache_misses_total"] > 0
        _warm(service.query)
        second = registry.snapshot()["counters"]
        # A fully warm re-walk is all hits: not one extra miss.
        assert second["serve_cache_misses_total"] == (
            first["serve_cache_misses_total"]
        )
        assert second["serve_cache_hits_total"] > first["serve_cache_hits_total"]
        stats = service.cache_stats()
        assert (stats.hits, stats.misses) == (
            second["serve_cache_hits_total"],
            second["serve_cache_misses_total"],
        )


class TestScopePrecision:
    def test_ticks_only_invalidate_the_collections_they_touch(self):
        """Across a storm: every tick, each collection without a dirty
        token must answer its rollup from cache alone."""
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)
        dirty_contracts = []
        service.monitor.subscribe_snapshots(
            lambda snapshot: dirty_contracts.append(
                {nft.contract for nft in snapshot.dirty_nfts}
            )
        )
        rng = random.Random(5)
        for _ in range(4):
            storm_tick(world, service, rng)
        contracts = service.query.collections()
        assert contracts, "priming must have surfaced collections"

        untouched_seen = 0
        for _ in range(16):
            for contract in contracts:
                service.query.collection_rollup(contract)
            # Fine-grained strides keep per-tick dirty sets small, with
            # a reorg whenever ingest catches the head.
            if service.monitor.processed_block >= world.node.block_number:
                apply_random_reorg(
                    world.chain, rng.randint(1, 6), rng, drop_probability=0.3
                )
            service.advance(
                min(
                    world.node.block_number,
                    service.monitor.processed_block + rng.randint(2, 8),
                )
            )
            untouched = [c for c in contracts if c not in dirty_contracts[-1]]
            misses = service.cache.stats.misses
            for contract in untouched:
                service.query.collection_rollup(contract)
            assert service.cache.stats.misses == misses, (
                "a tick must not evict a collection its dirty set never touched"
            )
            untouched_seen += len(untouched)
        assert untouched_seen > 0
