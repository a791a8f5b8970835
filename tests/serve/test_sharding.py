"""The partitioned live path: sharded answers must be bit-identical.

Acceptance bar of the sharding tentpole: a ``ServeService`` running N
read-model shards behind the scatter-gather router must answer every
query family *identically* to the single-index service over the same
chain history -- including under randomized reorg storms, where
retraction revisions and two-phase publication have to hold globally.
On top of the black-box equivalence, the structural invariants are
pinned directly: stable hash routing, disjoint shard slices, the
shared gapless alert log, and per-shard cache isolation (a tick
touching one shard leaves the other shards' cached aggregates warm).
"""

from __future__ import annotations

import random

import pytest

from repro.chain.types import NFTKey
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.serve import (
    GlobalVersion,
    QueryService,
    ServeService,
    ShardSpec,
    ShardedServeIndex,
    serving_parity_mismatches,
    shard_of,
    sharded_parity_mismatches,
)
from repro.serve.model import AccountProfile
from repro.serve.sharding import merge_profiles
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig

from tests.serve.storm import drive_ticks


def _storm_service(shards: int, seed: int = 7, ticks: int = 14):
    """A serve service driven through a seeded reorg storm.

    Both members of a parity pair replay the *same* storm: the world
    build and the reorg schedule are fully seeded, and the shard count
    never influences monitor progress, so the two services see
    identical chains tick for tick.  A final ``run()`` settles both on
    the same canonical head.
    """
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, shards=shards)
    drive_ticks(world, service, random.Random(seed), ticks=ticks)
    service.run()
    return world, service


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        nft = NFTKey(contract="0xabc", token_id=17)
        for count in (1, 2, 4, 7):
            slot = shard_of(nft, count)
            assert 0 <= slot < count
            assert slot == shard_of(nft, count), "routing must be pure"

    def test_shard_specs_partition_every_key(self):
        keys = [
            NFTKey(contract=f"0x{i:040x}", token_id=j)
            for i in range(5)
            for j in range(20)
        ]
        specs = [ShardSpec(index=i, count=4) for i in range(4)]
        for nft in keys:
            owners = [spec.index for spec in specs if spec.contains(nft)]
            assert owners == [shard_of(nft, 4)]

    def test_merge_profiles_reproduces_global_record_order(self):
        class Record:
            def __init__(self, seq, key):
                self.seq, self.key = seq, key

        a = AccountProfile(address="0xa", records=(Record(3, "c"), Record(5, "a")))
        b = AccountProfile(address="0xa", records=(Record(1, "b"), Record(4, "d")))
        merged = merge_profiles("0xa", [a, b])
        assert [(r.seq, r.key) for r in merged.records] == [
            (1, "b"),
            (3, "c"),
            (4, "d"),
            (5, "a"),
        ]
        assert merge_profiles("0xa", [a]) is a


class TestShardedParityUnderStorm:
    """Sharded vs single-index equivalence through a reorg storm."""

    @pytest.fixture(scope="class", params=[2, 4])
    def pair(self, request):
        _, single = _storm_service(shards=1)
        world, sharded = _storm_service(shards=request.param)
        return world, single, sharded

    def test_versions_align(self, pair):
        _, single, sharded = pair
        v1, vn = single.query.version(), sharded.query.version()
        assert isinstance(vn, GlobalVersion)
        assert (v1.version, v1.block, v1.last_seq) == (
            vn.version,
            vn.block,
            vn.last_seq,
        )
        assert v1.dirty_token_count == vn.dirty_token_count
        assert v1.retracted_count == vn.retracted_count
        assert v1.newly_confirmed_count == vn.newly_confirmed_count
        assert v1.is_revision == vn.is_revision

    def test_confirmed_listing_is_bit_identical(self, pair):
        _, single, sharded = pair
        v1, vn = single.query.version(), sharded.query.version()
        assert tuple(v1.confirmed) == tuple(vn.confirmed)
        assert v1.token_order == vn.token_order
        assert v1.store_stats == vn.store_stats

    def test_point_lookups_and_profiles_match(self, pair):
        _, single, sharded = pair
        v1, vn = single.query.version(), sharded.query.version()
        assert dict(v1.token_status) == dict(vn.token_status)
        assert dict(v1.account_profiles) == dict(vn.account_profiles)
        assert v1.flagged_nfts == vn.flagged_nfts
        for nft in v1.flagged_nfts:
            assert single.query.token_status(nft) == sharded.query.token_status(
                nft
            )

    def test_aggregates_match(self, pair):
        _, single, sharded = pair
        assert single.query.funnel_stats() == sharded.query.funnel_stats()
        assert single.query.collections() == sharded.query.collections()
        assert single.query.venues() == sharded.query.venues()
        for contract in single.query.collections():
            assert single.query.collection_rollup(
                contract
            ) == sharded.query.collection_rollup(contract)
        for venue in single.query.venues():
            assert single.query.marketplace_rollup(
                venue
            ) == sharded.query.marketplace_rollup(venue)

    def test_pagination_and_alert_replay_match(self, pair):
        _, single, sharded = pair
        cursor1 = cursor_n = None
        while True:
            page1 = single.query.list_confirmed(limit=5, cursor=cursor1)
            page_n = sharded.query.list_confirmed(limit=5, cursor=cursor_n)
            assert page1.records == page_n.records
            assert page1.total_matched == page_n.total_matched
            cursor1, cursor_n = page1.next_cursor, page_n.next_cursor
            if cursor1 is None or cursor_n is None:
                assert cursor1 == cursor_n
                break
        assert single.index.alerts_since(-1) == sharded.index.alerts_since(-1)

    def test_batch_parity_globally_and_per_shard(self, pair):
        world, _, sharded = pair
        batch = WashTradingPipeline(
            labels=world.labels,
            is_contract=world.is_contract,
            engine="columnar",
        ).run(build_dataset(world.node, world.marketplace_addresses))
        assert serving_parity_mismatches(sharded.query, batch) == []
        assert sharded_parity_mismatches(sharded.index, batch) == []


class TestCoordinator:
    def test_rejects_nonpositive_shard_counts(self, tiny_world):
        with pytest.raises(ValueError):
            ServeService.for_world(tiny_world, shards=0)

    def test_router_sits_on_a_sharded_index(self, tiny_world):
        service = ServeService.for_world(tiny_world, shards=3)
        assert isinstance(service.index, ShardedServeIndex)
        assert isinstance(service.query, QueryService)
        assert service.query.shard_count == 3
        assert service.cache is service.index.router_cache
        assert len(service.index.caches) == 3

    def test_two_phase_publication_is_atomic_to_subscribers(self, tiny_world):
        """A version subscriber must always observe a consistent global
        snapshot: every shard version it holds belongs to the same tick,
        and the shard handles already agree with it."""
        service = ServeService.for_world(tiny_world, shards=4)
        seen = []

        def check(version):
            assert {shard.version for shard in version.shards} == {
                version.version
            }
            for index, shard_version in zip(
                service.index.shards, version.shards
            ):
                assert index.current is shard_version
            seen.append(version.version)

        service.index.subscribe_versions(check)
        service.run()
        assert seen, "ticks must have published"

    def test_shard_slices_are_disjoint_and_exhaustive(self, tiny_world):
        service = ServeService.for_world(tiny_world, shards=4)
        service.run()
        version = service.query.version()
        union = []
        for i, shard_version in enumerate(version.shards):
            for nft in shard_version.token_status:
                assert shard_of(nft, 4) == i
            union.extend(shard_version.token_status)
        assert len(union) == len(set(union))
        assert set(union) == set(version.token_status)

    def test_untouched_shards_reuse_their_version(self, tiny_world):
        """A tick whose dirty slice misses a shard republishes that
        shard's containers by reference (the O(1) fast path)."""
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world, shards=4)
        service.run()
        before = service.query.version()
        # An empty advance (no new blocks) dirties nothing anywhere.
        service.advance(service.monitor.processed_block)
        after = service.query.version()
        for shard_before, shard_after in zip(before.shards, after.shards):
            assert shard_after.confirmed is shard_before.confirmed
            assert shard_after.token_status is shard_before.token_status
            assert shard_after.funnel is shard_before.funnel


class TestDifferentialFunnel:
    def test_maintained_partial_matches_refold_through_a_storm(self):
        """Every published shard version's maintained funnel partial is
        bit-equal to a from-scratch fold over its token states.

        The maintainer applies only per-tick dirty deltas (including
        retire-only deltas for reorg-vanished tokens), so holding this
        through a reorg storm proves the per-token stage statistics
        really are invertible -- no drift, no residue from retracted
        tokens.
        """
        import dataclasses

        from repro.serve.router import funnel_partial
        from tests.serve.storm import storm_tick

        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world, shards=3)
        rng = random.Random(11)
        checked = 0
        for _ in range(12):
            storm_tick(world, service, rng)
            for shard_version in service.query.version().shards:
                maintained = shard_version.funnel
                assert maintained is not None
                refold = funnel_partial(
                    dataclasses.replace(shard_version, funnel=None)
                )
                assert maintained.candidate_count == refold.candidate_count
                assert maintained.confirmed_count == refold.confirmed_count
                assert [
                    stage.to_stage() for stage in maintained.stages
                ] == [stage.to_stage() for stage in refold.stages]
                checked += 1
        assert checked > 0
