"""Serving under chain reorganizations.

The satellite bar: a query stream interleaved with a :class:`ReorgStorm`
never observes a retracted activity without a matching revision in the
alert stream, version numbers stay monotone, and -- the serving parity
acceptance criterion -- every published version (including mid-storm
revisions) equals a fresh batch build over that canonical chain prefix.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.chain.block import Block
from repro.chain.node import EthereumNode
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.serve import ServeService, record_key, serving_parity_mismatches
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm, apply_random_reorg
from repro.stream import AlertKind
from tests.serve.storm import follow_storm


def fresh_world():
    return build_default_world(SimulationConfig.tiny())


class ClampedNode(EthereumNode):
    """Archive view hiding everything past ``upper`` (causal prefix)."""

    def __init__(self, node, upper):
        super().__init__(node.chain)
        self._upper = upper

    def get_transactions_of(self, address):
        return [
            tx
            for tx in super().get_transactions_of(address)
            if tx.block_number <= self._upper
        ]


def batch_at(world, block):
    dataset = build_dataset(
        ClampedNode(world.node, block), world.marketplace_addresses, to_block=block
    )
    return WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="columnar"
    ).run(dataset)


def fold_alerts(alerts):
    """Confirmations minus retractions, asserting no orphan retraction."""
    folded: Counter = Counter()
    for alert in alerts:
        if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
            folded[record_key(alert.activity)] += 1
        elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
            key = record_key(alert.activity)
            folded[key] -= 1
            assert folded[key] >= 0, (
                f"retraction of {key} at seq {alert.seq} without a matching "
                f"prior confirmation"
            )
    return +folded


def retracted_alerts(service, nft):
    """How many ACTIVITY_RETRACTED alerts ``nft`` has had."""
    return sum(
        1
        for alert in service.monitor.alerts
        if alert.kind is AlertKind.ACTIVITY_RETRACTED and alert.nft == nft
    )


class TestServeUnderReorgStorm:
    def test_revision_stream_is_consistent_at_every_version(self):
        """Fold(alert log up to version.last_seq) == version.confirmed."""
        world = fresh_world()
        service = ServeService.for_world(world, max_reorg_depth=64)
        versions = []
        service.index.subscribe_versions(versions.append)
        # Snapshot subscribers after the index run once the tick's
        # version is current.
        flagged = {}

        def count_flagged(snapshot):
            flagged[snapshot.tick] = snapshot.flagged_nft_count

        service.monitor.subscribe_snapshots(count_flagged)
        storm = ReorgStorm(
            world,
            random.Random(7),
            reorg_probability=0.45,
            max_depth=13,
            drop_probability=0.3,
            delay_probability=0.25,
            max_shorten=2,
            step_range=(5, 90),
        )
        summaries = storm.run(service.monitor)
        assert summaries, "the storm must actually reorg"
        assert any(version.is_revision for version in versions)
        assert flagged == {
            version.version: len(version.flagged_nfts) for version in versions
        }
        assert any(flagged.values())

        log = service.monitor.alerts
        numbers = [version.version for version in versions]
        assert numbers == sorted(numbers) and len(set(numbers)) == len(numbers)
        for version in versions:
            folded = fold_alerts(log[: version.last_seq + 1])
            assert folded == Counter(
                record.key for record in version.confirmed
            ), f"version {version.version} diverges from its alert prefix"

        batch = WashTradingPipeline(
            labels=world.labels, is_contract=world.is_contract, engine="columnar"
        ).run(build_dataset(world.node, world.marketplace_addresses))
        assert serving_parity_mismatches(service.query, batch) == []

    def test_retraction_and_token_counts_at_every_version(self):
        """Through head-following reorg storms, at every published
        version: a token's ``retraction_count`` is its retraction alerts
        since it last had no confirmed activity, and a collection's
        ``token_count`` and ``retraction_count`` are its store tokens and
        the sum over its tokens' statuses."""
        world = fresh_world()
        service = ServeService.for_world(
            world, max_reorg_depth=world.node.block_number + 2
        )
        store = service.monitor.cursor.store
        retractions: Counter = Counter()
        seen = {"last_seq": -1, "statuses": 0, "retracted": 0}

        def check(version):
            log = service.monitor.alerts
            for alert in log[seen["last_seq"] + 1 : version.last_seq + 1]:
                if alert.kind is AlertKind.ACTIVITY_RETRACTED:
                    retractions[alert.nft] += 1
            seen["last_seq"] = version.last_seq
            for nft in list(retractions):
                if nft not in version.token_status:
                    del retractions[nft]
            for nft, status in version.token_status.items():
                assert status.retraction_count == retractions[nft], (
                    f"version {version.version}: {nft}"
                )
                seen["statuses"] += 1
                seen["retracted"] += status.retraction_count
            for contract in service.query.collections(version=version):
                rollup = service.query.collection_rollup(contract, version=version)
                assert rollup.token_count == sum(
                    1 for nft in store.tokens if nft.contract == contract
                )
                assert rollup.retraction_count == sum(
                    status.retraction_count
                    for nft, status in version.token_status.items()
                    if nft.contract == contract
                )

        service.index.subscribe_versions(check)
        assert follow_storm(world, service.monitor, random.Random(3))
        assert seen["statuses"] > 0 and seen["retracted"] > 0

        # Empty every block holding a flagged token's activities, then
        # bring them back: the token is clean in between, so its count
        # restarts although it was retracted.
        statuses = service.index.current.token_status
        nft = max(
            statuses,
            key=lambda n: min(r.first_block for r in statuses[n].records),
        )
        depth = world.node.block_number - min(
            record.first_block for record in statuses[nft].records
        ) + 1
        orphaned = world.chain.reorg(
            depth,
            [
                Block(number=block.number, timestamp=block.timestamp)
                for block in world.chain.blocks[-depth:]
            ],
        )
        assert nft not in service.advance().token_status
        world.chain.reorg(depth, orphaned)
        status = service.advance().token_status[nft]
        assert status.retraction_count == 0 < retracted_alerts(service, nft)
        assert not service.index.subscriber_errors

    def test_every_version_matches_clamped_batch_build(self):
        """The acceptance criterion: per-version batch parity mid-storm."""
        world = fresh_world()
        service = ServeService.for_world(world, max_reorg_depth=64)
        rng = random.Random(31)
        tick = 0
        while service.monitor.processed_block < world.node.block_number:
            target = min(
                world.node.block_number,
                service.monitor.processed_block + rng.randint(15, 90),
            )
            version = service.advance(target)
            mismatches = serving_parity_mismatches(
                service.query,
                batch_at(world, service.monitor.processed_block),
                version=version,
            )
            assert mismatches == [], f"version {version.version}: {mismatches}"
            tick += 1
            if tick % 2 == 0:
                apply_random_reorg(
                    world.chain,
                    rng.randint(1, 12),
                    rng,
                    drop_probability=0.4,
                    delay_probability=0.25,
                    shorten=1 if tick % 4 == 0 else 0,
                )
        version = service.advance()  # settle the final revision
        assert (
            serving_parity_mismatches(
                service.query,
                batch_at(world, service.monitor.processed_block),
                version=version,
            )
            == []
        )
        assert version.confirmed_activity_count > 0

    def test_pinned_version_survives_a_revision(self):
        """Snapshot isolation: a revision never edits a served snapshot."""
        world = fresh_world()
        head = world.node.block_number
        service = ServeService.for_world(world, max_reorg_depth=head + 2)
        pinned = service.run(step_blocks=29)
        assert pinned.confirmed_activity_count > 0
        pinned_keys = [record.key for record in pinned.confirmed]

        apply_random_reorg(
            world.chain, 25, random.Random(3), drop_probability=0.9
        )
        revision = service.advance()
        assert revision.is_revision
        assert revision.version > pinned.version
        # The pinned snapshot still serves its pre-revision truth...
        assert [record.key for record in pinned.confirmed] == pinned_keys
        status = service.query.token_status(
            pinned.confirmed[0].nft, version=pinned
        )
        assert status.is_washed
        # ...while the current version reflects the retractions.
        assert revision.confirmed_activity_count <= len(pinned_keys)

    def test_retraction_counts_surface_in_token_status(self):
        """A token that lost an activity to a reorg reports the retraction."""
        world = fresh_world()
        head = world.node.block_number
        service = ServeService.for_world(world, max_reorg_depth=head + 2)
        service.run(step_blocks=29)

        target = max(
            service.result().activities,
            key=lambda activity: max(
                t.block_number for t in activity.component.transfers
            ),
        )
        depth = head - max(
            t.block_number for t in target.component.transfers
        ) + 1
        empty = [
            Block(number=block.number, timestamp=block.timestamp)
            for block in world.chain.blocks[-depth:]
        ]
        orphaned = world.chain.reorg(depth, empty)
        service.advance()
        world.chain.reorg(depth, orphaned)  # the branch comes back
        version = service.advance()
        status = service.query.token_status(target.nft, version=version)
        # Re-confirmed after the flip, with every retraction on record.
        assert status.is_washed
        assert status.retraction_count == retracted_alerts(service, target.nft) == 4
        replayed = fold_alerts(service.monitor.alerts)
        assert replayed == Counter(record.key for record in version.confirmed)
