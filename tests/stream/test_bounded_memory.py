"""The cursor's bounded scan-match retention.

A batch scan retains every raw (transaction, log) match -- O(chain)
growth a monitor following the head indefinitely cannot afford.  The
cursor journals rows as usual but drops the raw matches once their
blocks fall out of the rollback journal; the pinned contract: match
retention stays O(journal) while *detection* parity (results, funnel,
dataset rows, account histories, even the scan's per-contract event
counts) holds exactly, reorgs included.
"""

from __future__ import annotations

import random

import pytest

from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm, apply_random_reorg
from repro.stream import DatasetCursor, StreamingMonitor
from tests.stream.test_stream_parity import assert_results_match


def fresh_world():
    return build_default_world(SimulationConfig.tiny())


def batch_over(world):
    dataset = build_dataset(world.node, world.marketplace_addresses)
    result = WashTradingPipeline(
        labels=world.labels,
        is_contract=world.is_contract,
        engine="columnar",
    ).run(dataset)
    return dataset, result


def journaled_match_count(cursor) -> int:
    return sum(entry.match_count for entry in cursor._journal)


def assert_bounded_state_parity(cursor, dataset):
    """Everything detection reads matches the batch build; matches are
    trimmed to the journal but their *count* stays exact."""
    assert cursor.transfers_by_nft == dataset.transfers_by_nft
    assert cursor.account_transactions == dataset.account_transactions
    assert cursor.compliance.compliant == dataset.compliance.compliant
    assert cursor.compliance.non_compliant == dataset.compliance.non_compliant
    assert cursor.scan.emitting_contracts == dataset.scan.emitting_contracts
    assert cursor.scan.event_count == dataset.scan.event_count
    assert cursor.scan.events_by_contract() == dataset.scan.events_by_contract()
    assert cursor.store.transfer_count == dataset.transfer_count
    assert len(cursor.scan.matches) == journaled_match_count(cursor)
    assert len(cursor.scan.matches) <= len(dataset.scan.matches)


class TestBoundedMemory:
    @pytest.mark.parametrize("depth", [0, 8, 64])
    def test_retention_is_o_journal_with_full_parity(self, depth):
        """Block-by-block follow: matches stay O(journal), results exact."""
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=depth)
        peak = 0
        for _ in range(world.node.block_number + 1):
            monitor.advance(monitor.cursor.next_block)
            peak = max(peak, len(monitor.cursor.scan.matches))
            assert len(monitor.cursor.scan.matches) == journaled_match_count(
                monitor.cursor
            )
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_bounded_state_parity(monitor.cursor, dataset)
        # The bound is the journal's own span, not the chain's.
        assert peak <= len(dataset.scan.matches)
        if depth == 0:
            assert peak <= max(
                sum(
                    1
                    for tx, log in dataset.scan.matches
                    if tx.block_number == block
                )
                for block in range(world.node.block_number + 1)
            ) + 1

    def test_bounded_and_retaining_cursors_agree_after_full_replay(self):
        """The scan's per-contract counts do not depend on retention: the
        pruning cursor matches the batch scan, which retains every match."""
        world = fresh_world()
        bounded = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=8
        )
        head = world.node.block_number
        for stop in range(0, head + 1, 7):
            bounded.advance(stop)
        bounded.advance(head)
        retaining = build_dataset(world.node, world.marketplace_addresses).scan
        assert retaining.pruned_count == 0
        assert bounded.scan.pruned_count > 0
        assert bounded.scan.event_count == retaining.event_count
        assert bounded.scan.events_by_contract() == retaining.events_by_contract()

    def test_reorg_rollback_still_works_when_bounded(self):
        """Rollbacks only ever touch journaled (still-retained) matches."""
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        monitor.run(step_blocks=17)
        for seed, depth in ((1, 5), (2, 21), (3, 55)):
            apply_random_reorg(
                world.chain,
                depth,
                random.Random(seed),
                drop_probability=0.4,
                delay_probability=0.3,
            )
            monitor.run(step_blocks=23)
            dataset, batch = batch_over(world)
            assert_results_match(monitor.result(), batch, ordered=True)
            assert_bounded_state_parity(monitor.cursor, dataset)

    def test_randomized_storm_parity_when_bounded(self):
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        storm = ReorgStorm(
            world,
            random.Random(17),
            reorg_probability=0.4,
            max_depth=13,
            drop_probability=0.3,
            delay_probability=0.25,
            max_shorten=2,
            step_range=(5, 90),
        )
        assert storm.run(monitor)
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_bounded_state_parity(monitor.cursor, dataset)

    def test_serving_over_a_bounded_monitor(self):
        """The serve layer composes with bounded match retention."""
        from repro.serve import ServeService, serving_parity_mismatches

        world = fresh_world()
        service = ServeService.for_world(world, max_reorg_depth=16)
        service.run(step_blocks=29)
        _, batch = batch_over(world)
        assert serving_parity_mismatches(service.query, batch) == []
        assert len(service.monitor.cursor.scan.matches) == journaled_match_count(
            service.monitor.cursor
        )
