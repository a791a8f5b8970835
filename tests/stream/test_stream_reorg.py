"""Reorg-safety proofs for the streaming stack.

The acceptance bar (mirroring ``test_stream_parity`` for the append-only
case): after *any* randomized advance/reorg/advance sequence, the cursor
and scheduler state must equal a fresh batch build over the final
canonical chain -- candidates, activities, evidence, funnel statistics,
and the ingested dataset itself.  On top of the parity proofs this file
covers the revision semantics (confirmed -> retracted -> confirmed
flips, reorg/retraction alerts), head regressions, the journal bound,
rollbacks that cut through a tick's journaled span, and the
tick-atomicity guarantee under a fault-injecting node.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.chain.block import Block
from repro.chain.node import EthereumNode
from repro.chain.types import NULL_ADDRESS
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm, apply_random_reorg
from repro.stream import (
    AlertKind,
    DatasetCursor,
    ReorgTooDeepError,
    StreamingMonitor,
)
from repro.verify import activity_fingerprint
from tests.stream.test_stream_parity import assert_results_match


def identity_key(activity):
    """What makes two announced activities the *same* activity."""
    return (
        activity.nft.contract,
        activity.nft.token_id,
        tuple(sorted(activity.accounts)),
        tuple(sorted(t.tx_hash for t in activity.component.transfers)),
    )


def fresh_world():
    """A private world per test: reorg tests mutate the chain."""
    return build_default_world(SimulationConfig.tiny())


def batch_over(world):
    """The parity reference: a fresh batch build over the current chain."""
    dataset = build_dataset(world.node, world.marketplace_addresses)
    result = WashTradingPipeline(
        labels=world.labels,
        is_contract=world.is_contract,
        engine="columnar",
    ).run(dataset)
    return dataset, result


def member_index_of(scheduler):
    """The candidate-member index rebuilt from the held token states."""
    index = {}
    for nft, state in scheduler.states.items():
        for component in state.candidates:
            for account in component.accounts:
                index.setdefault(account, set()).add(nft)
    return index


def track_member_index(monitor):
    """After every tick, record whether the scheduler's member index
    equals one rebuilt from its states (subscriber failures are
    isolated, so the check is recorded rather than asserted)."""
    scheduler = monitor.scheduler
    matches = []
    monitor.subscribe_snapshots(
        lambda _: matches.append(member_index_of(scheduler) == scheduler._member_index)
    )
    return matches


def detection_cache_state(monitor):
    """Whether every entry of the scheduler's cross-tick detection cache
    equals a fresh computation on the monitor's base context and only
    covers member-index accounts, with the number of cached accounts."""
    scheduler, base = monitor.scheduler, monitor.context
    cache = scheduler._cache
    if cache is None:
        return True, 0
    for account, entry in cache._entries.items():
        fresh = base.transactions_of(account)
        timestamps = [tx.timestamp for tx in fresh]
        if entry.transactions != fresh or entry.timestamps != timestamps:
            return False, 0
        if entry.monotone != all(a <= b for a, b in zip(timestamps, timestamps[1:])):
            return False, 0
        for direction, cached in entry.flows.items():
            if direction == "in":
                fresh_flows = base.incoming_flows(account)
            else:
                fresh_flows = base.outgoing_flows(account)
            if cached != fresh_flows:
                return False, 0
    return set(cache._entries) <= set(scheduler._member_index), len(cache._entries)


def track_detection_cache(monitor):
    """After every tick, record :func:`detection_cache_state`."""
    states = []
    monitor.subscribe_snapshots(lambda _: states.append(detection_cache_state(monitor)))
    return states


def assert_dataset_parity(cursor, dataset):
    """The cursor's ingested state equals the batch-built dataset."""
    transfers_by_nft = cursor.as_dataset().transfers_by_nft
    assert transfers_by_nft == dataset.transfers_by_nft
    assert list(transfers_by_nft) == list(dataset.transfers_by_nft)
    assert cursor.account_transactions == dataset.account_transactions
    assert cursor.compliance.compliant == dataset.compliance.compliant
    assert cursor.compliance.non_compliant == dataset.compliance.non_compliant
    assert cursor.scan.event_count == dataset.scan.event_count
    assert cursor.scan.emitting_contracts == dataset.scan.emitting_contracts
    assert cursor.store.transfer_count == dataset.transfer_count
    assert cursor.store.nfts() == list(dataset.transfers_by_nft)


class TestReorgParity:
    @pytest.mark.parametrize("depth", [1, 3, 8, 21, 55])
    def test_tail_reorg_after_full_follow(self, depth):
        """Follow to the head, reorg the tail, follow again: batch parity."""
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        index_matches = track_member_index(monitor)
        monitor.run(step_blocks=29)
        apply_random_reorg(
            world.chain,
            depth,
            random.Random(depth),
            drop_probability=0.4,
            delay_probability=0.3,
        )
        monitor.advance()
        assert index_matches and all(index_matches)
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_mid_stream_reorg_parity(self):
        """A reorg cutting below the cursor mid-follow still converges."""
        world = fresh_world()
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        monitor.run(to_block=head // 2, step_blocks=17)
        # Cut below the cursor: visible rollback depth stays within the
        # journal even though the chain-level depth is larger.
        depth = head - monitor.processed_block + 20
        apply_random_reorg(
            world.chain, depth, random.Random(99), drop_probability=0.35
        )
        monitor.run(step_blocks=29)
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_reorg_storm_parity(self, seed):
        """Randomized advance/reorg/advance sequences match batch builds."""
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        snapshots = []
        monitor.subscribe_snapshots(snapshots.append)
        index_matches = track_member_index(monitor)
        cache_states = track_detection_cache(monitor)
        storm = ReorgStorm(
            world,
            random.Random(seed),
            reorg_probability=0.45,
            max_depth=13,
            drop_probability=0.3,
            delay_probability=0.25,
            max_shorten=2,
            step_range=(5, 90),
        )
        summaries = storm.run(monitor)
        assert summaries, "the storm must actually reorg"
        assert len(index_matches) == len(snapshots) and all(index_matches)
        assert len(cache_states) == len(snapshots)
        assert all(exact for exact, _ in cache_states)
        assert any(size for _, size in cache_states), "the cache must be used"

        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

        # The revision stream is diff-consistent: confirmations minus
        # retractions equals the final confirmed set, as a multiset of
        # activity identities.  (Identity = NFT + accounts + transfer
        # hashes: the scheduler diffs on it, and lets the *evidence* of a
        # still-confirmed activity evolve without re-announcing.)
        confirmed = Counter(
            identity_key(alert.activity)
            for alert in monitor.alerts
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED
        )
        retracted = Counter(
            identity_key(alert.activity)
            for alert in monitor.alerts
            if alert.kind is AlertKind.ACTIVITY_RETRACTED
        )
        confirmed.subtract(retracted)
        final = Counter(identity_key(a) for a in monitor.result().activities)
        assert +confirmed == final

        running = 0
        for snap in snapshots:
            running += snap.newly_confirmed_count - snap.retracted_count
        assert running == monitor.scheduler.confirmed_activity_count
        assert running == batch.activity_count


class TestRevisionSemantics:
    def test_activity_flips_confirmed_retracted_confirmed(self):
        """Dropping then reinstating a wash tail retracts and re-confirms."""
        world = fresh_world()
        chain = world.chain
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=head + 2)
        index_matches = track_member_index(monitor)
        monitor.run(step_blocks=29)
        _, original_batch = batch_over(world)

        target = max(
            monitor.result().activities,
            key=lambda activity: max(
                t.block_number for t in activity.component.transfers
            ),
        )
        target_key = activity_fingerprint(target)
        last_block = max(t.block_number for t in target.component.transfers)
        depth = head - last_block + 1

        # Reorg 1: same-length branch with every transaction dropped.
        empty_branch = [
            Block(number=block.number, timestamp=block.timestamp)
            for block in chain.blocks[-depth:]
        ]
        orphaned = chain.reorg(depth, empty_branch)
        snap = monitor.advance()
        assert snap.reorg_depth == depth
        kinds = [alert.kind for alert in snap.alerts]
        assert kinds[0] is AlertKind.REORG_DETECTED
        retracted_keys = {
            activity_fingerprint(alert.activity)
            for alert in snap.alerts
            if alert.kind is AlertKind.ACTIVITY_RETRACTED
        }
        assert target_key in retracted_keys
        assert target_key not in {
            activity_fingerprint(a) for a in monitor.result().activities
        }

        # Reorg 2: the original branch returns; the activity must too.
        chain.reorg(depth, orphaned)
        snap = monitor.advance()
        assert snap.reorg_depth == depth
        confirmed_keys = {
            activity_fingerprint(alert.activity)
            for alert in snap.alerts
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED
        }
        assert target_key in confirmed_keys
        assert_results_match(monitor.result(), original_batch, ordered=True)
        assert index_matches and all(index_matches)

    def test_nft_is_reflagged_after_retraction(self):
        """An NFT emptied by a rollback is flagged again on re-confirmation."""
        world = fresh_world()
        chain = world.chain
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=head + 2)
        monitor.run(step_blocks=29)

        target = max(
            monitor.result().activities,
            key=lambda activity: max(
                t.block_number for t in activity.component.transfers
            ),
        )
        depth = head - max(t.block_number for t in target.component.transfers) + 1
        empty_branch = [
            Block(number=block.number, timestamp=block.timestamp)
            for block in chain.blocks[-depth:]
        ]
        orphaned = chain.reorg(depth, empty_branch)
        monitor.advance()
        flagged_after_rollback = set(monitor.flagged_nfts)
        chain.reorg(depth, orphaned)
        snap = monitor.advance()
        if target.nft not in flagged_after_rollback:
            assert any(
                alert.kind is AlertKind.NFT_FLAGGED and alert.nft == target.nft
                for alert in snap.alerts
            )
        assert target.nft in monitor.flagged_nfts

    def test_head_regression_is_a_rollback_not_a_noop(self):
        """A head behind the cursor is the reorg it looks like."""
        world = fresh_world()
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        monitor.run(step_blocks=29)
        world.chain.reorg(5)  # pure truncation: the head moves backwards
        snap = monitor.advance()
        assert snap.reorg_depth == 5
        assert not snap.is_empty
        assert monitor.processed_block == head - 5
        assert any(a.kind is AlertKind.REORG_DETECTED for a in snap.alerts)
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    @pytest.mark.parametrize("depth", [0, 64], ids=["no-journal", "journal"])
    def test_head_block_growth_is_not_a_reorg(self, depth):
        """Transactions appended to the open head block are forward growth.

        The chain keeps accepting transactions into the head block while
        its timestamp is current, changing the journaled tail hash; the
        cursor must re-ingest the grown block without reorg alerts --
        and without raising even when the journal is minimal.
        """
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=depth)
        monitor.run(step_blocks=29)
        funder = "0x" + "f00d" * 10
        world.chain.faucet(funder, 10**21)
        world.chain.transact(
            sender=funder,
            to="0x" + "beef" * 10,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp,  # grows the head block
        )
        snap = monitor.advance()
        assert snap.reorg_depth == 0
        assert not any(
            a.kind in (AlertKind.REORG_DETECTED, AlertKind.ACTIVITY_RETRACTED)
            for a in snap.alerts
        )
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_growth_after_truncation_reorg_is_ingested(self):
        """The regressed head may regrow differently; the cursor must see it.

        Follows -> truncation reorg -> the reopened head block gains a
        transaction -> a later block seals it.  The stale-hash-cache
        failure mode is the divergence check matching the *pre-growth*
        hash and never ingesting the new transaction.
        """
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        monitor.run(step_blocks=29)
        world.chain.reorg(1)
        funder = "0x" + "f00d" * 10
        world.chain.faucet(funder, 10**21)
        world.chain.transact(
            sender=funder,
            to="0x" + "beef" * 10,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp,  # grows the reopened head
        )
        world.chain.transact(
            sender=funder,
            to="0x" + "beef" * 10,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp + 12,  # seals it
        )
        monitor.run(step_blocks=29)
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_caught_up_run_still_detects_reorg(self):
        """run() on a caught-up monitor must not skip the divergence check.

        A same-length replacement branch leaves the head where it was, so
        the stepping loop has nothing to scan -- the reorg is only
        visible through the hash comparison a tick performs.
        """
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
        monitor.run(step_blocks=29)
        apply_random_reorg(
            world.chain, 9, random.Random(42), drop_probability=0.6
        )
        snapshots = monitor.run(step_blocks=29)
        assert snapshots and snapshots[0].reorg_depth > 0
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_future_start_block_waits_instead_of_raising(self):
        """A cursor parked above the head idles until the chain reaches it."""
        world = fresh_world()
        head = world.node.block_number
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, start_block=head + 50
        )
        tick = cursor.advance()
        assert tick.is_noop
        assert cursor.transfer_count == 0

    def test_stale_target_is_still_a_noop(self):
        """Asking for a block behind the cursor (head unchanged) stays safe."""
        world = fresh_world()
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world)
        monitor.advance(head // 2)
        snap = monitor.advance(head // 4)
        assert snap.is_empty
        assert snap.reorg_depth == 0

    def test_stale_target_does_not_suppress_reingest_after_growth(self):
        """A rollback tick always recovers what it removed, even when the
        caller's target is stale -- a grown head block must not be left
        un-ingested (and its activities transiently retracted)."""
        world = fresh_world()
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world)
        monitor.run(step_blocks=29)
        transfers_before = monitor.cursor.transfer_count
        funder = "0x" + "f00d" * 10
        world.chain.faucet(funder, 10**21)
        world.chain.transact(
            sender=funder,
            to="0x" + "beef" * 10,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp,
        )
        snap = monitor.advance(head // 2)  # stale target during growth
        assert monitor.processed_block == head
        assert monitor.cursor.transfer_count >= transfers_before
        assert not any(
            a.kind is AlertKind.ACTIVITY_RETRACTED for a in snap.alerts
        )
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_head_regressing_below_future_start_resets_cleanly(self):
        """A chain shrinking below the cursor's start block fully resets
        the cursor (everything it saw diverged) without crashing alert
        construction, then idles until the chain reaches the start again."""
        world = fresh_world()
        head = world.node.block_number
        start = head - 10
        monitor = StreamingMonitor.for_world(
            world, start_block=start, max_reorg_depth=64
        )
        monitor.run(step_blocks=5)
        world.chain.reorg(14)  # head regresses below start - 1
        snap = monitor.advance()
        assert snap.reorg_depth > 0
        assert monitor.cursor.transfer_count == 0
        for alert in snap.alerts:
            assert alert.block <= world.node.block_number
        follow_up = monitor.advance()
        assert follow_up.is_empty


class TestJournalBounds:
    def test_journal_is_bounded(self):
        world = fresh_world()
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=8
        )
        cursor.advance()
        assert len(cursor._block_hashes) == 9  # depth + 1: the fork block itself
        assert cursor._block_hashes == [
            world.node.get_block_hash(number)
            for number in range(cursor.processed_block - 8, cursor.processed_block + 1)
        ]
        assert cursor.journal_floor == cursor.processed_block - 8

    def test_reorg_within_bound_is_repaired(self):
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=8)
        monitor.run(step_blocks=29)
        apply_random_reorg(
            world.chain, 8, random.Random(5), drop_probability=0.5
        )
        monitor.advance()
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)

    def test_reorg_below_journal_raises(self):
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=4)
        monitor.run(step_blocks=29)
        world.chain.reorg(20)  # regress far below the journal floor
        with pytest.raises(ReorgTooDeepError):
            monitor.advance()

    def test_regressions_consume_the_window_and_fail_safely(self):
        """The journal window is anchored to the highest committed head.

        Rolling blocks back deletes their entries, so back-to-back
        shortening reorgs shrink the remaining window; once a fork falls
        below the floor the cursor must refuse loudly (ReorgTooDeepError)
        rather than repair incorrectly -- pinned here so the erosion
        semantics stay documented behavior, not an accident.
        """
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=4)
        monitor.run(step_blocks=29)
        world.chain.reorg(3)  # truncation: window shrinks to 1 block
        monitor.advance()
        world.chain.reorg(3)  # fork now below the journal floor
        with pytest.raises(ReorgTooDeepError):
            monitor.advance()

    def test_full_journal_allows_total_divergence(self):
        """With the whole history journaled, even a genesis-deep reorg heals."""
        world = fresh_world()
        head = world.node.block_number
        monitor = StreamingMonitor.for_world(world, max_reorg_depth=head + 2)
        monitor.run(step_blocks=29)
        apply_random_reorg(
            world.chain,
            len(world.chain.blocks),
            random.Random(11),
            drop_probability=0.4,
        )
        monitor.advance()
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)


def fork_at(chain, fork, rng, drop_probability=0.4):
    """Replace every block past ``fork`` by a branch that differs from
    its first block on: that block loses its transactions, later blocks
    keep each of theirs with probability ``1 - drop_probability``."""
    orphaned = chain.blocks[fork + 1 :]
    replacement = [
        Block(
            number=block.number,
            timestamp=block.timestamp,
            transactions=[
                tx
                for tx in block.transactions
                if position and rng.random() >= drop_probability
            ],
        )
        for position, block in enumerate(orphaned)
    ]
    chain.reorg(len(orphaned), replacement)


def rows_past(cursor, block):
    """Stored transfers of blocks after ``block``."""
    return sum(
        1
        for columns in cursor.store.tokens.values()
        for transfer in columns.transfers
        if transfer.block_number > block
    )


def assert_matches_fresh_cursor(cursor, world, journal_floor=None):
    """The cursor equals a fresh one caught up over the canonical chain
    in one tick, as far as a rollback can reach.  A head regression
    consumes the journal window, so after one the caller names the
    expected floor."""
    fresh = DatasetCursor(
        world.node,
        world.marketplace_addresses,
        max_reorg_depth=cursor.max_reorg_depth,
    )
    fresh.advance(cursor.processed_block)
    rows = {nft: list(c.transfers) for nft, c in cursor.store.tokens.items()}
    expected = {nft: list(c.transfers) for nft, c in fresh.store.tokens.items()}
    assert rows == expected
    assert list(rows) == list(expected)
    assert cursor.store.transfer_count == fresh.store.transfer_count
    assert cursor.account_transactions == fresh.account_transactions
    assert cursor.scan.event_count == fresh.scan.event_count
    assert cursor.scan.events_by_contract() == fresh.scan.events_by_contract()
    assert cursor.scan.matches == fresh.scan.matches
    assert cursor.scan.emitting_contracts == fresh.scan.emitting_contracts
    assert cursor.compliance.compliant == fresh.compliance.compliant
    assert cursor.compliance.non_compliant == fresh.compliance.non_compliant
    if journal_floor is None:
        journal_floor = fresh.journal_floor
    assert cursor.journal_floor == journal_floor


class TestRollbackBoundaries:
    """Rollbacks that cut through a tick's journaled span, mid-chain
    (where the tiny world trades most), against a fresh cursor."""

    @pytest.mark.parametrize("depth", [1, 5, 11])
    def test_fork_inside_the_last_multi_block_tick(self, depth):
        world = fresh_world()
        top = world.node.block_number // 2
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=64
        )
        cursor.advance(top - 12)
        cursor.advance(top)  # the last tick spans top-11 .. top
        orphaned_rows = rows_past(cursor, top - depth)
        assert orphaned_rows > 0
        fork_at(world.chain, top - depth, random.Random(depth))
        tick = cursor.advance(top)
        assert tick.fork_block == top - depth
        assert top - 11 <= tick.fork_block < top
        assert tick.reorg_depth == depth
        assert tick.rolled_back_transfer_count == orphaned_rows
        assert_matches_fresh_cursor(cursor, world)

    def test_reorg_of_exactly_the_depth_after_wide_ticks(self):
        """Ticks wider than the window journal only their tail; a reorg
        of exactly ``max_reorg_depth`` is still repaired in place."""
        world = fresh_world()
        top = world.node.block_number // 2
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=8
        )
        cursor.advance(top - 40)
        cursor.advance(top)
        assert cursor.journal_floor == top - 8
        orphaned_rows = rows_past(cursor, top - 8)
        assert orphaned_rows > 0
        fork_at(world.chain, top - 8, random.Random(8))
        tick = cursor.advance(top)
        assert tick.reorg_depth == 8
        assert tick.fork_block == top - 8
        assert tick.rolled_back_transfer_count == orphaned_rows
        assert_matches_fresh_cursor(cursor, world)

    def test_reorg_one_block_deeper_than_the_window_raises(self):
        world = fresh_world()
        top = world.node.block_number // 2
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=8
        )
        cursor.advance(top - 40)
        cursor.advance(top)
        fork_at(world.chain, top - 9, random.Random(9))
        with pytest.raises(ReorgTooDeepError) as raised:
            cursor.advance(top)
        assert raised.value.journal_floor == top - 8

    def test_open_head_block_growth_after_a_multi_block_tick(self):
        """A head block that gains transactions after the tick that
        ingested it is re-ingested as forward growth, not a reorg."""
        world = fresh_world()
        top = world.node.block_number // 2
        world.chain.reorg(world.node.block_number - top)  # top is the open head
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=64
        )
        cursor.advance(top - 12)
        cursor.advance(top)
        head_rows = rows_past(cursor, top - 1)
        assert head_rows > 0
        followed = sorted(cursor.account_transactions)[0]
        history = len(cursor.account_transactions[followed])
        funder = "0x" + "f00d" * 10
        world.chain.faucet(funder, 10**21)
        world.chain.transact(
            sender=funder,
            to=followed,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp,  # grows the head block
        )
        assert world.node.block_number == top
        tick = cursor.advance()
        assert tick.reorg_depth == 0
        assert tick.fork_block == -1
        assert (tick.from_block, tick.to_block) == (top, top)
        assert tick.rolled_back_transfer_count == head_rows
        assert tick.new_transfer_count == head_rows
        assert len(cursor.account_transactions[followed]) == history + 1
        assert_matches_fresh_cursor(cursor, world)

    def test_growth_of_a_block_reopened_by_a_rollback(self):
        """A truncation makes a mid-tick block the open head again; when
        it then grows, that is forward growth of the new tail."""
        world = fresh_world()
        top = world.node.block_number // 2
        world.chain.reorg(world.node.block_number - top)
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=64
        )
        cursor.advance(top - 12)
        cursor.advance(top)
        # The deepest block inside the last tick that holds rows becomes
        # the open head.
        depth = next(
            depth
            for depth in range(2, 12)
            if rows_past(cursor, top - depth - 1) > rows_past(cursor, top - depth)
        )
        floor = cursor.journal_floor
        world.chain.reorg(depth)
        rollback = cursor.advance()
        assert (rollback.reorg_depth, rollback.fork_block) == (depth, top - depth)
        head_rows = rows_past(cursor, top - depth - 1)
        followed = sorted(cursor.account_transactions)[0]
        funder = "0x" + "f00d" * 10
        world.chain.faucet(funder, 10**21)
        world.chain.transact(
            sender=funder,
            to=followed,
            value_wei=10**15,
            timestamp=world.chain.head_timestamp,  # grows the reopened head
        )
        tick = cursor.advance()
        assert tick.reorg_depth == 0
        assert (tick.from_block, tick.to_block) == (top - depth, top - depth)
        assert tick.rolled_back_transfer_count == head_rows > 0
        assert_matches_fresh_cursor(cursor, world, journal_floor=floor)

    def test_rolled_back_tokens_follow_their_first_removed_block(self):
        """A rollback across several ticks reports each token at its
        first orphaned row's block, in that block's tick's touch order."""
        world = fresh_world()
        top = world.node.block_number // 2
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=64
        )
        cursor.advance(top - 12)
        ticks = [cursor.advance(stop) for stop in range(top - 9, top + 1, 3)]
        fork = top - 10
        first_removed = {}
        for nft, columns in cursor.store.tokens.items():
            blocks = [t.block_number for t in columns.transfers if t.block_number > fork]
            if blocks:
                first_removed[nft] = blocks[0]

        def touch_rank(nft):
            block = first_removed[nft]
            tick = next(t for t in ticks if t.from_block <= block <= t.to_block)
            return block, tick.touched_nfts.index(nft)

        expected = sorted(first_removed, key=touch_rank)
        assert len({block for block in first_removed.values()}) > 1
        fork_at(world.chain, fork, random.Random(10))
        tick = cursor.advance(top)
        assert tick.rolled_back_nfts == tuple(expected)
        assert_matches_fresh_cursor(cursor, world)

    def test_second_rollback_into_a_cut_tick(self):
        """After a rollback cuts a tick short, an account the canonical
        branch involves earlier survives a second, shallower rollback."""
        world = fresh_world()
        top = world.node.block_number // 2
        cursor = DatasetCursor(
            world.node, world.marketplace_addresses, max_reorg_depth=64
        )
        cursor.advance(top - 12)
        cursor.advance(top)
        first_seen = {}
        for columns in cursor.store.tokens.values():
            for transfer in columns.transfers:
                for account in (transfer.sender, transfer.recipient):
                    first_seen[account] = min(
                        first_seen.get(account, transfer.block_number),
                        transfer.block_number,
                    )
        # An account first involved inside the tick, one block after
        # another block of the tick.
        account, block = next(
            (account, block)
            for account, block in sorted(first_seen.items(), key=lambda kv: kv[1])
            if top - 9 <= block and account != NULL_ADDRESS
        )
        # First rollback: swap the transactions of blocks block-1 and
        # block, so the account is now first involved one block earlier.
        chain = world.chain
        earlier, later = chain.blocks[block - 1], chain.blocks[block]
        swapped = [
            Block(
                number=target.number,
                timestamp=target.timestamp,
                transactions=[
                    dataclasses.replace(
                        tx, block_number=target.number, timestamp=target.timestamp
                    )
                    for tx in source.transactions
                ],
            )
            for target, source in ((earlier, later), (later, earlier))
        ]
        chain.reorg(len(chain.blocks) - block + 1, swapped + chain.blocks[block + 1 :])
        first = cursor.advance(top)
        assert first.fork_block == block - 2
        assert_matches_fresh_cursor(cursor, world)
        # Second rollback: fork at the account's new first block, and an
        # empty branch after it, so nothing re-involves the account.
        fork_at(chain, block - 1, random.Random(1), drop_probability=1.0)
        second = cursor.advance(top)
        assert second.fork_block == block - 1
        assert account in cursor.account_transactions
        assert_matches_fresh_cursor(cursor, world)


class FaultyNode(EthereumNode):
    """A node that starts failing on demand, per read endpoint."""

    def __init__(self, chain) -> None:
        super().__init__(chain)
        self.fail_history_after: int | None = None
        self.fail_block_at: int | None = None
        self._history_calls = 0

    def get_transactions_of(self, address):
        if self.fail_history_after is not None:
            self._history_calls += 1
            if self._history_calls > self.fail_history_after:
                raise ConnectionError("node fell over mid-tick")
        return super().get_transactions_of(address)

    def iter_blocks(self, from_block=0, to_block=None):
        for block in super().iter_blocks(from_block, to_block):
            if self.fail_block_at is not None and block.number >= self.fail_block_at:
                raise ConnectionError(f"node fell over at block {block.number}")
            yield block


class TestTickAtomicity:
    def cursor_fingerprint(self, cursor):
        return (
            cursor.next_block,
            cursor.transfer_count,
            len(cursor.scan.matches),
            sorted(cursor.scan.emitting_contracts),
            {nft: columns.row_count for nft, columns in cursor.store.tokens.items()},
            {a: len(t) for a, t in cursor.account_transactions.items()},
            sorted(cursor.store.nfts(), key=repr),
            len(cursor._block_hashes),
        )

    @pytest.mark.parametrize("fault", ["history", "nth-block"])
    def test_failed_tick_leaves_cursor_retryable(self, fault):
        """A node failure mid-tick must not half-ingest or double-ingest."""
        world = fresh_world()
        head = world.node.block_number
        node = FaultyNode(world.chain)
        cursor = DatasetCursor(node, world.marketplace_addresses)
        cursor.advance(head // 3)
        before = self.cursor_fingerprint(cursor)

        if fault == "history":
            node.fail_history_after = 2
        else:
            node.fail_block_at = head // 3 + (head // 3) // 2
        with pytest.raises(ConnectionError):
            cursor.advance()
        assert self.cursor_fingerprint(cursor) == before

        node.fail_history_after = None
        node.fail_block_at = None
        cursor.advance()
        dataset, _ = batch_over(world)
        assert_dataset_parity(cursor, dataset)

    def test_failed_reorg_tick_still_reports_the_rollback(self):
        """The rollback's dirty set must survive a node failure mid-tick.

        The rollback is applied before the tick's staged reads; if those
        reads then fail, the retried tick finds the journal consistent --
        the report of what was rolled back has to be carried over, or the
        scheduler never retires the vanished tokens.
        """
        world = fresh_world()
        head = world.node.block_number
        node = FaultyNode(world.chain)
        monitor = StreamingMonitor(
            node=node,
            marketplace_addresses=world.marketplace_addresses,
            labels=world.labels,
            is_contract=world.is_contract,
            max_reorg_depth=head + 2,
        )
        monitor.run(step_blocks=29)
        target = max(
            monitor.result().activities,
            key=lambda activity: max(
                t.block_number for t in activity.component.transfers
            ),
        )
        depth = head - max(t.block_number for t in target.component.transfers) + 1
        empty_branch = [
            Block(number=block.number, timestamp=block.timestamp)
            for block in world.chain.blocks[-depth:]
        ]
        world.chain.reorg(depth, empty_branch)

        node.fail_block_at = head - depth + 1  # scan dies after the rollback
        with pytest.raises(ConnectionError):
            monitor.advance()
        node.fail_block_at = None

        snap = monitor.advance()
        assert snap.reorg_depth == depth
        retracted = {
            identity_key(alert.activity)
            for alert in snap.alerts
            if alert.kind is AlertKind.ACTIVITY_RETRACTED
        }
        assert identity_key(target) in retracted
        dataset, batch = batch_over(world)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert_dataset_parity(monitor.cursor, dataset)
