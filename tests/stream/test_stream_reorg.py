"""Reorg-safety proofs for the streaming stack.

The acceptance bar (mirroring ``test_stream_parity`` for the append-only
case): after *any* randomized advance/reorg/advance sequence, the cursor
and scheduler state must equal a fresh batch build over the final
canonical chain -- candidates, activities, evidence, funnel statistics,
and the ingested dataset itself.  On top of the parity proofs this file
covers the revision semantics (confirmed -> retracted -> confirmed
flips, reorg/retraction alerts), head regressions, the journal bound,
and the tick-atomicity guarantee under a fault-injecting node.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.chain.block import Block
from repro.chain.node import EthereumNode
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
from tests.stream.test_stream_parity import activity_key, assert_results_match


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
        for (direction, pure), cached in entry.flows.items():
            if direction == "in":
                fresh_flows = base.incoming_flows(account, None, pure)
            else:
                fresh_flows = base.outgoing_flows(account, None, pure)
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
    assert cursor.transfers_by_nft == dataset.transfers_by_nft
    assert list(cursor.transfers_by_nft) == list(dataset.transfers_by_nft)
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
        target_key = activity_key(target)
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
            activity_key(alert.activity)
            for alert in snap.alerts
            if alert.kind is AlertKind.ACTIVITY_RETRACTED
        }
        assert target_key in retracted_keys
        assert target_key not in {
            activity_key(a) for a in monitor.result().activities
        }

        # Reorg 2: the original branch returns; the activity must too.
        chain.reorg(depth, orphaned)
        snap = monitor.advance()
        assert snap.reorg_depth == depth
        confirmed_keys = {
            activity_key(alert.activity)
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
        assert len(cursor._journal) == 9  # depth + 1: the fork block itself
        numbers = [entry.number for entry in cursor._journal]
        assert numbers == list(
            range(cursor.processed_block - 8, cursor.processed_block + 1)
        )
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
            {nft: len(t) for nft, t in cursor.transfers_by_nft.items()},
            {a: len(t) for a, t in cursor.account_transactions.items()},
            sorted(cursor.store.nfts(), key=repr),
            len(cursor._journal),
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
