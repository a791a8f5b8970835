"""Behavioural tests of the streaming monitor service layer.

Parity is pinned in ``test_stream_parity``; these tests cover the
service surface: subscriber callbacks, the three alert kinds, alert
latency, watchlists and per-tick snapshot bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core.activity import DetectionMethod
from repro.stream import Alert, AlertKind, MonitorSnapshot, StreamingMonitor


@pytest.fixture()
def driven(tiny_world):
    """A monitor fully driven over the tiny world, with capture hooks."""
    monitor = StreamingMonitor.for_world(tiny_world)
    seen_alerts = []
    seen_snapshots = []
    monitor.subscribe(seen_alerts.append)
    monitor.subscribe_snapshots(seen_snapshots.append)
    snapshots = monitor.run(step_blocks=29)
    return monitor, seen_alerts, seen_snapshots, snapshots


class TestAlerts:
    def test_every_washed_nft_is_flagged_exactly_once(self, driven, tiny_report):
        monitor, alerts, _, _ = driven
        flagged = [a for a in alerts if a.kind is AlertKind.NFT_FLAGGED]
        assert {alert.nft for alert in flagged} == tiny_report.result.washed_nfts()
        assert len(flagged) == len({alert.nft for alert in flagged})

    def test_confirmations_cover_final_activities(self, driven):
        monitor, alerts, _, _ = driven
        confirmed_nfts = {
            a.nft for a in alerts if a.kind is AlertKind.ACTIVITY_CONFIRMED
        }
        assert {activity.nft for activity in monitor.result().activities} <= (
            confirmed_nfts
        )

    def test_alert_latency_is_nonnegative_and_bounded(self, driven):
        _, alerts, _, _ = driven
        for alert in alerts:
            assert alert.latency_blocks >= 0
            last_trade = max(
                t.block_number for t in alert.activity.component.transfers
            )
            assert alert.block == last_trade + alert.latency_blocks

    def test_alerts_arrive_in_block_order(self, driven):
        _, alerts, _, _ = driven
        blocks = [alert.block for alert in alerts]
        assert blocks == sorted(blocks)

    def test_subscriber_stream_matches_history(self, driven):
        monitor, alerts, _, snapshots = driven
        assert alerts == monitor.alerts
        assert [a for snap in snapshots for a in snap.alerts] == alerts


class TestSequenceNumbers:
    def test_alert_seqs_are_gapless_positions(self, driven):
        monitor, alerts, _, _ = driven
        assert [alert.seq for alert in alerts] == list(range(len(alerts)))
        assert monitor.next_seq == len(alerts)

    def test_snapshot_dirty_nfts_match_count(self, driven):
        _, _, _, snapshots = driven
        for snap in snapshots:
            assert len(snap.dirty_nfts) == snap.dirty_token_count
            assert len(set(snap.dirty_nfts)) == len(snap.dirty_nfts)


class TestSubscriberIsolation:
    """A raising subscriber must not abort the tick or starve the rest."""

    def test_poison_alert_subscriber_is_isolated(self, tiny_world, tiny_report):
        monitor = StreamingMonitor.for_world(tiny_world)
        received = []

        def poison(alert):
            raise RuntimeError("subscriber exploded")

        monitor.subscribe(poison)  # registered FIRST: later ones must still run
        monitor.subscribe(received.append)
        snapshots = monitor.run(step_blocks=29)

        # The tick stream completed and stayed atomic...
        assert monitor.processed_block == tiny_world.node.block_number
        assert monitor.result().activity_count == (
            tiny_report.result.activity_count
        )
        # ...every alert still reached the healthy subscriber...
        assert received == monitor.alerts
        assert [a for snap in snapshots for a in snap.alerts] == monitor.alerts
        # ...and every failure was recorded, not swallowed silently.
        assert len(monitor.subscriber_errors) == len(monitor.alerts)
        first = monitor.subscriber_errors[0]
        assert first.callback is poison
        assert isinstance(first.error, RuntimeError)
        assert first.event == monitor.alerts[0]

    def test_poison_snapshot_subscriber_is_isolated(self, tiny_world):
        monitor = StreamingMonitor.for_world(tiny_world)
        seen = []

        @monitor.subscribe_snapshots
        def poison(snapshot):
            raise ValueError("snapshot subscriber exploded")

        monitor.subscribe_snapshots(seen.append)
        snapshots = monitor.run(step_blocks=50)
        assert seen == snapshots
        assert all(
            isinstance(error.error, ValueError)
            for error in monitor.subscriber_errors
        )
        assert len(monitor.subscriber_errors) == len(snapshots)


class TestWatchlist:
    def test_watchlist_hits_fire_for_confirmed_accounts(self, tiny_world, tiny_report):
        target = sorted(tiny_report.result.activities[0].accounts)[0]
        monitor = StreamingMonitor.for_world(tiny_world, watchlist=[target])
        monitor.run(step_blocks=29)
        hits = [a for a in monitor.alerts if a.kind is AlertKind.WATCHLIST_HIT]
        assert hits
        for hit in hits:
            assert hit.watched_accounts == frozenset({target})
            assert target in hit.accounts

    def test_watch_after_construction(self, tiny_world, tiny_report):
        target = sorted(tiny_report.result.activities[0].accounts)[0]
        monitor = StreamingMonitor.for_world(tiny_world)
        monitor.watch(target)
        monitor.run(step_blocks=29)
        assert any(a.kind is AlertKind.WATCHLIST_HIT for a in monitor.alerts)

    def test_unwatched_world_has_no_hits(self, driven):
        _, alerts, _, _ = driven
        assert not any(a.kind is AlertKind.WATCHLIST_HIT for a in alerts)


class TestSnapshots:
    def test_tick_numbering_and_ranges(self, driven):
        _, _, _, snapshots = driven
        assert [snap.tick for snap in snapshots] == list(
            range(1, len(snapshots) + 1)
        )
        for previous, current in zip(snapshots, snapshots[1:]):
            assert current.from_block == previous.to_block + 1

    def test_totals_track_final_state(self, driven, tiny_world):
        monitor, _, _, snapshots = driven
        last = snapshots[-1]
        result = monitor.result()
        assert last.to_block == tiny_world.node.block_number
        assert last.confirmed_activity_count == result.activity_count
        assert last.flagged_nft_count == len(result.washed_nfts())
        assert last.total_transfer_count == monitor.cursor.transfer_count
        assert sum(snap.new_transfer_count for snap in snapshots) == (
            last.total_transfer_count
        )

    def test_confirmed_count_is_diff_consistent(self, driven):
        _, _, _, snapshots = driven
        running = 0
        for snap in snapshots:
            running += snap.newly_confirmed_count - snap.retracted_count
        assert running == snapshots[-1].confirmed_activity_count

    def test_empty_tick_snapshot(self, tiny_world):
        monitor = StreamingMonitor.for_world(tiny_world)
        monitor.advance()
        snap = monitor.advance()
        assert snap.is_empty
        assert snap.alerts == ()
        assert snap.newly_confirmed_count == 0

    def test_run_rejects_bad_step(self, tiny_world):
        monitor = StreamingMonitor.for_world(tiny_world)
        with pytest.raises(ValueError):
            monitor.run(step_blocks=0)

    def test_run_clamps_target_beyond_head(self, tiny_world):
        """A target past the mined head terminates instead of spinning."""
        monitor = StreamingMonitor.for_world(tiny_world)
        head = tiny_world.node.block_number
        snapshots = monitor.run(to_block=head + 500, step_blocks=200)
        assert monitor.processed_block == head
        assert snapshots[-1].to_block == head


class TestSchedulerOptions:
    def test_enabled_methods_restrict_confirmations(self, tiny_world):
        methods = {DetectionMethod.SELF_TRADE}
        monitor = StreamingMonitor.for_world(tiny_world, enabled_methods=methods)
        monitor.run(step_blocks=50)
        result = monitor.result()
        assert result.activities  # the tiny world plants self-trades
        for activity in result.activities:
            assert activity.methods <= methods

    def test_repeated_scc_flips_propagate_across_tokens(self):
        """The cross-token repeated-SCC state updates without new transfers.

        Token B's candidate {x, y} is unconfirmed until token A's
        self-trade confirms the same account set (tick 2: B flips on
        with no transfer of its own), and is retracted again when A's
        component grows to {x, y, z} and the {x, y} set leaves the
        confirmed pool (tick 3: B flips off).
        """
        from repro.chain.types import NFTKey
        from repro.core.detectors.base import DetectionContext
        from repro.engine.executor import TransactionView
        from repro.engine.store import ColumnarTransferStore
        from repro.ingest.records import NFTTransfer
        from repro.services.labels import LabelRegistry
        from repro.stream import DirtyTokenScheduler

        def transfer(nft, sender, recipient, block, tag):
            return NFTTransfer(
                nft=nft,
                sender=sender,
                recipient=recipient,
                tx_hash=f"0xr{tag}",
                block_number=block,
                timestamp=block,
                price_wei=10**18,
                gas_fee_wei=1,
                tx_sender=sender,
            )

        nft_a = NFTKey(contract="0x" + "a" * 40, token_id=1)
        nft_b = NFTKey(contract="0x" + "a" * 40, token_id=2)
        store = ColumnarTransferStore()
        labels = LabelRegistry()
        scheduler = DirtyTokenScheduler(
            store,
            labels=labels,
            is_contract=lambda address: False,
            enabled_methods={
                DetectionMethod.SELF_TRADE,
                DetectionMethod.REPEATED_SCC,
            },
        )
        context = DetectionContext(
            dataset=TransactionView({}),
            labels=labels,
            is_contract=lambda address: False,
        )

        # Tick 1: B trades a cycle {x, y} with no self-trade -> unconfirmed.
        store.append_token_transfers(
            nft_b, [transfer(nft_b, "0xx", "0xy", 1, 0), transfer(nft_b, "0xy", "0xx", 2, 1)]
        )
        report = scheduler.process([nft_b], context, touched={})
        assert not report.newly_confirmed
        assert scheduler.result().activity_count == 0

        # Tick 2: A's self-trade confirms the same {x, y} set -> both fire.
        store.append_token_transfers(
            nft_a,
            [
                transfer(nft_a, "0xx", "0xy", 3, 2),
                transfer(nft_a, "0xy", "0xx", 4, 3),
                transfer(nft_a, "0xx", "0xx", 5, 4),
            ],
        )
        report = scheduler.process([nft_a], context, touched={})
        assert {a.nft for a in report.newly_confirmed} == {nft_a, nft_b}
        by_nft = {a.nft: a for a in report.newly_confirmed}
        assert by_nft[nft_b].methods == {DetectionMethod.REPEATED_SCC}
        assert scheduler.result().activity_count == 2

        # Tick 3: A's component grows to {x, y, z}; the {x, y} set leaves
        # the confirmed pool and B's repeated confirmation is retracted.
        store.append_token_transfers(
            nft_a, [transfer(nft_a, "0xy", "0xz", 6, 5), transfer(nft_a, "0xz", "0xx", 7, 6)]
        )
        report = scheduler.process([nft_a], context, touched={})
        assert report.retracted_count >= 1
        result = scheduler.result()
        assert {a.nft for a in result.activities} == {nft_a}
        assert scheduler.flagged_nfts == {nft_a}
