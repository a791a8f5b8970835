"""Behavioural tests of the serving layer's read model and query API.

Serving parity (every answer vs a batch build) is the acceptance bar;
on top of it this file pins the version/snapshot contract (an index
attaches before the monitor's first tick), pagination and filter
semantics, replay cursors and the aggregate cache's precise
invalidation.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.chain.types import NFTKey
from repro.core.activity import DetectionMethod
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.serve import (
    AggregateCache,
    ServeIndex,
    ServeService,
    record_key,
    serving_parity_mismatches,
)
from repro.serve.cache import FUNNEL_SCOPE, collection_scope, venue_scope
from repro.serve.model import AccountProfile, ActivityRecord, TokenStatus
from repro.serve.router import funnel_partial
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm
from repro.stream import StreamingMonitor
from repro.stream.alerts import AlertKind
from tests.serve.storm import follow_storm


def confirmation_coordinates(alerts):
    """Record key -> ``(seq, block)`` folded from an alert log: each
    ACTIVITY_CONFIRMED sets its identity's coordinates and a later
    ACTIVITY_RETRACTED of that identity removes them."""
    coordinates = {}
    for alert in alerts:
        if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
            coordinates[record_key(alert.activity)] = (alert.seq, alert.block)
        elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
            del coordinates[record_key(alert.activity)]
    return coordinates


class RederivedModel:
    """A reference read model that re-derives instead of folding: after
    each tick, every dirty token's records are rebuilt from the
    scheduler's confirmed map -- a new identity at the seq and block of
    the tick's confirmation alert, a surviving one at its earlier
    coordinates, a vanished one counted as a retraction -- and every
    account profile is rebuilt from the token statuses."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.token_status = {}
        self.account_profiles = {}

    def apply(self, snapshot):
        announced = {
            record_key(alert.activity): (alert.seq, alert.block)
            for alert in snapshot.alerts
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED
        }
        for nft in snapshot.dirty_nfts:
            status = self.token_status.pop(nft, None)
            old = {} if status is None else {r.key: r for r in status.records}
            fresh = []
            for key, activity in self.scheduler._confirmed.get(nft, {}).items():
                prior = old.pop(key, None)
                seq, block = (
                    announced[key]
                    if prior is None
                    else (prior.seq, prior.confirmed_at_block)
                )
                fresh.append(ActivityRecord.from_activity(activity, seq, block))
            if fresh:
                fresh.sort(key=lambda record: record.seq)
                retractions = len(old) + (
                    0 if status is None else status.retraction_count
                )
                self.token_status[nft] = TokenStatus(nft, tuple(fresh), retractions)
        mine = {}
        for status in self.token_status.values():
            for record in status.records:
                for account in record.accounts:
                    mine.setdefault(account, []).append(record)
        self.account_profiles = {
            account: AccountProfile(
                account, tuple(sorted(records, key=lambda r: r.seq))
            )
            for account, records in mine.items()
        }


def same_records(served, expected):
    """Records equal in value, identity key and order."""
    return [(r.key, r) for r in served] == [(r.key, r) for r in expected]


@pytest.fixture(scope="module")
def tiny_columnar_batch(tiny_world):
    dataset = build_dataset(tiny_world.node, tiny_world.marketplace_addresses)
    result = WashTradingPipeline(
        labels=tiny_world.labels,
        is_contract=tiny_world.is_contract,
        engine="columnar",
    ).run(dataset)
    return result


@pytest.fixture(scope="module")
def served(tiny_world):
    """A service fully driven over the tiny world."""
    service = ServeService.for_world(tiny_world)
    service.run(step_blocks=29)
    return service


class TestVersions:
    def test_version_zero_is_empty(self, tiny_world):
        service = ServeService.for_world(tiny_world)
        version = service.query.version()
        assert version.version == 0
        assert version.block == -1
        assert version.last_seq == -1
        assert version.confirmed == ()
        assert version.flagged_nfts == frozenset()
        assert not version.is_revision

    def test_versions_are_monotone_and_tick_aligned(self, tiny_world):
        service = ServeService.for_world(tiny_world)
        versions = []
        service.index.subscribe_versions(versions.append)
        service.run(step_blocks=50)
        numbers = [version.version for version in versions]
        assert numbers == sorted(numbers)
        assert len(set(numbers)) == len(numbers)
        assert numbers[-1] == service.monitor.tick_count

    def test_published_version_is_immutable_under_later_ticks(self, tiny_world):
        service = ServeService.for_world(tiny_world)
        head = tiny_world.node.block_number
        pinned = service.advance(head // 2)
        confirmed_then = pinned.confirmed
        flagged_then = set(pinned.token_status)
        service.run(step_blocks=29)
        # The pinned version still answers exactly as it did.
        assert pinned.confirmed is confirmed_then
        assert set(pinned.token_status) == flagged_then
        assert service.query.version().confirmed_activity_count >= len(
            confirmed_then
        )

    def test_full_serving_parity(self, served, tiny_columnar_batch):
        assert serving_parity_mismatches(served.query, tiny_columnar_batch) == []

    def test_poison_version_subscriber_is_isolated(self, tiny_world):
        """A raising version callback must not starve later subscribers."""
        service = ServeService.for_world(tiny_world)
        received = []

        def poison(version):
            raise RuntimeError("version subscriber exploded")

        service.index.subscribe_versions(poison)
        service.index.subscribe_versions(received.append)
        service.run(step_blocks=50)
        assert [v.version for v in received] == list(
            range(1, service.monitor.tick_count + 1)
        )
        assert service.index.subscriber_errors
        callback, version, error = service.index.subscriber_errors[0]
        assert callback is poison and isinstance(error, RuntimeError)
        # The monitor never saw the failure -- the index isolated it.
        assert service.monitor.subscriber_errors == []

    def test_subscriber_receives_the_current_version(self, tiny_world):
        """A version subscriber only ever sees the version that is
        already ``current``, with the cache already invalidated for it:
        an aggregate read from the callback answers for that version."""
        service = ServeService.for_world(tiny_world)
        seen = []

        def check(version):
            assert service.index.current is version
            assert service.query.funnel_stats() == service.query.funnel_stats(
                version=version
            )
            seen.append(version.version)

        service.index.subscribe_versions(check)
        head = tiny_world.node.block_number
        while service.monitor.processed_block < head:
            service.advance(min(head, service.monitor.processed_block + 29))
            # Warm the cache between ticks, so a subscriber that ran
            # before the invalidation would read this stale entry.
            service.query.funnel_stats()
        assert seen == list(range(1, service.monitor.tick_count + 1))
        assert not service.index.subscriber_errors

    def test_idle_tick_republishes_containers_by_reference(self, tiny_world):
        """A tick that dirties nothing shares the previous version's
        containers instead of copying them (the O(1) fast path), and so
        does a dirty tick that changes no record: only its funnel and
        scalars are new."""
        service = ServeService.for_world(tiny_world)
        service.run()
        before = service.query.version()
        # An empty advance (no new blocks) dirties nothing.
        after = service.advance(service.monitor.processed_block)
        assert after.version == before.version + 1
        assert after.confirmed is before.confirmed
        assert after.token_status is before.token_status
        assert after.account_profiles is before.account_profiles
        assert after.funnel is before.funnel

        service = ServeService.for_world(tiny_world)
        versions = [service.index.current]
        service.index.subscribe_versions(versions.append)
        snapshots = service.monitor.run(step_blocks=5)
        quiet = 0
        for snapshot, before, after in zip(snapshots, versions, versions[1:]):
            changed = (
                snapshot.newly_confirmed_count
                or snapshot.retracted_count
                or snapshot.refreshed
            )
            if snapshot.dirty_token_count and not changed:
                quiet += 1
                assert after.confirmed is before.confirmed
                assert after.token_status is before.token_status
                assert after.account_profiles is before.account_profiles
                assert after.funnel is not before.funnel
        assert quiet > 0, "some dirty tick must change no record"

    def test_records_are_built_only_for_changed_activities(self, monkeypatch):
        """Per version the index builds one record per confirmation and
        one per refresh -- none for the dirty tokens' other records."""
        built = []
        real = ActivityRecord.from_activity.__func__

        def counting(cls, activity, seq, confirmed_at_block):
            built.append(activity)
            return real(cls, activity, seq, confirmed_at_block)

        monkeypatch.setattr(ActivityRecord, "from_activity", classmethod(counting))
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)
        snapshots = service.monitor.run(step_blocks=5)
        confirmations = sum(s.newly_confirmed_count for s in snapshots)
        refreshes = sum(len(s.refreshed) for s in snapshots)
        assert confirmations > 0 and refreshes > 0
        assert sum(s.retracted_count for s in snapshots) > 0
        assert len(built) == confirmations + refreshes

    def test_token_order_and_account_epochs_through_a_storm(self):
        """Each version's token order is the store's at publish time; it
        is shared while the order epoch and the token count hold, and
        the account epoch moves exactly when the account key set does."""
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world, max_reorg_depth=64)
        store = service.monitor.cursor.store
        seen = [service.index.current]

        def check(version):
            previous = seen[-1]
            assert version.token_order == tuple(store.tokens)
            assert version.token_order_epoch == store.order_epoch
            if version.token_order_epoch == previous.token_order_epoch:
                assert version.token_order[: len(previous.token_order)] == (
                    previous.token_order
                )
                if len(version.token_order) == len(previous.token_order):
                    assert version.token_order is previous.token_order
            assert (version.accounts_epoch == previous.accounts_epoch) == (
                version.account_profiles.keys() == previous.account_profiles.keys()
            )
            seen.append(version)

        service.index.subscribe_versions(check)
        assert follow_storm(world, service.monitor, random.Random(3))
        assert not service.index.subscriber_errors
        assert store.order_epoch > 0, "the storm must remove a token"
        assert len({v.accounts_epoch for v in seen}) > 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_confirmation_coordinates_fold_the_alert_log(self, seed):
        """Through a reorg storm, every published version serves each
        confirmed identity at the seq and block of the confirmation
        alert that is still live in the log up to its ``last_seq``."""
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world, max_reorg_depth=64)
        index = service.index
        checked = []

        def check(version):
            served = {
                r.key: (r.seq, r.confirmed_at_block) for r in version.confirmed
            }
            assert served == confirmation_coordinates(
                service.monitor.alerts[: version.last_seq + 1]
            )
            checked.append(version.version)

        # The fold equals the pre-fold derivation at every version.
        scheduler = service.monitor.scheduler
        reference = RederivedModel(scheduler)
        refreshed = []

        def compare(snapshot):
            reference.apply(snapshot)
            refreshed.extend(snapshot.refreshed)
            version = index.current
            assert version.version == snapshot.tick
            assert version.token_status.keys() == reference.token_status.keys()
            for nft, status in version.token_status.items():
                expected = reference.token_status[nft]
                assert same_records(status.records, expected.records)
                assert status.retraction_count == expected.retraction_count
            assert (
                version.account_profiles.keys() == reference.account_profiles.keys()
            )
            for account, profile in version.account_profiles.items():
                expected = reference.account_profiles[account]
                assert same_records(profile.records, expected.records)
            for record in version.confirmed:
                current = scheduler._confirmed[record.nft][record.key]
                assert record.activity == current

        index.subscribe_versions(check)
        service.monitor.subscribe_snapshots(compare)
        assert follow_storm(world, service.monitor, random.Random(seed))
        assert not index.subscriber_errors
        assert not service.monitor.subscriber_errors
        assert len(checked) == service.monitor.tick_count > 100
        assert refreshed, "the storm must drift some confirmed activity"

    def test_maintained_funnel_matches_refold_through_a_storm(self):
        """Every published version's maintained funnel is bit-equal to a
        from-scratch fold over the scheduler's token states at publish
        time.

        The maintainer applies only per-tick dirty deltas (including
        retire-only deltas for reorg-vanished tokens), so holding this
        through a reorg storm proves the per-token stage statistics
        really are invertible -- no drift, no residue from retracted
        tokens.
        """
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world, max_reorg_depth=64)
        checked = []

        def check(version):
            maintained = version.funnel
            refold = funnel_partial(version, service.monitor.scheduler.states)
            assert maintained.stages == refold.stages
            assert maintained.candidate_count == refold.candidate_count
            assert maintained.confirmed_count == refold.confirmed_count
            checked.append(version.version)

        service.index.subscribe_versions(check)
        storm = ReorgStorm(
            world,
            random.Random(11),
            reorg_probability=0.45,
            max_depth=13,
            drop_probability=0.3,
            delay_probability=0.25,
            max_shorten=2,
            step_range=(5, 90),
        )
        assert storm.run(service.monitor), "the storm must actually reorg"
        assert not service.index.subscriber_errors
        assert checked == list(range(1, service.monitor.tick_count + 1))

    def test_index_refuses_a_monitor_that_already_ticked(self, tiny_world):
        """Version 0 is the empty version, so the index must see every
        tick: attaching after the first one is an error."""
        monitor = StreamingMonitor.for_world(tiny_world)
        monitor.advance(tiny_world.node.block_number // 4)
        assert monitor.tick_count > 0
        with pytest.raises(ValueError):
            ServeIndex(monitor)


class TestPointLookups:
    def test_token_status_shapes(self, served, tiny_columnar_batch):
        nft = tiny_columnar_batch.activities[0].nft
        status = served.query.token_status(nft)
        assert status.is_washed
        version = served.query.version()
        expected = confirmation_coordinates(
            served.monitor.alerts[: version.last_seq + 1]
        )
        for record in status.records:
            assert (record.seq, record.confirmed_at_block) == expected[record.key]
        by_parts = served.query.token_status(nft.contract, nft.token_id)
        assert by_parts == status

    def test_clean_and_unknown_tokens(self, served):
        unknown = NFTKey(contract="0x" + "9" * 40, token_id=7)
        status = served.query.token_status(unknown)
        assert not status.is_washed
        assert status.records == ()
        with pytest.raises(ValueError):
            served.query.token_status("0x" + "9" * 40)

    def test_account_profile_contents(self, served, tiny_columnar_batch):
        account = sorted(tiny_columnar_batch.activities[0].accounts)[0]
        profile = served.query.account_profile(account)
        assert profile.is_implicated
        assert account not in profile.partners
        assert profile.nfts <= {a.nft for a in tiny_columnar_batch.activities}
        clean = served.query.account_profile("0x" + "8" * 40)
        assert not clean.is_implicated and clean.activity_count == 0


class TestListing:
    def test_pagination_covers_exactly_once(self, served):
        version = served.query.version()
        seen = []
        cursor = None
        while True:
            page = served.query.list_confirmed(
                limit=4, cursor=cursor, version=version
            )
            assert len(page.records) <= 4
            seen.extend(record.key for record in page.records)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == [record.key for record in version.confirmed]
        assert len(set(seen)) == len(seen)

    def test_filters_match_brute_force(self, served):
        version = served.query.version()
        for method in DetectionMethod:
            page = served.query.list_confirmed(
                method=method, limit=10_000, version=version
            )
            expected = [
                record for record in version.confirmed if method in record.methods
            ]
            assert list(page.records) == expected
            assert page.total_matched == len(expected)
        for venue in served.query.venues(version=version):
            page = served.query.list_confirmed(
                venue=venue, limit=10_000, version=version
            )
            assert all(record.venue == venue for record in page.records)
            assert page.total_matched == sum(
                1 for record in version.confirmed if record.venue == venue
            )
        midpoint = version.block // 2
        page = served.query.list_confirmed(
            since_block=midpoint, limit=10_000, version=version
        )
        assert all(
            record.confirmed_at_block >= midpoint for record in page.records
        )

    def test_limit_validation(self, served):
        with pytest.raises(ValueError):
            served.query.list_confirmed(limit=0)


class TestReplay:
    def test_full_replay_equals_alert_stream(self, served):
        cursor = served.query.replay()
        alerts = cursor.poll()
        assert list(alerts) == served.monitor.alerts
        assert [alert.seq for alert in alerts] == list(range(len(alerts)))
        assert cursor.poll() == ()
        assert cursor.lag == 0

    def test_resume_from_midpoint(self, served):
        total = len(served.monitor.alerts)
        midpoint = total // 2
        cursor = served.query.replay(since_seq=midpoint - 1)
        assert cursor.lag == total - midpoint
        batch = cursor.poll(limit=3)
        assert [alert.seq for alert in batch] == [midpoint, midpoint + 1, midpoint + 2]
        rest = cursor.poll()
        assert rest[-1].seq == total - 1


class TestAggregateCache:
    def test_cache_unit_precision(self):
        cache = AggregateCache()
        calls = []
        value = cache.get_or_compute(
            "a", (collection_scope("0xaa"),), lambda: calls.append(1) or "A"
        )
        assert value == "A"
        assert cache.get_or_compute(
            "a", (collection_scope("0xaa"),), lambda: calls.append(1) or "A2"
        ) == "A"
        cache.get_or_compute("b", (collection_scope("0xbb"),), lambda: "B")
        cache.get_or_compute("f", (FUNNEL_SCOPE,), lambda: "F")
        assert len(calls) == 1 and len(cache) == 3

        # Invalidating one collection leaves the others untouched.
        dropped = cache.invalidate({collection_scope("0xaa"), FUNNEL_SCOPE})
        assert dropped == 2
        assert cache.get_or_compute(
            "b", (collection_scope("0xbb"),), lambda: "B-recomputed"
        ) == "B"
        assert cache.get_or_compute(
            "a", (collection_scope("0xaa"),), lambda: "A-fresh"
        ) == "A-fresh"
        assert cache.invalidate(()) == 0

    def test_racing_invalidation_discards_the_store(self):
        cache = AggregateCache()

        def compute():
            # A tick invalidates the scope mid-computation.
            cache.invalidate({venue_scope("OpenSea")})
            return "stale-for-next-gen"

        assert (
            cache.get_or_compute("v", (venue_scope("OpenSea"),), compute)
            == "stale-for-next-gen"
        )
        # The racy value must not have been cached.
        assert (
            cache.get_or_compute("v", (venue_scope("OpenSea"),), lambda: "fresh")
            == "fresh"
        )
        assert cache.stats.stale_discards == 1

    def test_integration_untouched_scopes_survive_ticks(self, tiny_world):
        service = ServeService.for_world(tiny_world)
        service.run(step_blocks=29)
        first = service.query.funnel_stats()
        hits_before = service.cache.stats.hits
        assert service.query.funnel_stats() is first
        # An empty tick dirties nothing, so the cache stays warm.
        service.advance()
        assert service.query.funnel_stats() is first
        assert service.cache.stats.hits == hits_before + 2

    def test_pinned_aggregates_bypass_the_cache(self, tiny_world):
        """An aggregate pinned to a version is computed from it directly:
        it equals the cached answer (up to the computed-at version) and
        leaves the cache's hit and miss counts as they were."""
        service = ServeService.for_world(tiny_world)
        service.run(step_blocks=50)
        query = service.query
        version = query.version()

        def normalised(answer):
            return dataclasses.replace(answer, version=0)

        cached = [query.funnel_stats()]
        cached += [query.collection_rollup(c) for c in query.collections()]
        cached += [query.marketplace_rollup(v) for v in query.venues()]
        stats = service.cache_stats()
        pinned = [query.funnel_stats(version=version)]
        pinned += [
            query.collection_rollup(c, version=version)
            for c in query.collections(version=version)
        ]
        pinned += [
            query.marketplace_rollup(v, version=version)
            for v in query.venues(version=version)
        ]
        assert len(pinned) > 2
        assert [normalised(a) for a in pinned] == [normalised(a) for a in cached]
        after = service.cache_stats()
        assert (after.hits, after.misses) == (stats.hits, stats.misses)
