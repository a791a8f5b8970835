"""Per-tick work follows what changed.

A tick re-refines only tokens whose own rows changed and re-detects --
on held candidates -- only tokens with a candidate member whose
transaction history changed, running only the detectors whose history
window the change reaches.  History-only re-detections whose evidence
did not move are not passed downstream.  These tests pin both halves of
the split and that its results still reach every consumer.
"""

from __future__ import annotations

from repro.core.activity import DetectionMethod
from repro.obs.registry import MetricsRegistry
from repro.serve import ServeService
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from tests.stream.test_stream_reorg import batch_over
from tests.stream.test_stream_parity import assert_results_match

FRESH = "0x" + "f" * 40


def caught_up_service():
    """A private tiny world followed to its head by a served monitor."""
    world = build_default_world(SimulationConfig.tiny())
    registry = MetricsRegistry()
    service = ServeService.for_world(world, registry=registry)
    service.run()
    return world, service, registry


def spy_scheduler(monkeypatch, scheduler):
    """Count every refinement and detector run the scheduler does.

    Detector runs are counted at the detectors themselves, so runs on
    the re-refined path and on the history-only path both show.
    """
    calls = {"refined": [], "detected": 0}
    refine = scheduler._refine_live

    def refine_spy(live):
        calls["refined"].extend(live)
        return refine(live)

    def count_run(name, component):
        calls["detected"] += 1

    monkeypatch.setattr(scheduler, "_refine_live", refine_spy)
    spy_detectors(monkeypatch, scheduler, count_run)
    return calls


def spy_detectors(monkeypatch, scheduler, record):
    """Call ``record(detector name, component)`` on every detector run."""
    for detector in scheduler.detectors:

        def detect(component, context, name=detector.name, run=detector.detect):
            record(name, component)
            return run(component, context)

        monkeypatch.setattr(detector, "detect", detect)


def detector_runs(monkeypatch, scheduler):
    """Every detector run, as ``(detector name, component)`` pairs."""
    runs = []
    spy_detectors(monkeypatch, scheduler, lambda name, component: runs.append((name, component)))
    return runs


def mine(world, *transfers):
    """Mine one new block holding plain ETH transfers ``(sender, to)``."""
    chain = world.chain
    timestamp = chain.head_timestamp + 12
    for sender, to in transfers:
        chain.faucet(sender, 10**18)
        chain.transact(sender=sender, to=to, value_wei=10**15, timestamp=timestamp)


def redetected(registry) -> int:
    return registry.snapshot()["counters"]["scheduler_redetected_tokens_total"]


def detector_skips(registry) -> int:
    return registry.snapshot()["counters"]["scheduler_detector_skips_total"]


def plain_activity(world, monitor):
    """A confirmed activity with no graph-excluded service member."""
    return next(
        activity
        for activity in monitor.result().activities
        if not any(world.labels.is_graph_excluded_service(a) for a in activity.accounts)
    )


def test_graph_excluded_service_transaction_dirties_nothing(monkeypatch):
    world, service, registry = caught_up_service()
    monitor = service.monitor
    services = sorted(
        account
        for account in monitor.cursor.account_transactions
        if world.labels.is_graph_excluded_service(account)
        and monitor.cursor.tokens_touching([account])
    )
    assert services, "the tiny world has a followed graph-excluded service"
    hub = services[0]
    calls = spy_scheduler(monkeypatch, monitor.scheduler)
    before = redetected(registry)
    published = service.index.current

    mine(world, (hub, FRESH))
    snapshot = monitor.advance()

    assert snapshot.to_block == world.node.block_number
    assert snapshot.dirty_token_count == 0 and snapshot.dirty_nfts == ()
    assert calls == {"refined": [], "detected": 0}
    assert redetected(registry) == before
    # Nothing moved, so the served containers are shared, not rebuilt.
    assert service.index.current.confirmed is published.confirmed
    _, batch = batch_over(world)
    assert_results_match(monitor.result(), batch, ordered=True)


def test_member_history_change_redetects_without_refining(monkeypatch):
    world, service, registry = caught_up_service()
    monitor = service.monitor
    scheduler = monitor.scheduler
    activity = next(
        activity
        for activity in monitor.result().activities
        if len(activity.accounts) >= 2
        and not any(world.labels.is_graph_excluded_service(a) for a in activity.accounts)
    )
    nft = activity.nft
    first, second = sorted(activity.accounts)[:2]
    calls = spy_scheduler(monkeypatch, scheduler)
    before = redetected(registry)

    # Two members cash out to one fresh account after the last trade:
    # a common external exit the held evidence did not name.
    mine(world, (first, FRESH), (second, FRESH))
    snapshot = monitor.advance()

    assert calls["refined"] == []
    assert calls["detected"] >= 1
    assert redetected(registry) > before
    assert nft in snapshot.dirty_nfts
    assert snapshot.newly_confirmed_count == 0  # same identity, new evidence

    def exits_of(held):
        evidence = [
            item
            for item in held.evidence
            if item.method is DetectionMethod.COMMON_EXIT
        ]
        return evidence[0].details["external_exits"] if evidence else {}

    (current,) = [
        held
        for held in scheduler.confirmed_activities(nft).values()
        if held.accounts == activity.accounts
    ]
    assert exits_of(current).get(FRESH) == sorted([first, second])
    (record,) = [
        record
        for record in service.query.token_status(nft).records
        if record.accounts == activity.accounts
    ]
    assert DetectionMethod.COMMON_EXIT in record.methods
    assert exits_of(record.activity).get(FRESH) == sorted([first, second])
    _, batch = batch_over(world)
    assert_results_match(monitor.result(), batch, ordered=True)


def test_unchanged_evidence_is_not_passed_downstream(monkeypatch):
    world, service, registry = caught_up_service()
    monitor = service.monitor
    activity = next(
        activity
        for activity in monitor.result().activities
        if not any(world.labels.is_graph_excluded_service(a) for a in activity.accounts)
    )
    member = sorted(activity.accounts)[0]
    calls = spy_scheduler(monkeypatch, monitor.scheduler)
    before = redetected(registry)

    # A transfer *into* a member after its last trade: no detector reads
    # it (funding counts only before the first trade), so the re-run
    # evidence equals the held evidence.
    mine(world, (FRESH, member))
    snapshot = monitor.advance()

    assert calls["refined"] == []
    assert calls["detected"] >= 1
    assert redetected(registry) > before
    assert activity.nft not in snapshot.dirty_nfts
    _, batch = batch_over(world)
    assert_results_match(monitor.result(), batch, ordered=True)


def test_funding_after_last_trade_runs_only_common_exit(monkeypatch):
    world, service, registry = caught_up_service()
    monitor = service.monitor
    activity = plain_activity(world, monitor)
    member = sorted(activity.accounts)[0]
    runs = detector_runs(monkeypatch, monitor.scheduler)
    before = detector_skips(registry)

    # Funding after the last trade lies past every held candidate's
    # window: zero-risk and common-funder cannot see it, self-trade
    # reads no history at all.
    mine(world, (FRESH, member))
    snapshot = monitor.advance()

    assert snapshot.reorg_depth == 0
    on_candidate = [name for name, component in runs if component is activity.component]
    assert on_candidate == ["common-exit"]
    assert {name for name, _ in runs} == {"common-exit"}
    assert detector_skips(registry) > before
    _, batch = batch_over(world)
    assert_results_match(monitor.result(), batch, ordered=True)


def test_rollback_truncating_member_history_runs_every_detector(monkeypatch):
    world, service, registry = caught_up_service()
    monitor = service.monitor
    scheduler = monitor.scheduler
    activity = plain_activity(world, monitor)
    member = sorted(activity.accounts)[0]
    mine(world, (FRESH, member))
    monitor.advance()
    calls = spy_scheduler(monkeypatch, scheduler)
    runs = detector_runs(monkeypatch, scheduler)

    # Orphan the block again: the member's list is truncated, which may
    # have changed it anywhere, while no token's rows moved.
    world.chain.reorg(1)
    snapshot = monitor.advance()

    assert snapshot.reorg_depth == 1
    assert calls["refined"] == []
    every = {detector.name for detector in scheduler.detectors}
    held = [
        component
        for nft in scheduler.tokens_with_members([member])
        for component in scheduler.states[nft].candidates
        if member in component.accounts
    ]
    assert activity.component in held
    for component in held:
        assert {name for name, run_on in runs if run_on is component} == every
    _, batch = batch_over(world)
    assert_results_match(monitor.result(), batch, ordered=True)


def test_account_leaving_the_member_index_leaves_the_cache():
    world, service, _ = caught_up_service()
    monitor = service.monitor
    scheduler = monitor.scheduler
    cache = scheduler._cache
    index = scheduler._member_index
    nft, member = next(
        (next(iter(holders)), account)
        for account, holders in index.items()
        if len(holders) == 1 and account in cache._entries
    )

    # The token's rows vanish while no account's history changes: the
    # member leaves the index without ever being reported as touched.
    scheduler.store.remove_token(nft)
    scheduler.process([nft], monitor.context, touched={})

    assert member not in index
    assert member not in cache._entries
    assert set(cache._entries) <= set(index)
