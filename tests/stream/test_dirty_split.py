"""Per-tick work follows what changed.

A tick re-refines only tokens whose own rows changed and re-detects --
on held candidates -- only tokens with a candidate member whose
transaction history changed.  History-only re-detections whose evidence
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
    """Record every refinement and detector run the scheduler does."""
    calls = {"refined": [], "detected": 0}
    refine, collect = scheduler._refine_live, scheduler._collect

    def refine_spy(live):
        calls["refined"].extend(live)
        return refine(live)

    def collect_spy(candidates, context):
        calls["detected"] += len(candidates)
        return collect(candidates, context)

    monkeypatch.setattr(scheduler, "_refine_live", refine_spy)
    monkeypatch.setattr(scheduler, "_collect", collect_spy)
    return calls


def mine(world, *transfers):
    """Mine one new block holding plain ETH transfers ``(sender, to)``."""
    chain = world.chain
    timestamp = chain.head_timestamp + 12
    for sender, to in transfers:
        chain.faucet(sender, 10**18)
        chain.transact(sender=sender, to=to, value_wei=10**15, timestamp=timestamp)


def redetected(registry) -> int:
    return registry.snapshot()["counters"]["scheduler_redetected_tokens_total"]


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
