"""Per-token funnel stage records are immutable and safely shared.

The scheduler keeps one :class:`~repro.engine.refine.StageRecord` per
funnel stage per token, and every token without a stage-1 component
shares :data:`~repro.engine.refine.EMPTY_STAGES`.  Published serve
versions, the scheduler's ``FunnelMaintainer`` and every funnel reader
hold the same records, so none of them may change one: after a reorg
storm, ``scheduler.result()``, a ``funnel_stats`` query and the
maintained funnel's refold, every record a tick ever installed still
holds the values it was created with.
"""

from __future__ import annotations

import random

from repro.core.detectors.pipeline import WashTradingPipeline
from repro.engine.refine import EMPTY_STAGES, STAGE_NAMES, FunnelMaintainer, StageRecord
from repro.ingest.dataset import build_dataset
from repro.serve import ServeService
from repro.serve.router import funnel_partial
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm
from repro.stream.scheduler import TokenState


def record_values(stages):
    """An independent copy of a token's stage records."""
    return [
        (
            record.name,
            record.nft_count,
            record.component_count,
            sorted(record.account_ids),
        )
        for record in stages
    ]


def test_stage_records_never_change_under_their_readers():
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    scheduler = service.monitor.scheduler
    installed = {}

    def remember(_snapshot):
        for state in scheduler.states.values():
            if id(state.stages) not in installed:
                installed[id(state.stages)] = (
                    state.stages,
                    record_values(state.stages),
                )

    service.monitor.subscribe_snapshots(remember)
    storm = ReorgStorm(
        world,
        random.Random(5),
        reorg_probability=0.45,
        max_depth=13,
        drop_probability=0.3,
        delay_probability=0.25,
        max_shorten=2,
        step_range=(5, 90),
    )
    assert storm.run(service.monitor), "the storm must actually reorg"
    assert not list(service.monitor.subscriber_errors)

    # Every reader folds the shared records.
    result = scheduler.result()
    funnel = service.query.funnel_stats()
    version = service.query.version()
    maintained = version.funnel
    refold = funnel_partial(version, scheduler.states)
    assert maintained.stages == refold.stages
    assert maintained.candidate_count == refold.candidate_count
    assert maintained.confirmed_count == refold.confirmed_count

    assert list(funnel.stages) == list(result.refinement.stages)
    batch = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="columnar"
    ).run(build_dataset(world.node, world.marketplace_addresses))
    assert result.refinement.stages == batch.refinement.stages

    assert any(stages is EMPTY_STAGES for stages, _ in installed.values())
    assert any(stages is not EMPTY_STAGES for stages, _ in installed.values())
    for stages, values in installed.values():
        assert record_values(stages) == values
    assert record_values(EMPTY_STAGES) == [(name, 0, 0, []) for name in STAGE_NAMES]


def test_versions_share_unchanged_stage_account_sets():
    """Through a reorg storm, a changed version whose dirty tokens left
    a stage's account set as it was shares that stage's frozenset with
    the version before it instead of copying it."""
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    published = []

    def capture(version):
        published.append((version.dirty_token_count, version.funnel))

    service.index.subscribe_versions(capture)
    storm = ReorgStorm(
        world,
        random.Random(5),
        reorg_probability=0.45,
        max_depth=13,
        drop_probability=0.3,
        delay_probability=0.25,
        max_shorten=2,
        step_range=(5, 90),
    )
    assert storm.run(service.monitor), "the storm must actually reorg"
    assert not list(service.index.subscriber_errors)
    assert len(published) == service.monitor.tick_count

    shared = 0
    for (_, before), (dirty, after) in zip(published, published[1:]):
        for old, new in zip(before.stages, after.stages):
            if new.account_ids == old.account_ids:
                assert new.account_ids is old.account_ids
                shared += dirty > 0
    assert shared, "some changed tick must leave a stage's accounts as they were"


def test_maintained_stage_shares_its_account_set_only_while_unchanged():
    """The first stage's account set is shared across a re-install that
    keeps the accounts, and rebuilt when an account leaves with none
    joining."""

    def state(component_count, *account_ids):
        first = StageRecord(STAGE_NAMES[0], 1, component_count, frozenset(account_ids))
        return TokenState(stages=(first, *EMPTY_STAGES[1:]), candidates=[], evidence=[])

    maintainer = FunnelMaintainer()
    held, moving = state(1, 1, 2), state(1, 2, 3)
    maintainer.apply(None, held)
    maintainer.apply(None, moving)
    first = maintainer.materialize()[0]
    assert first.account_ids == {1, 2, 3}

    # Account 3 leaves and rejoins inside one delta: same key set.
    maintainer.apply(moving, state(2, 3, 2))
    second = maintainer.materialize()[0]
    assert second.component_count == 3
    assert second.account_ids is first.account_ids

    # Account 1 leaves and nothing joins.
    maintainer.apply(held, None)
    third = maintainer.materialize()[0]
    assert (third.nft_count, third.component_count) == (1, 2)
    assert third.account_ids == {2, 3}
