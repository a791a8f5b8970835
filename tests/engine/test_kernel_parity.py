"""Parity proofs for the single-token funnel and the money-flow cache.

The single-token funnel both the batch engine and the streaming
scheduler run (:func:`refine_token`) is pinned against the batch
refinement.  The scheduler, which keeps one money-flow cache for its
whole life, must converge to the legacy networkx oracle with blocks out
of order and through a reorg storm.  The opt-in volume-match detector
is pinned batch == legacy == stream here as well.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import DetectionMethod
from repro.core.detectors.base import DetectionContext
from repro.chain.types import NFTKey
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.engine.executor import TransactionView
from repro.engine.refine import (
    EMPTY_STAGES,
    funnel_masks,
    refine_token,
    refine_tokens,
)
from repro.engine.store import ColumnarTransferStore
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm
from repro.stream import DirtyTokenScheduler, StreamingMonitor
from tests.engine.test_parity import (
    CONTRACT_SET,
    REGULARS,
    activity_key,
    candidate_key,
    make_labels,
    make_transfer,
    minimal_dataset,
    random_histories,
    run_backend,
)
from tests.stream.test_stream_parity import assert_results_match


def stages_of(refinement):
    return [stage.to_stage() for stage in refinement.stages]


def assert_refinements_equal(single, batch):
    assert stages_of(single) == stages_of(batch)
    assert list(map(candidate_key, single.candidates)) == list(
        map(candidate_key, batch.candidates)
    )


def assert_full_parity(engine, legacy):
    assert engine.refinement.stages == legacy.refinement.stages
    assert sorted(map(candidate_key, engine.refinement.candidates)) == sorted(
        map(candidate_key, legacy.refinement.candidates)
    )
    assert sorted(map(activity_key, engine.activities)) == sorted(
        map(activity_key, legacy.activities)
    )
    assert len(engine.unconfirmed) == len(legacy.unconfirmed)
    assert engine.count_by_method() == legacy.count_by_method()
    assert engine.venn_counts() == legacy.venn_counts()
    assert engine.washed_nfts() == legacy.washed_nfts()


# -- refinement-layer parity ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_histories(), st.booleans(), st.booleans(), st.booleans())
def test_single_token_funnel_matches_batch_refinements(
    histories, skip_services, skip_contracts, skip_zero_volume
):
    """``refine_token`` over one token equals the batch refinement over
    that token alone: candidates, every stage's statistics and account
    ids.  A token without a stage-1 component gets the shared empty
    records."""
    acyclic = NFTKey(contract="0x" + "d" * 40, token_id=0)
    histories = dict(histories)
    histories[acyclic] = [
        make_transfer(acyclic, REGULARS[0], REGULARS[1], 1, 10**18, 1000),
        make_transfer(acyclic, REGULARS[1], REGULARS[2], 2, 10**18, 1001),
    ]
    labels = make_labels()
    store = ColumnarTransferStore.from_transfers(histories)
    service_ids = store.ids_matching(labels.is_graph_excluded_service)
    contract_ids = store.ids_matching(CONTRACT_SET.__contains__)
    kwargs = dict(
        skip_service_removal=skip_services,
        skip_contract_removal=skip_contracts,
        skip_zero_volume_removal=skip_zero_volume,
    )
    masks = funnel_masks(service_ids, contract_ids, skip_services, skip_contracts)
    empty_tokens = 0
    for columns in store:
        single = refine_token(store.accounts, columns, masks, skip_zero_volume)
        batch = refine_tokens(
            store.accounts, [columns], service_ids, contract_ids, **kwargs
        )
        assert_refinements_equal(single, batch)
        assert [record.account_ids for record in single.stages] == [
            stage.account_ids for stage in batch.stages
        ]
        if single.stages is EMPTY_STAGES:
            empty_tokens += 1
            assert not single.candidates
        else:
            assert single.stages[0].nft_count == 1
    assert empty_tokens >= 1
    assert refine_token(store.accounts, store.tokens[acyclic], masks).stages is (
        EMPTY_STAGES
    )
    assert all(
        (record.nft_count, record.component_count, record.account_ids)
        == (0, 0, frozenset())
        for record in EMPTY_STAGES
    )


# -- streaming parity ----------------------------------------------------------


def replay_through_scheduler(histories, block_order):
    """Feed one transfer history to a scheduler, one block per tick."""
    labels = make_labels()
    is_contract = CONTRACT_SET.__contains__
    store = ColumnarTransferStore()
    scheduler = DirtyTokenScheduler(store, labels=labels, is_contract=is_contract)
    context = DetectionContext(
        dataset=TransactionView({}), labels=labels, is_contract=is_contract
    )
    by_block = defaultdict(lambda: defaultdict(list))
    for nft, transfers in histories.items():
        for transfer in transfers:
            by_block[transfer.block_number][nft].append(transfer)
    for block in block_order:
        dirty = store.extend(by_block.get(block, {}))
        scheduler.process(dirty, context, touched={})
    return scheduler.result()


@settings(max_examples=25, deadline=None)
@given(random_histories(), st.randoms(use_true_random=False))
def test_scheduler_with_and_without_flow_cache_matches_batch(histories, rng):
    """Scheduling on the money-flow cache converges to the legacy batch
    result, even with blocks arriving out of order (the reorg-shaped
    append fallback path).  The reference is the legacy engine because
    the columnar engine shares the cache."""
    blocks = sorted(
        {t.block_number for transfers in histories.values() for t in transfers}
    )
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    streamed = replay_through_scheduler(histories, shuffled)
    batch = WashTradingPipeline(
        labels=make_labels(), is_contract=CONTRACT_SET.__contains__, engine="legacy"
    ).run(minimal_dataset(histories))
    assert_results_match(streamed, batch)


def test_reorg_storm_with_kernels_matches_batch():
    """A randomized advance/reorg/advance storm on the cached scheduler
    still equals a fresh legacy batch build of the final chain."""
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
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
    summaries = storm.run(monitor)
    assert summaries, "the storm must actually reorg"
    dataset = build_dataset(world.node, world.marketplace_addresses)
    batch = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="legacy"
    ).run(dataset)
    assert_results_match(monitor.result(), batch, ordered=True)


# -- volume-match across execution paths ---------------------------------------


@pytest.fixture(scope="module")
def tiny_dataset(tiny_world):
    return build_dataset(tiny_world.node, tiny_world.marketplace_addresses)


class TestVolumeMatchParity:
    METHODS = frozenset(DetectionMethod.paper_methods()) | {
        DetectionMethod.VOLUME_MATCH
    }

    def test_batch_engines_agree_with_volume_match(
        self, tiny_world, tiny_dataset
    ):
        legacy = run_backend(tiny_world, tiny_dataset, enabled_methods=self.METHODS)
        columnar = run_backend(
            tiny_world, tiny_dataset, enabled_methods=self.METHODS, engine="columnar"
        )
        assert_full_parity(columnar, legacy)
        assert DetectionMethod.VOLUME_MATCH in columnar.count_by_method()

    def test_streaming_agrees_with_batch_with_volume_match(
        self, tiny_world, tiny_dataset
    ):
        columnar = run_backend(
            tiny_world, tiny_dataset, enabled_methods=self.METHODS, engine="columnar"
        )
        monitor = StreamingMonitor.for_world(
            tiny_world, enabled_methods=self.METHODS
        )
        monitor.run(step_blocks=29)
        assert_results_match(monitor.result(), columnar, ordered=True)

    def test_default_method_set_stays_the_papers(self, tiny_world, tiny_dataset):
        """Headline numbers must not move unless volume-match is asked for."""
        default = run_backend(tiny_world, tiny_dataset, engine="columnar")
        assert DetectionMethod.VOLUME_MATCH not in default.count_by_method()
