"""Stream/batch parity proofs.

Two layers, mirroring ``tests/engine/test_parity.py``:

* randomized transfer histories fed to the dirty-token scheduler
  block-by-block -- including blocks arriving out of order and empty
  ticks -- must produce exactly the batch columnar pipeline's result;
* full simulated worlds replayed through the :class:`StreamingMonitor`
  must match a batch ``WashTradingPipeline(engine="columnar")`` run
  bit-for-bit: candidate order, activities, evidence, funnel statistics,
  and the underlying ingested dataset itself.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.types import NFTKey, NULL_ADDRESS
from repro.core.detectors.base import DetectionContext
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.engine.executor import TransactionView
from repro.engine.store import ColumnarTransferStore
from repro.ingest.dataset import NFTDataset, build_dataset
from repro.ingest.records import NFTTransfer
from repro.services.labels import LabelRegistry
from repro.stream import DatasetCursor, DirtyTokenScheduler, StreamingMonitor

REGULARS = [f"0xa{index}" for index in range(8)]
SERVICES = ["0xsvc0", "0xsvc1"]
CONTRACTS = ["0xct0", "0xct1"]
POOL = REGULARS + SERVICES + CONTRACTS + [NULL_ADDRESS]
CONTRACT_SET = frozenset(CONTRACTS)


def make_labels() -> LabelRegistry:
    labels = LabelRegistry()
    for address in SERVICES:
        labels.add(address, "exchange")
    return labels


def make_transfer(nft, sender, recipient, block, price, tag):
    return NFTTransfer(
        nft=nft,
        sender=sender,
        recipient=recipient,
        tx_hash=f"0xhash{tag}",
        block_number=block,
        timestamp=block,
        price_wei=price,
        gas_fee_wei=10,
        tx_sender=sender,
    )


def minimal_dataset(transfers_by_nft) -> NFTDataset:
    return NFTDataset(
        transfers_by_nft=transfers_by_nft,
        compliance=None,
        scan=None,
        account_transactions={},
        marketplace_addresses={},
    )


def candidate_key(component):
    return (
        component.nft.contract,
        component.nft.token_id,
        tuple(sorted(component.accounts)),
        tuple(sorted(transfer.tx_hash for transfer in component.transfers)),
    )


def activity_key(activity):
    return (
        activity.nft.contract,
        activity.nft.token_id,
        tuple(sorted(activity.accounts)),
        tuple(sorted(method.value for method in activity.methods)),
        tuple(sorted(t.tx_hash for t in activity.component.transfers)),
        tuple(
            sorted(
                repr(sorted(evidence.details.items()))
                for evidence in activity.evidence
            )
        ),
    )


@st.composite
def random_histories(draw):
    """A few NFTs with random transfers over the mixed account pool."""
    token_count = draw(st.integers(min_value=1, max_value=4))
    histories = {}
    tag = 0
    for token_id in range(token_count):
        nft = NFTKey(contract="0x" + "c" * 40, token_id=token_id)
        edge_count = draw(st.integers(min_value=0, max_value=14))
        transfers = []
        for _ in range(edge_count):
            sender = draw(st.sampled_from(POOL))
            recipient = draw(st.sampled_from(POOL))
            block = draw(st.integers(min_value=0, max_value=30))
            price = draw(st.sampled_from([0, 0, 10**18]))
            transfers.append(make_transfer(nft, sender, recipient, block, price, tag))
            tag += 1
        histories[nft] = transfers
    return histories


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

    scheduler.process([], context, touched={})  # an empty tick before anything arrives
    for block in block_order:
        dirty = store.extend(by_block.get(block, {}))
        scheduler.process(dirty, context, touched={})
        scheduler.process([], context, touched={})  # every other tick is empty
    return scheduler.result()


def assert_results_match(stream, batch, ordered=False):
    assert stream.refinement.stages == batch.refinement.stages
    if ordered:
        assert list(map(candidate_key, stream.refinement.candidates)) == list(
            map(candidate_key, batch.refinement.candidates)
        )
        assert list(map(activity_key, stream.activities)) == list(
            map(activity_key, batch.activities)
        )
    else:
        assert sorted(map(candidate_key, stream.refinement.candidates)) == sorted(
            map(candidate_key, batch.refinement.candidates)
        )
        assert sorted(map(activity_key, stream.activities)) == sorted(
            map(activity_key, batch.activities)
        )
    assert sorted(map(candidate_key, stream.unconfirmed)) == sorted(
        map(candidate_key, batch.unconfirmed)
    )
    assert stream.count_by_method() == batch.count_by_method()
    assert stream.venn_counts() == batch.venn_counts()
    assert stream.washed_nfts() == batch.washed_nfts()


def run_batch_columnar(histories):
    labels = make_labels()
    return WashTradingPipeline(
        labels=labels, is_contract=CONTRACT_SET.__contains__, engine="columnar"
    ).run(minimal_dataset(histories))


@settings(max_examples=40, deadline=None)
@given(random_histories())
def test_blockwise_replay_matches_batch(histories):
    """In-order block-by-block feeding reproduces the batch result."""
    blocks = sorted(
        {t.block_number for transfers in histories.values() for t in transfers}
    )
    stream = replay_through_scheduler(histories, blocks)
    assert_results_match(stream, run_batch_columnar(histories))


@settings(max_examples=30, deadline=None)
@given(random_histories(), st.randoms(use_true_random=False))
def test_out_of_order_blocks_match_batch(histories, rng):
    """Blocks arriving in ANY order still converge to the batch result.

    This exercises the store's out-of-order append fallback (rows that
    sort before the current tail force a re-columnarization) and the
    scheduler's full-token recomputation.
    """
    blocks = sorted(
        {t.block_number for transfers in histories.values() for t in transfers}
    )
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    stream = replay_through_scheduler(histories, shuffled)
    assert_results_match(stream, run_batch_columnar(histories))


# -- full world parity through the monitor ------------------------------------


@pytest.fixture(scope="module")
def tiny_batch(tiny_world):
    dataset = build_dataset(tiny_world.node, tiny_world.marketplace_addresses)
    result = WashTradingPipeline(
        labels=tiny_world.labels,
        is_contract=tiny_world.is_contract,
        engine="columnar",
    ).run(dataset)
    return dataset, result


class TestMonitorParity:
    @pytest.mark.parametrize("step_blocks", [1, 37], ids=["per-block", "windowed"])
    def test_full_replay_matches_batch(self, tiny_world, tiny_batch, step_blocks):
        dataset, batch = tiny_batch
        monitor = StreamingMonitor.for_world(tiny_world)
        monitor.run(step_blocks=step_blocks)
        assert monitor.processed_block == tiny_world.node.block_number
        assert_results_match(monitor.result(), batch, ordered=True)

    def test_ingested_dataset_matches_batch_build(self, tiny_world, tiny_batch):
        dataset, _ = tiny_batch
        cursor = DatasetCursor(tiny_world.node, tiny_world.marketplace_addresses)
        cursor.advance()
        assert cursor.transfers_by_nft == dataset.transfers_by_nft
        assert list(cursor.transfers_by_nft) == list(dataset.transfers_by_nft)
        assert cursor.account_transactions == dataset.account_transactions
        assert cursor.compliance.compliant == dataset.compliance.compliant
        assert cursor.compliance.non_compliant == dataset.compliance.non_compliant
        assert cursor.scan.event_count == dataset.scan.event_count
        view = cursor.as_dataset()
        assert view.transfer_count == dataset.transfer_count
        assert view.columnar_store() is cursor.store

    def test_result_is_stable_across_empty_ticks(self, tiny_world, tiny_batch):
        _, batch = tiny_batch
        monitor = StreamingMonitor.for_world(tiny_world)
        head = tiny_world.node.block_number
        monitor.advance(head // 2)
        # Out-of-order request (behind the cursor) and repeated-head
        # requests are no-ops.
        noop = monitor.advance(head // 4)
        assert noop.is_empty and noop.new_transfer_count == 0
        monitor.advance(head)
        repeat = monitor.advance(head)
        assert repeat.is_empty
        assert_results_match(monitor.result(), batch, ordered=True)

    def test_random_tick_boundaries_match_batch(self, tiny_world, tiny_batch):
        import random

        _, batch = tiny_batch
        rng = random.Random(1234)
        head = tiny_world.node.block_number
        monitor = StreamingMonitor.for_world(tiny_world)
        position = 0
        while position < head:
            position = min(position + rng.randint(1, 80), head)
            monitor.advance(position)
        assert_results_match(monitor.result(), batch, ordered=True)

    def test_mid_stream_state_matches_causal_prefix(self, tiny_world):
        """Halfway through the chain, the monitor equals a *causal* prefix.

        ``build_dataset(to_block=B)`` is causally clamped end to end:
        the scan stops at B *and* the per-account transaction collection
        filters out anything mined past B, so a plain prefix build
        against the full archive node is a valid mid-stream reference --
        no node-wrapping workaround required.
        """
        head = tiny_world.node.block_number
        upper = head // 2
        monitor = StreamingMonitor.for_world(tiny_world)
        monitor.run(to_block=upper, step_blocks=13)
        prefix = build_dataset(
            tiny_world.node,
            tiny_world.marketplace_addresses,
            to_block=upper,
        )
        batch = WashTradingPipeline(
            labels=tiny_world.labels,
            is_contract=tiny_world.is_contract,
            engine="columnar",
        ).run(prefix)
        assert_results_match(monitor.result(), batch, ordered=True)
        assert monitor.cursor.account_transactions == prefix.account_transactions
