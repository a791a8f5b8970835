"""Parity proofs: the columnar engine reproduces the legacy pipeline.

Two layers of evidence:

* randomized cross-checks that mask-based refinement produces the same
  funnel-stage statistics and candidate sets as the networkx funnel on
  arbitrary transfer histories, and
* full-pipeline runs over simulated worlds asserting identical confirmed
  activities (accounts, methods, transfers, evidence) across the legacy
  path, the serial engine and the process-pool engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.types import NFTKey, NULL_ADDRESS
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.core.refine import RefinementFunnel
from repro.engine.refine import refine_tokens
from repro.engine.store import ColumnarTransferStore
from repro.ingest.dataset import NFTDataset, build_dataset
from repro.ingest.records import NFTTransfer
from repro.services.labels import LabelRegistry
from repro.verify import component_fingerprint, result_mismatches

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


def make_transfer(nft, sender, recipient, ts, price, tag):
    return NFTTransfer(
        nft=nft,
        sender=sender,
        recipient=recipient,
        tx_hash=f"0xhash{tag}",
        block_number=ts,
        timestamp=ts,
        price_wei=price,
        gas_fee_wei=10,
        tx_sender=sender,
    )


def minimal_dataset(transfers_by_nft) -> NFTDataset:
    """A dataset shell carrying only what the refinement funnel reads."""
    return NFTDataset(
        transfers_by_nft=transfers_by_nft,
        compliance=None,
        scan=None,
        account_transactions={},
        marketplace_addresses={},
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
            ts = draw(st.integers(min_value=0, max_value=30))
            price = draw(st.sampled_from([0, 0, 10**18]))
            transfers.append(make_transfer(nft, sender, recipient, ts, price, tag))
            tag += 1
        histories[nft] = transfers
    return histories


@settings(max_examples=60, deadline=None)
@given(random_histories())
def test_masked_refinement_matches_legacy_funnel(histories):
    """Stage statistics and candidate sets agree on arbitrary histories."""
    labels = make_labels()
    is_contract = CONTRACT_SET.__contains__

    legacy = RefinementFunnel(labels=labels, is_contract=is_contract).run(
        minimal_dataset(histories)
    )

    store = ColumnarTransferStore.from_transfers(histories)
    engine = refine_tokens(
        store.accounts,
        store,
        service_ids=store.ids_matching(labels.is_graph_excluded_service),
        contract_ids=store.ids_matching(is_contract),
    )

    assert [stage.to_stage() for stage in engine.stages] == legacy.stages
    assert sorted(map(component_fingerprint, engine.candidates)) == sorted(
        map(component_fingerprint, legacy.candidates)
    )


@settings(max_examples=25, deadline=None)
@given(
    random_histories(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_masked_refinement_matches_legacy_with_skips(
    histories, skip_services, skip_contracts, skip_zero_volume
):
    """The ablation skip flags behave identically on both paths."""
    labels = make_labels()
    is_contract = CONTRACT_SET.__contains__

    legacy = RefinementFunnel(
        labels=labels,
        is_contract=is_contract,
        skip_service_removal=skip_services,
        skip_contract_removal=skip_contracts,
        skip_zero_volume_removal=skip_zero_volume,
    ).run(minimal_dataset(histories))

    store = ColumnarTransferStore.from_transfers(histories)
    engine = refine_tokens(
        store.accounts,
        store,
        service_ids=store.ids_matching(labels.is_graph_excluded_service),
        contract_ids=store.ids_matching(is_contract),
        skip_service_removal=skip_services,
        skip_contract_removal=skip_contracts,
        skip_zero_volume_removal=skip_zero_volume,
    )

    assert [stage.to_stage() for stage in engine.stages] == legacy.stages
    assert sorted(map(component_fingerprint, engine.candidates)) == sorted(
        map(component_fingerprint, legacy.candidates)
    )


# -- full pipeline parity over simulated worlds --------------------------------


@pytest.fixture(scope="module")
def tiny_dataset(tiny_world):
    return build_dataset(tiny_world.node, tiny_world.marketplace_addresses)


def run_backend(world, dataset, **kwargs):
    pipeline = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, **kwargs
    )
    return pipeline.run(dataset)


class TestFullPipelineParity:
    def test_engine_matches_legacy_on_tiny_world(self, tiny_world, tiny_dataset):
        legacy = run_backend(tiny_world, tiny_dataset)
        engine = run_backend(tiny_world, tiny_dataset, engine="columnar")
        assert result_mismatches(engine, legacy) == []

    def test_engine_respects_enabled_methods(self, tiny_world, tiny_dataset):
        from repro.core.activity import DetectionMethod

        methods = {DetectionMethod.SELF_TRADE, DetectionMethod.ZERO_RISK}
        legacy = run_backend(tiny_world, tiny_dataset, enabled_methods=methods)
        engine = run_backend(
            tiny_world, tiny_dataset, enabled_methods=methods, engine="columnar"
        )
        assert result_mismatches(engine, legacy) == []

    def test_unknown_engine_rejected(self, tiny_world):
        with pytest.raises(ValueError):
            WashTradingPipeline(
                labels=tiny_world.labels,
                is_contract=tiny_world.is_contract,
                engine="quantum",
            )
