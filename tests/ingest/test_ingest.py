"""Unit tests for the Sec. III dataset construction."""

from __future__ import annotations

import pytest

from repro.chain.types import Call, NFTKey
from repro.contracts.erc1155 import ERC1155Collection
from repro.contracts.erc20 import ERC20Token
from repro.contracts.noncompliant import NonCompliantNFTContract
from repro.ingest.compliance import check_erc721_compliance
from repro.ingest.dataset import build_dataset
from repro.ingest.marketplace_attribution import attribute_marketplace, build_reverse_index
from repro.ingest.transfer_scan import decode_transfer_log, scan_erc721_transfer_logs
from repro.utils.currency import eth_to_wei
from tests.helpers import make_micro_world


@pytest.fixture()
def world():
    return make_micro_world()


def script_basic_activity(world):
    """One mint, one marketplace sale, one direct transfer, plus distractors."""
    kit = world.kit
    alice = world.account("alice", funded_eth=20)
    bob = world.account("bob", funded_eth=20)
    carol = world.account("carol", funded_eth=20)

    token_id = kit.mint(world.collection_address, alice, day=1)
    kit.marketplace_sale("OpenSea", world.collection_address, token_id, alice, bob, 2.0, day=2)
    kit.direct_transfer(world.collection_address, token_id, bob, carol, day=3)

    # Distractor contracts whose events must not be picked up (ERC-20,
    # ERC-1155) or must be dropped by the compliance check (non-compliant).
    erc20 = ERC20Token("Wrapped Ether", "WETH")
    erc20_address = world.chain.deploy_contract(erc20)
    world.chain.transact(
        sender=alice, to=erc20_address, call=Call("mint", {"to": alice, "amount": 10}),
        timestamp=kit.clock.next_timestamp(3),
    )
    erc1155 = ERC1155Collection("Multi")
    erc1155_address = world.chain.deploy_contract(erc1155)
    world.chain.transact(
        sender=alice, to=erc1155_address, call=Call("mint", {"to": alice, "token_id": 1, "amount": 2}),
        timestamp=kit.clock.next_timestamp(3),
    )
    legacy = NonCompliantNFTContract("Legacy")
    legacy_address = world.chain.deploy_contract(legacy)
    world.chain.transact(
        sender=alice, to=legacy_address, call=Call("mint", {"to": alice}),
        timestamp=kit.clock.next_timestamp(3),
    )
    return alice, bob, carol, token_id, legacy_address


class TestTransferScan:
    def test_scan_finds_only_erc721_layout(self, world):
        alice, bob, carol, token_id, legacy_address = script_basic_activity(world)
        scan = scan_erc721_transfer_logs(world.node)
        # mint + sale + direct transfer + legacy mint = 4 ERC-721-shaped events.
        assert scan.event_count == 4
        assert world.collection_address in scan.emitting_contracts
        assert legacy_address in scan.emitting_contracts
        assert scan.contract_count == 2

    def test_decode_transfer_log(self, world):
        alice, *_ = world.account("alice", funded_eth=5), None
        token_id = world.kit.mint(world.collection_address, world.account("alice"), day=1)
        scan = scan_erc721_transfer_logs(world.node)
        sender, recipient, decoded_id = decode_transfer_log(scan.matches[0][1])
        assert decoded_id == token_id
        assert recipient == world.account("alice")

    def test_events_by_contract(self, world):
        script_basic_activity(world)
        scan = scan_erc721_transfer_logs(world.node)
        assert scan.events_by_contract()[world.collection_address] == 3


class TestCompliance:
    def test_compliant_and_noncompliant_split(self, world):
        *_rest, legacy_address = script_basic_activity(world)
        scan = scan_erc721_transfer_logs(world.node)
        report = check_erc721_compliance(world.node, scan.emitting_contracts)
        assert report.is_compliant(world.collection_address)
        assert not report.is_compliant(legacy_address)
        assert report.compliance_ratio == pytest.approx(0.5)

    def test_non_contract_address_is_noncompliant(self, world):
        report = check_erc721_compliance(world.node, ["0x" + "9" * 40])
        assert report.compliant_count == 0
        assert report.checked_count == 1


class TestAttribution:
    def test_marketplace_sale_attributed(self, world):
        script_basic_activity(world)
        addresses = world.marketplaces.addresses_by_name
        sale_tx = next(
            tx
            for block in world.chain.blocks
            for tx in block.transactions
            if tx.to == addresses["OpenSea"]
            and tx.call is not None
            and tx.call.function == "buy"
        )
        assert attribute_marketplace(sale_tx, addresses) == "OpenSea"

    def test_plain_transfer_not_attributed(self, world):
        script_basic_activity(world)
        addresses = world.marketplaces.addresses_by_name
        other_tx = world.chain.blocks[0].transactions[0]
        assert attribute_marketplace(other_tx, addresses) is None

    def test_reverse_index(self):
        reverse = build_reverse_index({"OpenSea": "0xabc"})
        assert reverse == {"0xabc": "OpenSea"}


class TestDatasetAssembly:
    def test_dataset_contents(self, world):
        alice, bob, carol, token_id, legacy_address = script_basic_activity(world)
        dataset = build_dataset(world.node, world.marketplaces.addresses_by_name)
        nft = NFTKey(contract=world.collection_address, token_id=token_id)

        assert dataset.nft_count == 1  # the legacy contract is filtered out
        assert dataset.collection_count == 1
        transfers = dataset.transfers_of(nft)
        assert len(transfers) == 3
        assert transfers[0].is_mint
        assert transfers[1].marketplace == "OpenSea"
        assert transfers[1].price_wei == eth_to_wei(2)
        assert transfers[2].marketplace is None
        assert transfers[2].price_wei == 0

    def test_involved_accounts_and_their_transactions(self, world):
        alice, bob, carol, token_id, _ = script_basic_activity(world)
        dataset = build_dataset(world.node, world.marketplaces.addresses_by_name)
        accounts = dataset.involved_accounts()
        assert {alice, bob, carol} <= accounts
        assert dataset.transactions_of(alice)
        assert any(tx.value_wei > 0 for tx in dataset.transactions_of(alice))

    def test_marketplace_activity_rows(self, world):
        _, _, _, token_id, _ = script_basic_activity(world)
        dataset = build_dataset(world.node, world.marketplaces.addresses_by_name)
        activity = dataset.marketplace_activity()
        assert activity["OpenSea"].nft_count == 1
        assert activity["OpenSea"].transaction_count == 1
        assert activity["OpenSea"].volume_wei == eth_to_wei(2)
        assert activity["LooksRare"].nft_count == 0

    def test_non_compliant_events_are_scanned_but_not_kept(self, world):
        _, _, _, _, legacy_address = script_basic_activity(world)
        dataset = build_dataset(world.node, world.marketplaces.addresses_by_name)
        assert legacy_address in dataset.compliance.non_compliant
        assert legacy_address in dataset.scan.emitting_contracts
        assert dataset.scan.events_by_contract()[legacy_address] > 0
        assert all(nft.contract != legacy_address for nft in dataset.transfers_by_nft)

    def test_total_and_collection_volume(self, world):
        script_basic_activity(world)
        dataset = build_dataset(world.node, world.marketplaces.addresses_by_name)
        assert dataset.total_volume_wei == eth_to_wei(2)
        assert dataset.volume_of_collection_wei(world.collection_address) == eth_to_wei(2)

    def test_to_block_clamps_account_transactions(self, world):
        """``build_dataset(to_block=B)`` must be causal end to end.

        The transfer scan always stopped at B, but account transaction
        histories used to span the whole chain -- a prefix build against
        an archive node saw funding/exit transactions from the future.
        Both views are clamped now.
        """
        alice, bob, carol, token_id, _ = script_basic_activity(world)
        upper = world.node.block_number
        # Mine post-cutoff activity involving an already-involved account.
        world.kit.direct_transfer(
            world.collection_address, token_id, carol, alice, day=5
        )
        world.kit.fund_from_exchange(alice, 3, day=5)
        assert world.node.block_number > upper

        clamped = build_dataset(
            world.node, world.marketplaces.addresses_by_name, to_block=upper
        )
        full = build_dataset(world.node, world.marketplaces.addresses_by_name)
        for account in clamped.involved_accounts():
            assert all(
                tx.block_number <= upper
                for tx in clamped.transactions_of(account)
            ), f"future transaction leaked into {account}'s clamped history"
        # The unclamped build does see the later activity, so the clamp
        # (not the scripted history) is what kept the prefix causal.
        assert any(
            tx.block_number > upper for tx in full.transactions_of(alice)
        )
