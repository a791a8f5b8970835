"""Unit tests for the trading kit, legit market and distractor engine."""

from __future__ import annotations

import pytest

from repro.simulation.actors import TradingKit
from repro.simulation.config import SimulationConfig
from repro.simulation.distractors import spread_over_days
from repro.simulation.legit import LegitInventory
from repro.utils.rng import DeterministicRNG
from tests.helpers import make_micro_world


@pytest.fixture()
def world():
    return make_micro_world(seed=5)


class TestTradingKit:
    def test_new_accounts_are_unique(self, world):
        accounts = {world.kit.new_account("x") for _ in range(50)}
        assert len(accounts) == 50

    def test_fund_from_exchange_credits_account(self, world):
        account = world.kit.new_account("trader")
        world.kit.fund_from_exchange(account, 3.0, day=1)
        assert world.kit.balance_eth(account) == pytest.approx(3.0)

    def test_mint_returns_token_id_and_ownership(self, world):
        owner = world.account("minter", funded_eth=5)
        token_id = world.kit.mint(world.collection_address, owner, day=1)
        assert world.kit.owner_of(world.collection_address, token_id) == owner

    def test_ensure_approval_is_idempotent(self, world):
        owner = world.account("approver", funded_eth=5)
        operator = world.marketplaces.address_of("OpenSea")
        before = world.chain.transaction_count()
        world.kit.ensure_approval(owner, world.collection_address, operator, day=1)
        world.kit.ensure_approval(owner, world.collection_address, operator, day=1)
        assert world.chain.transaction_count() == before + 1

    def test_self_trade_attaches_value(self, world):
        owner = world.account("selfer", funded_eth=10)
        token_id = world.kit.mint(world.collection_address, owner, day=1)
        tx = world.kit.self_trade(world.collection_address, token_id, owner, day=2, attached_value_eth=1.5)
        assert tx.value_wei == 1_500_000_000_000_000_000
        assert world.kit.owner_of(world.collection_address, token_id) == owner

    def test_p2p_trade_produces_two_transactions(self, world):
        seller = world.account("p2p-seller", funded_eth=10)
        buyer = world.account("p2p-buyer", funded_eth=10)
        token_id = world.kit.mint(world.collection_address, seller, day=1)
        payment, transfer = world.kit.p2p_trade(
            world.collection_address, token_id, seller, buyer, 2.0, day=2
        )
        assert payment.value_wei > 0
        assert transfer.value_wei == 0
        assert world.kit.owner_of(world.collection_address, token_id) == buyer

    def test_otc_trade_is_atomic(self, world):
        seller = world.account("otc-seller", funded_eth=10)
        buyer = world.account("otc-buyer", funded_eth=10)
        token_id = world.kit.mint(world.collection_address, seller, day=1)
        tx = world.kit.otc_trade(world.collection_address, token_id, seller, buyer, 2.0, day=2)
        assert tx.value_wei > 0
        assert any(log.is_erc721_transfer for log in tx.logs)
        assert world.kit.owner_of(world.collection_address, token_id) == buyer

    def test_reward_token_balance_starts_at_zero(self, world):
        account = world.kit.new_account("nobody")
        assert world.kit.reward_token_balance("LooksRare", account) == 0
        assert world.kit.reward_token_balance("OpenSea", account) == 0


class TestLegitInventory:
    def test_add_and_move_track_history(self):
        inventory = LegitInventory()
        inventory.add("0xc", 1, "alice")
        inventory.move("0xc", 1, "bob")
        assert inventory.owners[("0xc", 1)] == "bob"
        assert inventory.history[("0xc", 1)] == {"alice", "bob"}
        assert inventory.minted["0xc"] == 1
        assert ("0xc", 1) in inventory.sellable()

    def test_sellable_keeps_the_owners_order(self):
        """A sale draws ``rng.choice(sellable())``, which reads only the
        length and order of the list, so it must match the dict's keys."""
        inventory = LegitInventory()
        inventory.add("0xc", 1, "alice")
        inventory.add("0xd", 7, "carol")
        inventory.add("0xc", 2, "alice")
        assert inventory.sellable() == list(inventory.owners)
        inventory.move("0xd", 7, "dave")
        inventory.move("0xc", 1, "bob")
        assert inventory.sellable() == list(inventory.owners)
        inventory.add("0xc", 1, "erin")  # a re-add keeps the key's place
        assert inventory.sellable() == list(inventory.owners)
        inventory.move("0xe", 3, "frank")  # a move of a key never added
        assert inventory.sellable() == list(inventory.owners)
        assert len(inventory.sellable()) == 4


class TestDistractorPlanning:
    def test_spread_over_days_conserves_total(self):
        rng = DeterministicRNG(1, "spread")
        schedule = spread_over_days(37, 90, rng)
        assert sum(schedule.values()) == 37
        assert all(1 <= day <= 89 for day in schedule)

    def test_spread_is_deterministic(self):
        first = spread_over_days(20, 50, DeterministicRNG(2, "spread"))
        second = spread_over_days(20, 50, DeterministicRNG(2, "spread"))
        assert first == second


class TestLegitMarketInWorld:
    def test_legit_trading_creates_no_candidates(self, tiny_world, tiny_report):
        """Legitimate NFTs never end up among the refined candidates."""
        planted = {item.nft for item in tiny_world.ground_truth.activities}
        for component in tiny_report.result.refinement.candidates:
            assert component.nft in planted

    def test_distractor_contracts_present_but_invisible(self, tiny_world, tiny_report):
        """Position-vault, ERC-1155 and non-compliant activity exists on chain
        but never surfaces as a confirmed activity."""
        vault_collection = tiny_world.defi_addresses.get("position-collection")
        assert vault_collection is not None
        washed_contracts = {nft.contract for nft in tiny_report.result.washed_nfts()}
        assert vault_collection not in washed_contracts
