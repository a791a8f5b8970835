"""The world builder: assembles and runs a full synthetic history."""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.chain.chain import Chain
from repro.chain.node import EthereumNode
from repro.contracts.erc721 import ERC721Collection
from repro.contracts.erc1155 import ERC1155Collection
from repro.contracts.noncompliant import NonCompliantNFTContract
from repro.contracts.registry import ContractRegistry
from repro.marketplaces.venues import build_standard_marketplaces
from repro.services.defi import (
    ConstantProductPool,
    FlashLoanProvider,
    OTCSwapDesk,
    PositionNFTVault,
)
from repro.services.exchanges import CentralizedExchange
from repro.services.games import NFTStakingGame
from repro.services.labels import LabelRegistry
from repro.services.oracle import PriceOracle
from repro.simulation.actors import TradingKit
from repro.simulation.config import SimulationConfig
from repro.simulation.distractors import DistractorEngine
from repro.simulation.ground_truth import GroundTruth
from repro.simulation.legit import LegitMarket
from repro.simulation.scenarios import ScenarioFactory
from repro.simulation.timeline import TimeAllocator
from repro.simulation.world import DeployedCollection, World
from repro.utils.currency import eth_to_wei
from repro.utils.rng import DeterministicRNG
from repro.utils.timeutil import SIMULATION_EPOCH

#: Collections the paper names as the most wash-traded; the synthetic
#: wash-target collections borrow these names so reports read naturally.
WASH_TARGET_NAMES = (
    "Meebits",
    "Terraforms",
    "Loot",
    "Rollbots",
    "Avastar",
    "OG:Crystals",
    "ArtBlocks",
    "The n project",
    "BFH-Unit",
    "Staked Critterz",
    "EthermonMonster",
    "BFH: Sphere",
)


@dataclass
class DayHookContext:
    """What a day hook may touch while the history is being generated.

    Hooks run at the start of their day, before any of that day's
    organic activity, so a fee change or token churn is visible to every
    trade the day produces -- the same ordering a real governance change
    taking effect at midnight would have.
    """

    day: int
    chain: Chain
    kit: TradingKit
    marketplaces: object
    erc1155_address: Optional[str]
    rng: DeterministicRNG


#: A build-time intervention: called once on its scheduled day.
DayHook = Callable[[DayHookContext], None]


class WorldBuilder:
    """Builds a deterministic synthetic world from a :class:`SimulationConfig`.

    ``day_hooks`` is an optional iterable of ``(day, hook)`` pairs; each
    hook fires at the start of its day with a :class:`DayHookContext`.
    The scenario engine uses this to stage mid-history regime changes --
    marketplace fee shifts, ERC-1155 tokenization waves -- without the
    builder having to know about any specific intervention.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        day_hooks: Iterable[Tuple[int, DayHook]] = (),
    ) -> None:
        self.config = config or SimulationConfig()
        self.day_hooks: Dict[int, List[DayHook]] = {}
        for day, hook in day_hooks:
            self.day_hooks.setdefault(day, []).append(hook)

    # -- public API -----------------------------------------------------------------
    def build(self) -> World:
        """Deploy the ecosystem, run the simulated history, return the world.

        The cyclic garbage collector is paused while the history runs.
        Nearly everything the build allocates lives as long as the world,
        so automatic full collections would rescan an ever larger heap,
        free almost nothing and make the build superlinear. The caller's
        setting is restored on the way out, also when the build
        raises, and a caller that had the collector on gets one full
        collection at the end, so the build pays for its own garbage.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._build()
        finally:
            if collecting:
                # Collect before re-enabling: the allocation count kept
                # growing while paused, and re-enabling first would let the
                # next allocation start a second, young collection.
                gc.collect()
                gc.enable()

    def _build(self) -> World:
        config = self.config
        rng = DeterministicRNG(config.seed)
        clock = TimeAllocator(start_timestamp=SIMULATION_EPOCH)
        chain = Chain(genesis_timestamp=SIMULATION_EPOCH)
        labels = LabelRegistry()
        registry = ContractRegistry()
        oracle = PriceOracle()

        marketplaces = build_standard_marketplaces(
            chain,
            labels,
            registry,
            looks_daily_emission=config.looks_daily_emission,
            rari_daily_emission=config.rari_daily_emission,
        )
        exchanges = self._deploy_exchanges(chain, labels)
        defi_addresses, erc1155_address, noncompliant_addresses, game_address = (
            self._deploy_defi_and_distractor_contracts(
                chain, labels, registry, marketplaces
            )
        )
        collections, collections_map, collection_targets = self._deploy_collections(
            chain, registry, clock, rng.child("collections")
        )

        kit = TradingKit(
            chain=chain,
            marketplaces=marketplaces,
            collections=collections_map,
            exchanges=exchanges,
            labels=labels,
            clock=clock,
            rng=rng.child("kit"),
            otc_desk_address=defi_addresses.get("otc-desk"),
        )
        traders, whales = self._fund_traders(kit, rng.child("traders"))

        ground_truth = GroundTruth()
        wash_collections = [item for item in collections if item.is_wash_target]
        factory = ScenarioFactory(
            kit=kit,
            config=config,
            rng=rng.child("wash"),
            ground_truth=ground_truth,
            wash_collections=wash_collections,
            game_address=game_address,
            dex_addresses=defi_addresses,
        )
        scenarios = factory.build_all(exchanges)

        legit = LegitMarket(
            kit=kit,
            config=config,
            rng=rng.child("legit"),
            collections=collections,
            traders=traders,
            whales=whales,
            collection_targets=collection_targets,
        )
        distractors = DistractorEngine(
            kit=kit,
            config=config,
            rng=rng.child("distractors"),
            vault_address=defi_addresses.get("position-vault"),
            erc1155_address=erc1155_address,
            noncompliant_addresses=noncompliant_addresses,
            traders=traders,
            )

        hook_context = DayHookContext(
            day=0,
            chain=chain,
            kit=kit,
            marketplaces=marketplaces,
            erc1155_address=erc1155_address,
            rng=rng.child("day-hooks"),
        )
        self._run_timeline(clock, legit, distractors, scenarios, hook_context)

        return World(
            config=config,
            chain=chain,
            node=EthereumNode(chain),
            labels=labels,
            registry=registry,
            oracle=oracle,
            marketplaces=marketplaces,
            exchanges=exchanges,
            collections=collections,
            ground_truth=ground_truth,
            defi_addresses=defi_addresses,
        )

    # -- deployment helpers -----------------------------------------------------------
    @staticmethod
    def _deploy_exchanges(chain: Chain, labels: LabelRegistry) -> List[CentralizedExchange]:
        exchanges = [
            CentralizedExchange("Coinbase", chain, labels, initial_liquidity_eth=4_000_000),
            CentralizedExchange("Binance", chain, labels, initial_liquidity_eth=4_000_000),
            CentralizedExchange("Kraken", chain, labels, initial_liquidity_eth=2_000_000),
        ]
        # A CeFi lender hot wallet, to exercise the CeFi label too.
        CentralizedExchange("NexoCustody", chain, labels, initial_liquidity_eth=500_000, label="cefi")
        return exchanges

    def _deploy_defi_and_distractor_contracts(
        self,
        chain: Chain,
        labels: LabelRegistry,
        registry: ContractRegistry,
        marketplaces,
    ) -> Tuple[Dict[str, str], Optional[str], List[str], Optional[str]]:
        defi_addresses: Dict[str, str] = {}

        looks_pool = ConstantProductPool(marketplaces.reward_tokens["LooksRare"])
        looks_pool_address = chain.deploy_contract(looks_pool)
        looks_pool.seed_liquidity(
            token_amount=int(3_500_000 * 10**18), eth_amount_wei=eth_to_wei(5_000), chain=chain
        )
        registry.register(looks_pool_address, kind="dex", name="LOOKS/ETH Pool")
        labels.add(looks_pool_address, "dex", name="LOOKS/ETH Pool")
        defi_addresses["looks-pool"] = looks_pool_address

        rari_pool = ConstantProductPool(marketplaces.reward_tokens["Rarible"])
        rari_pool_address = chain.deploy_contract(rari_pool)
        rari_pool.seed_liquidity(
            token_amount=int(150_000 * 10**18), eth_amount_wei=eth_to_wei(1_000), chain=chain
        )
        registry.register(rari_pool_address, kind="dex", name="RARI/ETH Pool")
        labels.add(rari_pool_address, "dex", name="RARI/ETH Pool")
        defi_addresses["rari-pool"] = rari_pool_address

        lender = FlashLoanProvider()
        lender_address = chain.deploy_contract(lender)
        lender.seed_liquidity(eth_to_wei(80_000), chain)
        registry.register(lender_address, kind="lending", name="FlashLender")
        labels.add(lender_address, "lending", name="FlashLender")
        defi_addresses["flash-lender"] = lender_address

        position_collection = ERC721Collection(
            "DEX LP Positions", "DEX-POS", creation_timestamp=SIMULATION_EPOCH
        )
        position_collection_address = chain.deploy_contract(position_collection)
        registry.register(position_collection_address, kind="erc721", name="DEX LP Positions")
        vault = PositionNFTVault(position_collection)
        vault_address = chain.deploy_contract(vault)
        registry.register(vault_address, kind="defi", name="DEX Position Vault")
        labels.add(vault_address, "defi", name="DEX Position Vault")
        defi_addresses["position-vault"] = vault_address
        defi_addresses["position-collection"] = position_collection_address

        erc1155 = ERC1155Collection("MultiToken Art")
        erc1155_address = chain.deploy_contract(erc1155)
        registry.register(erc1155_address, kind="erc1155", name="MultiToken Art")

        noncompliant_addresses: List[str] = []
        for index in range(self.config.noncompliant_contracts):
            contract = NonCompliantNFTContract(
                f"Legacy Token {index}", broken_erc165=(index % 2 == 1)
            )
            address = chain.deploy_contract(contract)
            registry.register(address, kind="noncompliant-nft", name=contract.collection_name)
            noncompliant_addresses.append(address)

        game = NFTStakingGame("ChainQuest")
        game_address = chain.deploy_contract(game)
        registry.register(game_address, kind="defi", name="ChainQuest Staking")

        otc_desk = OTCSwapDesk()
        otc_address = chain.deploy_contract(otc_desk)
        registry.register(otc_address, kind="other", name="OTC Swap Desk")
        defi_addresses["otc-desk"] = otc_address

        return defi_addresses, erc1155_address, noncompliant_addresses, game_address

    def _deploy_collections(
        self,
        chain: Chain,
        registry: ContractRegistry,
        clock: TimeAllocator,
        rng: DeterministicRNG,
    ) -> Tuple[List[DeployedCollection], Dict[str, ERC721Collection], Dict[str, int]]:
        config = self.config
        collections: List[DeployedCollection] = []
        collections_map: Dict[str, ERC721Collection] = {}
        targets: Dict[str, int] = {}
        latest_creation_day = max(int(config.duration_days * 0.75), 1)

        def deploy(name: str, symbol: str, creation_day: int, wash_target: bool) -> None:
            contract = ERC721Collection(
                name, symbol, creation_timestamp=clock.day_start(creation_day)
            )
            address = chain.deploy_contract(contract)
            registry.register(
                address,
                kind="erc721",
                name=name,
                creation_timestamp=clock.day_start(creation_day),
            )
            collections.append(
                DeployedCollection(
                    name=name,
                    address=address,
                    contract=contract,
                    creation_day=creation_day,
                    is_wash_target=wash_target,
                )
            )
            collections_map[address] = contract
            targets[address] = rng.randint(*config.nfts_per_collection)

        for index in range(config.legit_collections):
            creation_day = rng.randint(0, latest_creation_day)
            deploy(f"Collection {index:03d}", f"C{index:03d}", creation_day, wash_target=False)

        wash_names = list(WASH_TARGET_NAMES)
        for index in range(config.wash_target_collections):
            name = wash_names[index % len(wash_names)]
            if index >= len(wash_names):
                name = f"{name} v{index // len(wash_names) + 1}"
            creation_day = rng.randint(0, latest_creation_day)
            deploy(name, name[:4].upper(), creation_day, wash_target=True)

        return collections, collections_map, targets

    def _fund_traders(
        self, kit: TradingKit, rng: DeterministicRNG
    ) -> Tuple[List[str], List[str]]:
        config = self.config
        traders: List[str] = []
        whales: List[str] = []
        whale_count = max(int(config.legit_traders * config.whale_trader_fraction), 2)
        for index in range(config.legit_traders):
            account = kit.new_account("collector")
            if index < whale_count:
                amount = rng.uniform(*config.whale_funding_range_eth)
                whales.append(account)
            else:
                amount = rng.uniform(*config.trader_funding_range_eth)
            kit.fund_from_exchange(account, amount, day=0)
            traders.append(account)
        return traders, whales

    # -- timeline ----------------------------------------------------------------------
    def _run_timeline(
        self,
        clock: TimeAllocator,
        legit: LegitMarket,
        distractors: DistractorEngine,
        scenarios,
        hook_context: Optional[DayHookContext] = None,
    ) -> None:
        config = self.config
        heap: List[Tuple[int, int, object]] = []
        for sequence, generator in enumerate(scenarios):
            try:
                first_day = next(generator)
            except StopIteration:
                continue
            heapq.heappush(heap, (max(first_day, 0), sequence, generator))

        for day in range(config.duration_days):
            clock.jump_to_day(day)
            if hook_context is not None:
                for hook in self.day_hooks.get(day, ()):
                    hook_context.day = day
                    hook(hook_context)
            legit.run_day(day)
            distractors.run_day(day)
            while heap and heap[0][0] <= day:
                _, sequence, generator = heapq.heappop(heap)
                try:
                    next_day = next(generator)
                except StopIteration:
                    continue
                heapq.heappush(heap, (max(next_day, day), sequence, generator))

        # Let scenarios that still want future days finish on the last day so
        # no planted activity is left half-executed.
        final_day = config.duration_days - 1
        clock.jump_to_day(final_day)
        while heap:
            _, sequence, generator = heapq.heappop(heap)
            try:
                next_day = next(generator)
            except StopIteration:
                continue
            heapq.heappush(heap, (max(next_day, final_day), sequence, generator))


def build_default_world(
    config: Optional[SimulationConfig] = None,
    day_hooks: Iterable[Tuple[int, DayHook]] = (),
) -> World:
    """Build a world from the default (or a provided) configuration."""
    return WorldBuilder(config, day_hooks=day_hooks).build()
