"""The assembled synthetic world."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.chain.chain import Chain
from repro.chain.node import EthereumNode
from repro.contracts.erc721 import ERC721Collection
from repro.contracts.registry import ContractRegistry
from repro.core.profitability.context import MarketContext
from repro.marketplaces.venues import DeployedMarketplaces
from repro.services.exchanges import CentralizedExchange
from repro.services.labels import LabelRegistry
from repro.services.oracle import PriceOracle
from repro.simulation.config import SimulationConfig
from repro.simulation.ground_truth import GroundTruth


@dataclass
class DeployedCollection:
    """One deployed NFT collection and its metadata."""

    name: str
    address: str
    contract: ERC721Collection
    creation_day: int
    is_wash_target: bool = False


@dataclass
class World:
    """Every handle a pipeline run or an analysis needs, in one object."""

    config: SimulationConfig
    chain: Chain
    node: EthereumNode
    labels: LabelRegistry
    registry: ContractRegistry
    oracle: PriceOracle
    marketplaces: DeployedMarketplaces
    exchanges: List[CentralizedExchange]
    collections: List[DeployedCollection]
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    #: Addresses of auxiliary DeFi deployments (pools, vaults, lenders).
    defi_addresses: Dict[str, str] = field(default_factory=dict)

    # -- convenience views -----------------------------------------------------
    @property
    def marketplace_addresses(self) -> Dict[str, str]:
        """Venue name -> marketplace contract address."""
        return self.marketplaces.addresses_by_name

    def is_contract(self, address: str) -> bool:
        """Bytecode check used by the refinement step."""
        return self.chain.state.is_contract(address)

    def collection_creation_timestamps(self) -> Dict[str, int]:
        """Collection contract address -> creation timestamp."""
        return {
            collection.address: collection.contract.creation_timestamp
            for collection in self.collections
        }

    def collection_names(self) -> Dict[str, str]:
        """Collection contract address -> human-readable name."""
        return {collection.address: collection.name for collection in self.collections}

    def market_context(self) -> MarketContext:
        """The metadata bundle the profitability analysis needs."""
        treasuries = {
            name: venue.treasury_address
            for name, venue in self.marketplaces.venues.items()
        }
        symbols = {
            venue_name: token.token_symbol
            for venue_name, token in self.marketplaces.reward_tokens.items()
        }
        return MarketContext(
            marketplace_addresses=self.marketplace_addresses,
            treasury_addresses=treasuries,
            distributor_addresses=dict(self.marketplaces.distributor_addresses),
            reward_token_addresses=dict(self.marketplaces.reward_token_addresses),
            reward_token_symbols=symbols,
            oracle=self.oracle,
        )
