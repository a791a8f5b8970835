"""Market metadata the profitability analysis needs.

The paper resolves these from Etherscan and the marketplaces' public
documentation: the addresses of the venue contracts, their fee
treasuries, the reward-token distributor contracts and the reward tokens
themselves, plus a USD price source.  The world builder produces one
:class:`MarketContext` per simulated world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.services.oracle import PriceOracle


@dataclass
class MarketContext:
    """Addresses and prices the gain/loss analysis relies on."""

    #: Venue name -> marketplace contract address.
    marketplace_addresses: Mapping[str, str]
    #: Venue name -> fee treasury address.
    treasury_addresses: Mapping[str, str]
    #: Venue name -> reward distributor contract address (reward venues only).
    distributor_addresses: Mapping[str, str] = field(default_factory=dict)
    #: Venue name -> reward token contract address (reward venues only).
    reward_token_addresses: Mapping[str, str] = field(default_factory=dict)
    #: Venue name -> reward token symbol (for USD pricing).
    reward_token_symbols: Mapping[str, str] = field(default_factory=dict)
    #: USD price source.
    oracle: PriceOracle = field(default_factory=PriceOracle)

    def reward_venues(self) -> list[str]:
        """Venues that run a token reward program."""
        return sorted(self.distributor_addresses)

    def non_reward_venues(self) -> list[str]:
        """Venues without a reward program (resale analysis targets)."""
        return sorted(
            name
            for name in self.marketplace_addresses
            if name not in self.distributor_addresses
        )

    def all_treasuries(self) -> set[str]:
        """Every known treasury address."""
        return set(self.treasury_addresses.values())
