"""Legitimate (non-wash) trading activity.

Legitimate traders mint NFTs and sell them forward to new owners on the
six venues.  Sales never route an NFT back to a previous owner, so
legitimate activity does not create strongly connected components --
which is exactly the property the candidate search exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.errors import ChainError
from repro.simulation.actors import TradingKit
from repro.simulation.config import SimulationConfig
from repro.simulation.world import DeployedCollection
from repro.utils.rng import DeterministicRNG


@dataclass
class LegitInventory:
    """Ownership bookkeeping for legitimately held NFTs."""

    #: (collection address, token id) -> current owner.
    owners: Dict[Tuple[str, int], str] = field(default_factory=dict)
    #: (collection address, token id) -> every past owner.
    history: Dict[Tuple[str, int], Set[str]] = field(default_factory=dict)
    #: Collection address -> number of NFTs minted so far.
    minted: Dict[str, int] = field(default_factory=dict)
    #: Every key of ``owners`` in insertion order, kept beside the dict so
    #: a sale draws from it without copying the keys.
    keys: List[Tuple[str, int]] = field(default_factory=list)

    def add(self, collection: str, token_id: int, owner: str) -> None:
        """Register a freshly minted NFT."""
        key = (collection, token_id)
        if key not in self.owners:
            self.keys.append(key)
        self.owners[key] = owner
        self.history.setdefault(key, set()).add(owner)
        self.minted[collection] = self.minted.get(collection, 0) + 1

    def move(self, collection: str, token_id: int, new_owner: str) -> None:
        """Register a sale."""
        key = (collection, token_id)
        if key not in self.owners:
            self.keys.append(key)
        self.owners[key] = new_owner
        self.history.setdefault(key, set()).add(new_owner)

    def sellable(self) -> List[Tuple[str, int]]:
        """Every NFT currently available for a legitimate sale.

        The list is the inventory's own, in the order ``owners`` holds its
        keys; callers must not change it.
        """
        return self.keys


class LegitMarket:
    """Drives day-by-day legitimate minting and trading."""

    def __init__(
        self,
        kit: TradingKit,
        config: SimulationConfig,
        rng: DeterministicRNG,
        collections: List[DeployedCollection],
        traders: List[str],
        whales: List[str],
        collection_targets: Dict[str, int],
    ) -> None:
        self.kit = kit
        self.config = config
        self.rng = rng
        self.collections = collections
        self.traders = traders
        self.whales = whales
        self.collection_targets = collection_targets
        self.inventory = LegitInventory()
        self.sales_executed = 0
        self.sales_skipped = 0

    # -- daily driver -----------------------------------------------------------
    def run_day(self, day: int) -> None:
        """Perform the day's legitimate mints and sales."""
        self._mint_new_supply(day)
        sales_today = max(
            0, self.config.legit_sales_per_day + self.rng.randint(-3, 3)
        )
        for _ in range(sales_today):
            self._try_sale(day)

    # -- internals -----------------------------------------------------------------
    def _active_collections(self, day: int) -> List[DeployedCollection]:
        return [
            collection
            for collection in self.collections
            if collection.creation_day <= day
            and self.inventory.minted.get(collection.address, 0)
            < self.collection_targets.get(collection.address, 0)
        ]

    def _mint_new_supply(self, day: int) -> None:
        for collection in self._active_collections(day):
            for _ in range(self.config.mints_per_collection_per_day):
                minted = self.inventory.minted.get(collection.address, 0)
                if minted >= self.collection_targets.get(collection.address, 0):
                    break
                minter = self.rng.choice(self.traders)
                try:
                    token_id = self.kit.mint(collection.address, minter, day)
                except ChainError:
                    continue
                self.inventory.add(collection.address, token_id, minter)

    def _pick_venue(self) -> str:
        venues = list(self.config.venue_popularity)
        weights = [self.config.venue_popularity[name] for name in venues]
        return self.rng.weighted_choice(venues, weights)

    def _pick_price_eth(self, venue: str) -> float:
        low, high = self.config.legit_price_range_eth
        base = self.rng.lognormal(mean=0.0, sigma=1.1)
        price = min(max(base * low * 12, low), high)
        return price * self.config.venue_price_multiplier.get(venue, 1.0)

    def _try_sale(self, day: int) -> None:
        sellable = self.inventory.sellable()
        if not sellable:
            self.sales_skipped += 1
            return
        collection_address, token_id = self.rng.choice(sellable)
        seller = self.inventory.owners[(collection_address, token_id)]
        venue = self._pick_venue()
        price = self._pick_price_eth(venue)

        buyer_pool = self.whales if price > 50 and self.whales else self.traders
        buyer = self._pick_buyer(buyer_pool, collection_address, token_id, seller, price)
        if buyer is None:
            self.sales_skipped += 1
            return
        try:
            self.kit.marketplace_sale(
                venue, collection_address, token_id, seller, buyer, price, day
            )
        except ChainError:
            self.sales_skipped += 1
            return
        self.inventory.move(collection_address, token_id, buyer)
        self.sales_executed += 1

    def _pick_buyer(
        self,
        pool: List[str],
        collection_address: str,
        token_id: int,
        seller: str,
        price_eth: float,
    ) -> Optional[str]:
        """A buyer who can afford the price and never owned this NFT."""
        past_owners = self.inventory.history.get((collection_address, token_id), set())
        for _ in range(6):
            candidate = self.rng.choice(pool)
            if candidate == seller or candidate in past_owners:
                continue
            if self.kit.balance_eth(candidate) >= price_eth + 0.5:
                return candidate
        return None
