"""Record types produced by the ingest layer.

Both records are tuple records (``typing.NamedTuple``), like
:class:`~repro.chain.types.NFTKey`: one is built per decoded log, so
construction, hashing and equality run at tuple speed.  Encode them
field by field; ``json.dumps`` would write one as a bare list.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Optional, Tuple

from repro.chain.types import NFTKey, NULL_ADDRESS


class ERC20Payment(NamedTuple):
    """An ERC-20 transfer observed in the same transaction as an NFT move.

    The zero-volume filter treats a component as paid if either ETH or
    ERC-20 tokens moved, so these are kept alongside the ETH value.
    """

    token: str
    sender: str
    recipient: str
    amount: int


class NFTTransfer(NamedTuple):
    """One ERC-721 transfer, enriched with its transaction context.

    This is the unit of the paper's dataset: for every transfer event the
    authors store the source, the recipient and the transaction hash, and
    use the hash to pull the block number, gas fee and value moved.  The
    graph layer annotates edges with the tuple (t, h, s, p) taken from
    these fields.
    """

    nft: NFTKey
    sender: str
    recipient: str
    tx_hash: str
    block_number: int
    timestamp: int
    #: ETH attached to the transaction carrying the transfer (the "amount
    #: paid" of the paper's edge annotation).
    price_wei: int
    #: Gas fee paid by the transaction's sender.
    gas_fee_wei: int
    #: The contract the transaction interacted with (``s`` in the paper's
    #: edge annotation); None for plain transfers.
    interacted_contract: Optional[str] = None
    #: Venue name if the interacted contract is a known marketplace.
    marketplace: Optional[str] = None
    #: Account that signed the transaction (used for self-trade detection
    #: and for charging gas in profitability analysis).
    tx_sender: str = ""
    #: ERC-20 transfers that happened in the same transaction.
    erc20_payments: Tuple[ERC20Payment, ...] = ()

    @property
    def is_mint(self) -> bool:
        """True if the transfer originates from the null address."""
        return self.sender == NULL_ADDRESS

    @property
    def has_payment(self) -> bool:
        """True if any ETH or ERC-20 value moved in the carrying transaction."""
        if self.price_wei > 0:
            return True
        return any(payment.amount > 0 for payment in self.erc20_payments)

    @property
    def is_self_transfer(self) -> bool:
        """True if source and recipient are the same account."""
        return self.sender == self.recipient


#: Sort key for chain order of transfers: block number, then transaction
#: hash -- the order of every per-NFT transfer list.
TRANSFER_CHAIN_ORDER = attrgetter("block_number", "tx_hash")

#: Sort key for the rows of one NFT's transaction graph and columnar
#: store: timestamp first, then chain order.
TRANSFER_TIME_ORDER = attrgetter("timestamp", "block_number", "tx_hash")
