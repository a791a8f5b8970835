"""Transactions and receipts."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from repro.chain.events import Log
from repro.chain.types import Call, ValueTransfer


@dataclass(frozen=True, slots=True)
class Receipt:
    """Execution result of a transaction.

    ``status`` follows the post-Byzantium convention: 1 for success, 0
    for a reverted execution (the transaction is still included and gas
    is still charged).
    """

    transaction_hash: str
    status: int
    gas_used: int
    logs: tuple[Log, ...] = ()
    value_transfers: tuple[ValueTransfer, ...] = ()

    @property
    def succeeded(self) -> bool:
        """True if the transaction did not revert."""
        return self.status == 1


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transaction as recorded on chain.

    The fields are the ones the paper's data collection stores: hash,
    block number, sender, recipient, ETH value, gas data and -- through
    the attached receipt -- the emitted logs and internal transfers.
    """

    hash: str
    block_number: int
    timestamp: int
    sender: str
    to: Optional[str]
    value_wei: int
    gas_used: int
    gas_price_wei: int
    call: Optional[Call] = None
    receipt: Optional[Receipt] = None
    nonce: int = 0

    @property
    def fee_wei(self) -> int:
        """Total gas fee paid by the sender, in wei."""
        return self.gas_used * self.gas_price_wei

    @property
    def succeeded(self) -> bool:
        """True if the attached receipt reports success."""
        return self.receipt is not None and self.receipt.succeeded

    @property
    def logs(self) -> Sequence[Log]:
        """Logs emitted by this transaction (empty if it reverted)."""
        return self.receipt.logs if self.receipt else ()

    @property
    def value_transfers(self) -> Sequence[ValueTransfer]:
        """ETH movements performed while executing this transaction.

        Includes the top-level value transfer and any internal transfers
        made by contract code (e.g. a marketplace paying out a seller).
        """
        return self.receipt.value_transfers if self.receipt else ()

    @property
    def interacted_contract(self) -> Optional[str]:
        """Address of the contract this transaction called, if any."""
        return self.to if self.call is not None else None


#: Sort key for chain order: block number, then transaction hash.  Every
#: per-account history is kept in this order.
TX_CHAIN_ORDER = attrgetter("block_number", "hash")
