"""Per-account transaction index.

The paper's data collection queries the node "a second time to retrieve
all the transactions (sent and received) for accounts that appear as the
source or the recipient of a Transfer event".  A real archive node needs
an external index for that; here the chain maintains one incrementally.
An account is considered involved in a transaction if it is the sender,
the top-level recipient, a party of any internal ETH transfer, or a
party of any ERC-20 transfer log.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set

from repro.chain.transaction import Transaction


def transaction_parties(tx: Transaction) -> Set[str]:
    """The accounts involved in a transaction, per the indexing rule.

    Shared by the chain's own :class:`AccountIndex` and the streaming
    ingest cursor, which attributes freshly mined transactions to the
    accounts it already follows -- both must agree on "involved".
    """
    parties: Set[str] = {tx.sender}
    if tx.to:
        parties.add(tx.to)
    receipt = tx.receipt
    if receipt is None:
        return parties
    for transfer in receipt.value_transfers:
        parties.add(transfer.sender)
        parties.add(transfer.recipient)
    for log in receipt.logs:
        if log.is_erc20_transfer or log.is_erc721_transfer:
            parties.add(log.topics[1])
            parties.add(log.topics[2])
    return parties


class AccountIndex:
    """Maps account addresses to the transactions that involve them."""

    def __init__(self) -> None:
        self._by_account: Dict[str, List[Transaction]] = defaultdict(list)
        self._seen: Dict[str, Set[str]] = defaultdict(set)

    def record(self, tx: Transaction) -> None:
        """Index one freshly executed transaction."""
        for address in transaction_parties(tx):
            if tx.hash not in self._seen[address]:
                self._seen[address].add(tx.hash)
                self._by_account[address].append(tx)

    def remove(self, tx: Transaction) -> None:
        """Unindex a transaction orphaned by a chain reorganisation.

        Reorgs drop blocks from the tail, so the removed entries sit at
        the end of each per-account list; the search walks backwards.
        Empty buckets are deleted so ``accounts()`` and membership tests
        never report an address whose every transaction was orphaned.
        """
        for address in transaction_parties(tx):
            seen = self._seen.get(address)
            if seen is None or tx.hash not in seen:
                continue
            seen.discard(tx.hash)
            bucket = self._by_account.get(address, [])
            for position in range(len(bucket) - 1, -1, -1):
                if bucket[position].hash == tx.hash:
                    del bucket[position]
                    break
            if not bucket:
                self._by_account.pop(address, None)
                self._seen.pop(address, None)

    def transactions_of(self, address: str) -> List[Transaction]:
        """All transactions involving ``address``, in chain order."""
        return list(self._by_account.get(address, ()))

    def accounts(self) -> Iterable[str]:
        """Every indexed address."""
        return self._by_account.keys()

    def __contains__(self, address: str) -> bool:
        return address in self._by_account
