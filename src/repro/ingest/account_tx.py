"""Collecting the standard transactions of accounts involved in transfers.

This is the paper's second pass over the node: "we query our node a
second time to retrieve all the transactions (sent and received) for
accounts that appear as the source or the recipient of a Transfer
event."  Those transactions are what the common-funder, common-exit and
profitability analyses consume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.chain.node import EthereumNode
from repro.chain.transaction import TX_CHAIN_ORDER, Transaction


def collect_account_transactions(
    node: EthereumNode,
    accounts: Iterable[str],
    to_block: Optional[int] = None,
) -> Dict[str, List[Transaction]]:
    """Return, for each account, every transaction it took part in.

    "Took part in" covers being the sender, the top-level recipient, a
    party of an internal ETH transfer, or a party of an ERC-20 transfer
    log -- the same notion of involvement a trace-indexing archive node
    provides.

    ``to_block`` clamps each history to the chain prefix ending at that
    block (inclusive).  A prefix study would otherwise leak the future:
    the archive node happily returns funding or exit transactions that
    have not "happened yet" as of the prefix head, which no causally
    driven consumer (the streaming cursor, a venue watching live) could
    ever have seen.
    """
    collected: Dict[str, List[Transaction]] = {}
    for account in accounts:
        transactions = node.get_transactions_of(account)
        if to_block is not None:
            transactions = [
                tx for tx in transactions if tx.block_number <= to_block
            ]
        collected[account] = sorted(transactions, key=TX_CHAIN_ORDER)
    return collected
