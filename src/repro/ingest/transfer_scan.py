"""Scanning the chain for ERC-721 Transfer events.

The paper's rule: an ERC-721 transfer is a log whose topic 0 is the
``Transfer(address,address,uint256)`` signature (``ddf252ad…``) *and*
that carries four topics (source, recipient and token id are indexed).
ERC-20 transfers share the signature but carry three topics, and
ERC-1155 uses a different signature, so both are excluded by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.chain.events import Log
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.utils.hashing import ERC721_TRANSFER_SIGNATURE


@dataclass
class TransferScanResult:
    """Raw result of the transfer scan, before the compliance filter."""

    #: (transaction, log) pairs with the ERC-721 topic layout.
    matches: List[Tuple[Transaction, Log]] = field(default_factory=list)
    #: Addresses of the contracts that emitted at least one matching log.
    emitting_contracts: Set[str] = field(default_factory=set)
    #: Matches dropped from ``matches`` once their rows became permanent
    #: (the streaming cursor prunes every block that left its rollback
    #: journal), counted per emitting contract so ``event_count`` and
    #: ``events_by_contract`` stay the true scan totals even when the
    #: raw pairs are no longer held.  Always empty for a batch scan.
    pruned_by_contract: Dict[str, int] = field(default_factory=dict)

    @property
    def pruned_count(self) -> int:
        """Number of matches dropped from ``matches``."""
        return sum(self.pruned_by_contract.values())

    @property
    def event_count(self) -> int:
        """Number of ERC-721-shaped Transfer events found."""
        return len(self.matches) + self.pruned_count

    @property
    def contract_count(self) -> int:
        """Number of distinct emitting contracts."""
        return len(self.emitting_contracts)

    def events_by_contract(self) -> Dict[str, int]:
        """Number of matching events per emitting contract."""
        counts = dict(self.pruned_by_contract)
        for _tx, log in self.matches:
            counts[log.address] = counts.get(log.address, 0) + 1
        return counts


def scan_erc721_transfer_logs(
    node: EthereumNode, from_block: int = 0, to_block: int | None = None
) -> TransferScanResult:
    """Collect every log with the ERC-721 Transfer topic layout.

    Mirrors the paper's first collection step, which found 52,871,559
    matching events from 26,737 contracts on the real chain.
    """
    matches = node.get_logs(
        from_block=from_block,
        to_block=to_block,
        topic0=ERC721_TRANSFER_SIGNATURE,
        topic_count=4,
    )
    return TransferScanResult(
        matches=matches,
        emitting_contracts={log.address for _tx, log in matches},
    )


def decode_transfer_log(log: Log) -> tuple[str, str, int]:
    """Decode an ERC-721 Transfer log into (sender, recipient, token_id)."""
    if not log.is_erc721_transfer:
        raise ValueError("log does not have the ERC-721 Transfer topic layout")
    sender = log.topics[1]
    recipient = log.topics[2]
    token_id = int(log.topics[3], 16)
    return sender, recipient, token_id
