"""A web3.py-like read facade over a :class:`~repro.chain.chain.Chain`.

The paper runs a local Geth archive node and queries it with web3.py.
:class:`EthereumNode` exposes the handful of read endpoints that data
collection needs -- blocks, transactions, receipts, logs filtered by
topic, bytecode, balances and read-only contract calls -- with the same
shape of answers.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.chain.block import Block
from repro.chain.chain import Chain
from repro.chain.events import Log
from repro.chain.transaction import Receipt, Transaction


class EthereumNode:
    """Read-only access to an in-memory chain."""

    def __init__(self, chain: Chain) -> None:
        self.chain = chain

    # -- blocks -----------------------------------------------------------
    @property
    def block_number(self) -> int:
        """Number of the latest block."""
        return self.chain.head_block_number

    def get_block(self, number: int) -> Block:
        """Return a block by number (raises IndexError if out of range)."""
        if number < 0 or number > self.chain.head_block_number:
            raise IndexError(f"block {number} does not exist")
        return self.chain.blocks[number]

    def get_block_hash(self, number: int) -> str:
        """Return the chained hash of a block.

        The hash commits to the whole prefix (each block's hash includes
        its parent's), so a follower that remembers the hash of its tail
        block can detect any reorganisation of already-processed history
        with a single comparison.
        """
        return self.chain.block_hash(number)

    def get_block_hashes(self, from_block: int, to_block: int) -> List[str]:
        """The chained hashes of an inclusive block range, oldest first."""
        return self.chain.block_hashes(from_block, to_block)

    def get_parent_hash(self, number: int) -> str:
        """Return the parent hash of a block (all zeroes for block 0)."""
        return self.chain.parent_hash(number)

    def iter_blocks(
        self, from_block: int = 0, to_block: Optional[int] = None
    ) -> Iterator[Block]:
        """Iterate blocks in the inclusive range [from_block, to_block].

        The range is clamped to the blocks that actually exist, matching
        how a node answers a filter over not-yet-mined block numbers.
        """
        head = self.chain.head_block_number
        stop = head if to_block is None else min(to_block, head)
        for number in range(max(from_block, 0), stop + 1):
            yield self.chain.blocks[number]

    # -- transactions ------------------------------------------------------
    def get_transaction(self, tx_hash: str) -> Optional[Transaction]:
        """Return a transaction by hash."""
        return self.chain.transaction(tx_hash)

    def get_transaction_receipt(self, tx_hash: str) -> Optional[Receipt]:
        """Return the receipt of a transaction by hash."""
        tx = self.chain.transaction(tx_hash)
        return tx.receipt if tx else None

    def get_transactions_of(self, address: str) -> List[Transaction]:
        """All transactions an address took part in (sent, received or internal)."""
        return self.chain.account_index.transactions_of(address)

    # -- logs ---------------------------------------------------------------
    def get_logs(
        self,
        from_block: int = 0,
        to_block: Optional[int] = None,
        address: Optional[str] = None,
        topic0: Optional[str] = None,
        topic_count: Optional[int] = None,
    ) -> List[tuple[Transaction, Log]]:
        """Return (transaction, log) pairs matching the filter.

        ``topic0`` filters on the event signature and ``topic_count`` on
        the number of topics -- together they express the paper's ERC-721
        transfer filter.
        """
        matches: List[tuple[Transaction, Log]] = []
        for block in self.iter_blocks(from_block, to_block):
            for tx in block.transactions:
                for log in tx.receipt.logs:
                    if address is not None and log.address != address:
                        continue
                    topics = log.topics
                    if topic0 is not None and (not topics or topics[0] != topic0):
                        continue
                    if topic_count is not None and len(topics) != topic_count:
                        continue
                    matches.append((tx, log))
        return matches

    # -- accounts ------------------------------------------------------------
    def get_balance(self, address: str) -> int:
        """ETH balance of an address, in wei."""
        return self.chain.state.balance_of(address)

    def get_code(self, address: str) -> bytes:
        """Bytecode at an address (empty for EOAs)."""
        return self.chain.state.code_at(address)

    def is_contract(self, address: str) -> bool:
        """True if the address holds bytecode."""
        return self.chain.state.is_contract(address)

    # -- read-only contract calls ----------------------------------------------
    def call(self, address: str, function: str, **args: Any) -> Any:
        """Perform a read-only ("eth_call") contract invocation.

        Used by the ingest layer for the ERC-165 ``supportsInterface``
        compliance check.  Raises ``ValueError`` if the address is not a
        contract or does not expose the requested view.
        """
        contract = self.chain.state.contract_at(address)
        if contract is None:
            raise ValueError(f"{address} is not a contract")
        view = getattr(contract, "view", None)
        if not callable(view):
            raise ValueError(f"{address} does not expose view calls")
        return view(function, args)
