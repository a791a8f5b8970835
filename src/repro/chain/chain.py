"""The ledger itself: transaction execution and block production."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chain.block import Block
from repro.chain.context import TxContext
from repro.chain.errors import (
    ContractExecutionError,
    InsufficientBalanceError,
    InvalidReorgError,
    InvalidTimestampError,
)
from repro.chain.gas import GasPriceOracle, GasSchedule
from repro.chain.index import AccountIndex
from repro.chain.state import WorldState
from repro.chain.transaction import Receipt, Transaction
from repro.chain.types import Call, ValueTransfer
from repro.utils.hashing import address_from_parts, keccak_hex, new_tx_hash
from repro.utils.timeutil import SIMULATION_EPOCH

#: Address credited with gas fees (a stand-in for miners/validators).
COINBASE_ADDRESS = "0x" + "c0ffee" * 6 + "c0ff"

#: Parent hash of block 0, by convention all zeroes (like mainnet).
GENESIS_PARENT_HASH = "0x" + "0" * 64


class Chain:
    """An append-only ledger executing transactions into blocks.

    One block is produced per distinct transaction timestamp; timestamps
    must be non-decreasing.  Every state effect of a transaction --
    including internal ETH movements made by contract code -- is recorded
    on its receipt so downstream consumers see the same observables a
    real node exposes through receipts and traces.
    """

    def __init__(
        self,
        gas_schedule: Optional[GasSchedule] = None,
        gas_price_oracle: Optional[GasPriceOracle] = None,
        genesis_timestamp: int = SIMULATION_EPOCH,
    ) -> None:
        self.state = WorldState()
        self.gas_schedule = gas_schedule or GasSchedule()
        self.gas_price_oracle = gas_price_oracle or GasPriceOracle()
        self.genesis_timestamp = genesis_timestamp
        self.blocks: List[Block] = []
        self.account_index = AccountIndex()
        self._tx_by_hash: Dict[str, Transaction] = {}
        self._contract_serial = 0
        #: Chained hashes of *sealed* blocks (every block but the head,
        #: whose content may still grow), filled lazily by block_hash.
        self._sealed_hashes: List[str] = []

    # -- chain head ---------------------------------------------------------
    @property
    def head_block_number(self) -> int:
        """Number of the most recent block (-1 before any transaction)."""
        return self.blocks[-1].number if self.blocks else -1

    @property
    def head_timestamp(self) -> int:
        """Timestamp of the most recent block (genesis time before any block)."""
        return self.blocks[-1].timestamp if self.blocks else self.genesis_timestamp

    def transaction_count(self) -> int:
        """Total number of transactions on the chain."""
        return len(self._tx_by_hash)

    # -- block identity ------------------------------------------------------
    def block_hash(self, number: int) -> str:
        """The chained hash of a block.

        The hash commits to the block's number, timestamp, transaction
        hashes *and its parent's hash*, so two chains agreeing on the
        hash of block ``n`` agree on every block up to ``n`` -- the
        property a follower relies on to detect reorganisations from a
        single tail comparison.  Hashes of sealed blocks (everything
        below the head) are cached; the head block may still accept
        transactions, so its hash is recomputed on each call.
        """
        if number < 0 or number >= len(self.blocks):
            raise IndexError(f"block {number} does not exist")
        sealed_limit = len(self.blocks) - 1
        while len(self._sealed_hashes) < min(number + 1, sealed_limit):
            self._sealed_hashes.append(self._compute_block_hash(len(self._sealed_hashes)))
        if number < sealed_limit:
            return self._sealed_hashes[number]
        return self._compute_block_hash(number)

    def block_hashes(self, from_block: int, to_block: int) -> List[str]:
        """The chained hashes of blocks ``from_block``..``to_block``
        (inclusive), as :meth:`block_hash` returns them one at a time,
        read off the sealed cache in one slice."""
        if from_block > to_block:
            return []
        if from_block < 0:
            raise IndexError(f"block {from_block} does not exist")
        last = self.block_hash(to_block)  # fills the sealed cache below it
        return self._sealed_hashes[from_block:to_block] + [last]

    def parent_hash(self, number: int) -> str:
        """The hash of a block's parent (all zeroes for block 0)."""
        if number <= 0:
            return GENESIS_PARENT_HASH
        return self.block_hash(number - 1)

    def _compute_block_hash(self, number: int) -> str:
        block = self.blocks[number]
        parent = (
            self._sealed_hashes[number - 1] if number > 0 else GENESIS_PARENT_HASH
        )
        return keccak_hex(
            "block", block.number, block.timestamp, parent, tuple(block.transaction_hashes)
        )

    # -- reorganisation ------------------------------------------------------
    def reorg(
        self, depth: int, replacement_blocks: Optional[Sequence[Block]] = None
    ) -> List[Block]:
        """Replace the last ``depth`` blocks with an alternative branch.

        The orphaned blocks' transactions are removed from the hash and
        account indexes, the replacement blocks (which may be fewer than
        ``depth``, shrinking the head) are appended and indexed, and the
        orphaned blocks are returned.  Replacement blocks must continue
        the fork point: consecutive numbers, non-decreasing timestamps,
        and every carried transaction stamped with its block's position.

        The world *state* (balances, token ownership, contract storage)
        is deliberately left untouched: this substrate executes
        transactions eagerly and keeps their receipts, so a reorg here
        revises the observable ledger -- blocks, transactions, logs,
        the account index, block hashes -- which is everything the data
        collection layer reads.  Re-executing an alternative history is
        out of scope; followers care about what the canonical chain
        *says happened*, and that is what this primitive rewrites.
        """
        if depth < 1:
            raise InvalidReorgError(f"depth must be >= 1, got {depth}")
        if depth > len(self.blocks):
            raise InvalidReorgError(
                f"depth {depth} exceeds chain length {len(self.blocks)}"
            )
        replacement = list(replacement_blocks or ())
        fork_number = len(self.blocks) - depth - 1
        fork_timestamp = (
            self.blocks[fork_number].timestamp
            if fork_number >= 0
            else self.genesis_timestamp
        )
        expected_number = fork_number + 1
        last_timestamp = fork_timestamp
        for block in replacement:
            if block.number != expected_number:
                raise InvalidReorgError(
                    f"replacement block {block.number} breaks numbering "
                    f"(expected {expected_number})"
                )
            if block.timestamp < last_timestamp:
                raise InvalidReorgError(
                    f"replacement block {block.number} timestamp {block.timestamp} "
                    f"precedes its parent's {last_timestamp}"
                )
            for tx in block.transactions:
                if tx.block_number != block.number or tx.timestamp != block.timestamp:
                    raise InvalidReorgError(
                        f"transaction {tx.hash} is stamped for block "
                        f"{tx.block_number}@{tx.timestamp} but carried by block "
                        f"{block.number}@{block.timestamp}"
                    )
            expected_number += 1
            last_timestamp = block.timestamp

        orphaned = self.blocks[fork_number + 1 :]
        for block in orphaned:
            for tx in block.transactions:
                self._tx_by_hash.pop(tx.hash, None)
                self.account_index.remove(tx)
        del self.blocks[fork_number + 1 :]
        # With no replacement the fork block itself becomes the open head
        # again and may grow, so its cached sealed hash must go too.
        cached = fork_number + 1 if replacement else max(fork_number, 0)
        del self._sealed_hashes[cached:]
        for block in replacement:
            self.blocks.append(block)
            for tx in block.transactions:
                self._tx_by_hash[tx.hash] = tx
                self.account_index.record(tx)
        return orphaned

    # -- funding and deployment ----------------------------------------------
    def faucet(self, address: str, amount_wei: int) -> None:
        """Credit an address with freshly minted ETH.

        This models value entering the simulated world from outside
        (genesis allocations, mining income, fiat on-ramps feeding
        exchange hot wallets); ordinary users should instead be funded
        on-chain by the simulation so funding relationships stay visible.
        """
        self.state.mint_ether(address, amount_wei)

    def deploy_contract(self, contract: object, address: Optional[str] = None) -> str:
        """Register a contract object on the chain and return its address."""
        if address is None:
            self._contract_serial += 1
            address = address_from_parts("contract", self._contract_serial)
        self.state.deploy(address, contract)
        bind = getattr(contract, "bind", None)
        if callable(bind):
            bind(address, self)
        return address

    # -- execution ------------------------------------------------------------
    def transact(
        self,
        sender: str,
        to: Optional[str] = None,
        value_wei: int = 0,
        call: Optional[Call] = None,
        timestamp: Optional[int] = None,
        gas_price_wei: Optional[int] = None,
    ) -> Transaction:
        """Execute one transaction and append it to the chain.

        Parameters mirror a raw Ethereum transaction: ``sender`` signs and
        pays, ``to`` receives value or hosts the called contract, ``call``
        is the decoded input data.  Raises
        :class:`InsufficientBalanceError` if the sender cannot cover value
        plus gas, and :class:`ContractExecutionError` if the target
        contract reverts (the reverted transaction is still recorded, with
        ``status=0`` and its gas charged).
        """
        timestamp = self.head_timestamp if timestamp is None else timestamp
        if timestamp < self.head_timestamp:
            raise InvalidTimestampError(timestamp, self.head_timestamp)

        block = self._block_for(timestamp)
        gas_used = (
            self.gas_schedule.for_function(call.function)
            if call is not None
            else self.gas_schedule.plain_transfer
        )
        if gas_price_wei is None:
            gas_price_wei = self.gas_price_oracle.price_wei(timestamp)
        fee_wei = gas_used * gas_price_wei

        sender_account = self.state.get_or_create(sender)
        if sender_account.balance_wei < value_wei + fee_wei:
            raise InsufficientBalanceError(
                sender, value_wei + fee_wei, sender_account.balance_wei
            )

        # Gas is charged up front and is not refunded on revert.
        self.state.transfer(sender, COINBASE_ADDRESS, fee_wei)
        sender_account.nonce += 1

        tx_hash = new_tx_hash(block.number, len(block.transactions), sender, to, value_wei)
        context = TxContext(
            chain=self,
            origin=sender,
            timestamp=timestamp,
            block_number=block.number,
            value_wei=value_wei,
        )

        status = 1
        revert: Optional[ContractExecutionError] = None
        target_contract = self.state.contract_at(to) if to else None
        if target_contract is not None and call is not None:
            if value_wei:
                self.state.transfer(sender, to, value_wei)
                context.record_external_transfer(ValueTransfer(sender, to, value_wei))
            context.enter_contract(to)
            try:
                target_contract.handle(context, call)
            except ContractExecutionError as error:
                status = 0
                revert = error
        elif to is not None:
            if value_wei:
                self.state.transfer(sender, to, value_wei)
                context.record_external_transfer(ValueTransfer(sender, to, value_wei))
        else:
            # A transaction with no recipient is a no-op placeholder here
            # (real chains use it for contract creation, which this
            # substrate performs through deploy_contract instead).
            pass

        receipt = Receipt(
            transaction_hash=tx_hash,
            status=status,
            gas_used=gas_used,
            logs=context.logs if status == 1 else (),
            value_transfers=context.value_transfers if status == 1 else (),
        )
        tx = Transaction(
            hash=tx_hash,
            block_number=block.number,
            timestamp=timestamp,
            sender=sender,
            to=to,
            value_wei=value_wei,
            gas_used=gas_used,
            gas_price_wei=gas_price_wei,
            call=call,
            receipt=receipt,
            nonce=sender_account.nonce,
        )
        block.transactions.append(tx)
        self._tx_by_hash[tx_hash] = tx
        self.account_index.record(tx)

        if revert is not None:
            raise revert
        return tx

    # -- lookups ----------------------------------------------------------------
    def transaction(self, tx_hash: str) -> Optional[Transaction]:
        """Return a transaction by hash, or None."""
        return self._tx_by_hash.get(tx_hash)

    def _block_for(self, timestamp: int) -> Block:
        """Return the block accepting transactions at ``timestamp``."""
        if self.blocks and self.blocks[-1].timestamp == timestamp:
            return self.blocks[-1]
        block = Block(number=self.head_block_number + 1, timestamp=timestamp)
        self.blocks.append(block)
        return block
