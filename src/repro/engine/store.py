"""Columnar transfer storage for the detection engine.

The legacy pipeline materializes a networkx ``MultiDiGraph`` per NFT and
rebuilds every graph from scratch at each refinement stage.  The engine
instead builds one :class:`ColumnarTransferStore` per dataset: accounts
are interned into dense integer ids shared across the whole store, and
each NFT's transfers become flat, parallel arrays (sender ids,
recipient ids, payment flags) sorted once in the same order the
legacy graph builder uses.  Refinement stages then reduce to integer set
operations over these arrays -- no object graphs are ever rebuilt.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from repro.chain.types import NFTKey
from repro.ingest.records import TRANSFER_TIME_ORDER, NFTTransfer


@dataclass
class TokenColumns:
    """The transfers of one NFT as flat, parallel columns.

    ``transfers[i]`` corresponds to ``senders[i]``, ``recipients[i]``
    and ``payment_flags[i]``; sender/recipient entries
    are store-wide interned account ids.  Rows are sorted by
    ``(timestamp, block_number, tx_hash)`` exactly like the legacy
    ``build_transaction_graph``.  Every column is mutable so the live
    store grows and truncates a token in place, in O(rows changed).
    """

    nft: NFTKey
    transfers: List[NFTTransfer]
    senders: array
    recipients: array
    #: 1 where the carrying transaction moved ETH or ERC-20 value.
    payment_flags: bytearray
    #: Distinct account ids appearing in this token's rows.
    account_ids: Set[int]

    @property
    def row_count(self) -> int:
        """Number of transfers of this NFT."""
        return len(self.transfers)

    def touched_by(self, excluded: FrozenSet[int]) -> bool:
        """True if any account of this token is in the excluded id set."""
        if not excluded:
            return False
        if len(self.account_ids) <= len(excluded):
            return not self.account_ids.isdisjoint(excluded)
        return not excluded.isdisjoint(self.account_ids)


class ColumnarTransferStore:
    """Every NFT's transfers in interned, columnar form.

    A batch run builds one per dataset and only reads it.  The live
    cursor (:class:`~repro.stream.cursor.DatasetCursor`) keeps its
    transfers nowhere else: it grows the store tick by tick through
    :meth:`append_token_transfers`, which only ever appends in row
    order, and undoes a reorg by cutting tokens back to their rows up to
    the fork block through :meth:`truncate_token`.  Token insertion
    order matches the dataset's ``transfers_by_nft`` iteration order so
    the engine's candidates line up with the legacy pipeline's candidate
    order.
    """

    def __init__(self) -> None:
        #: id -> account address.
        self.accounts: List[str] = []
        self._ids: Dict[str, int] = {}
        self.tokens: Dict[NFTKey, TokenColumns] = {}
        #: Bumped whenever a token leaves :attr:`tokens` (a rollback
        #: that empties a token goes through :meth:`remove_token`).
        #: Between bumps the token order only grows at its end, so a
        #: reader holding an ordering with the same epoch can extend it
        #: from its old length instead of re-reading every token.
        self.order_epoch = 0
        #: Running total of rows across every token, kept current by
        #: each mutator so :attr:`transfer_count` is O(1).
        self._row_total = 0

    # -- construction ------------------------------------------------------
    def intern(self, address: str) -> int:
        """Return the dense id of an account, creating one if unseen."""
        existing = self._ids.get(address)
        if existing is not None:
            return existing
        new_id = len(self.accounts)
        self._ids[address] = new_id
        self.accounts.append(address)
        return new_id

    def add_token(self, nft: NFTKey, transfers: Sequence[NFTTransfer]) -> TokenColumns:
        """Intern and columnarize the transfers of one NFT new to the store."""
        if nft in self.tokens:
            raise ValueError(
                f"{nft} is already stored; append_token_transfers extends it"
            )
        ordered = sorted(transfers, key=TRANSFER_TIME_ORDER)
        # Comprehensions + array-from-list size every column exactly;
        # this is the hottest loop of the batch store build.
        intern = self.intern
        sender_ids = [intern(transfer.sender) for transfer in ordered]
        recipient_ids = [intern(transfer.recipient) for transfer in ordered]
        token_ids = set(sender_ids)
        token_ids.update(recipient_ids)
        columns = TokenColumns(
            nft=nft,
            transfers=ordered,
            senders=array("q", sender_ids),
            recipients=array("q", recipient_ids),
            payment_flags=bytearray(transfer.has_payment for transfer in ordered),
            # A copy is sized to fit; a set grown id by id can hold a
            # table twice as large.
            account_ids=set(token_ids),
        )
        self.tokens[nft] = columns
        self._row_total += len(ordered)
        return columns

    @classmethod
    def from_transfers(
        cls, transfers_by_nft: Mapping[NFTKey, Sequence[NFTTransfer]]
    ) -> "ColumnarTransferStore":
        """Build a store from a transfers-per-NFT mapping."""
        store = cls()
        for nft, transfers in transfers_by_nft.items():
            store.add_token(nft, transfers)
        return store

    @classmethod
    def from_dataset(cls, dataset) -> "ColumnarTransferStore":
        """Build a store from an :class:`~repro.ingest.dataset.NFTDataset`."""
        return cls.from_transfers(dataset.transfers_by_nft)

    # -- incremental growth ------------------------------------------------
    def append_token_transfers(
        self, nft: NFTKey, transfers: Sequence[NFTTransfer]
    ) -> Optional[TokenColumns]:
        """Append new transfers to one token, extending its columns in place.

        This is the streaming ingest path.  The chain's blocks carry
        non-decreasing timestamps, so new rows always sort at or after
        the token's current tail; rows sorting before it are an input
        error (``ValueError``, the columns untouched), which keeps row
        positions equal to append order -- the tail truncation of
        :meth:`truncate_token` relies on it.  The columns grow in place,
        in O(new rows).  An empty chunk never creates a token (None for
        an unknown ``nft``).
        """
        if not transfers:
            return self.tokens.get(nft)
        columns = self.tokens.get(nft)
        if columns is None:
            return self.add_token(nft, transfers)

        ordered = (
            sorted(transfers, key=TRANSFER_TIME_ORDER)
            if len(transfers) > 1
            else transfers
        )
        first = ordered[0]
        last = columns.transfers[-1] if columns.transfers else first
        # A later timestamp (nearly every append) settles the order
        # without building the sort keys.
        if first.timestamp <= last.timestamp and TRANSFER_TIME_ORDER(
            first
        ) < TRANSFER_TIME_ORDER(last):
            raise ValueError(
                f"transfers of {nft} arrive out of order: the first new row "
                f"sorts before the stored tail"
            )
        # One pass per row with the columns hoisted into locals: a live
        # tick appends a row or two per token, where a comprehension per
        # column costs more than the rows.
        ids = self._ids
        intern = self.intern
        rows = columns.transfers
        senders = columns.senders
        recipients = columns.recipients
        payment_flags = columns.payment_flags
        account_ids = columns.account_ids
        for transfer in ordered:
            sender_id = ids.get(transfer.sender)
            if sender_id is None:
                sender_id = intern(transfer.sender)
            recipient_id = ids.get(transfer.recipient)
            if recipient_id is None:
                recipient_id = intern(transfer.recipient)
            rows.append(transfer)
            senders.append(sender_id)
            recipients.append(recipient_id)
            payment_flags.append(transfer.has_payment)
            account_ids.add(sender_id)
            account_ids.add(recipient_id)
        self._row_total += len(ordered)
        return columns

    # -- rollback ----------------------------------------------------------
    def truncate_token(self, nft: NFTKey, row_count: int) -> int:
        """Drop every row of a token past ``row_count``, in place.

        This is the reorg rollback: streaming appends arrive in row
        order, so the rows rolled-back blocks contributed are exactly a
        token's tail.  The existing
        :class:`TokenColumns` object is mutated (aliases stay live);
        truncating to zero rows removes the token entirely.  Returns the
        number of rows removed.

        Interned accounts are never un-interned: ids are append-only and
        rows simply stop referencing them, which keeps every mask and id
        handed out earlier valid.
        """
        columns = self.tokens[nft]
        if row_count < 0 or row_count > columns.row_count:
            raise ValueError(
                f"cannot truncate {nft} to {row_count} rows "
                f"(has {columns.row_count})"
            )
        removed = columns.row_count - row_count
        if removed == 0:
            return 0
        if row_count == 0:
            self.remove_token(nft)
            return removed
        self._row_total -= removed
        del columns.transfers[row_count:]
        del columns.senders[row_count:]
        del columns.recipients[row_count:]
        del columns.payment_flags[row_count:]
        account_ids = columns.account_ids
        account_ids.clear()
        account_ids.update(columns.senders)
        account_ids.update(columns.recipients)
        return removed

    def remove_token(self, nft: NFTKey) -> None:
        """Forget a token entirely (all of its rows were rolled back)."""
        columns = self.tokens.pop(nft, None)
        if columns is not None:
            self._row_total -= columns.row_count
            self.order_epoch += 1

    # -- queries -----------------------------------------------------------
    @property
    def token_count(self) -> int:
        """Number of NFTs in the store."""
        return len(self.tokens)

    @property
    def account_count(self) -> int:
        """Number of distinct interned accounts."""
        return len(self.accounts)

    @property
    def transfer_count(self) -> int:
        """Total rows across every token (a running count, O(1))."""
        return self._row_total

    def account_id(self, address: str) -> int:
        """The id of an interned account (KeyError if unseen)."""
        return self._ids[address]

    def address_of(self, account_id: int) -> str:
        """The address behind an interned id."""
        return self.accounts[account_id]

    def addresses_of(self, account_ids: Iterable[int]) -> FrozenSet[str]:
        """The addresses behind a set of interned ids."""
        return frozenset(self.accounts[account_id] for account_id in account_ids)

    def ids_matching(self, predicate: Callable[[str], bool]) -> FrozenSet[int]:
        """Ids of every interned account satisfying a predicate.

        This is how refinement turns its account-level exclusion rules
        (service labels, bytecode checks) into integer masks: the
        predicate runs once per distinct account instead of once per
        graph node per stage.
        """
        return frozenset(
            account_id
            for account_id, address in enumerate(self.accounts)
            if predicate(address)
        )

    def nfts(self) -> List[NFTKey]:
        """Token keys in insertion (dataset) order."""
        return list(self.tokens)

    def __iter__(self) -> Iterator[TokenColumns]:
        return iter(self.tokens.values())

    def __len__(self) -> int:
        return len(self.tokens)
