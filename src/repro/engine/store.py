"""Columnar transfer storage for the detection engine.

The legacy pipeline materializes a networkx ``MultiDiGraph`` per NFT and
rebuilds every graph from scratch at each refinement stage.  The engine
instead builds one :class:`ColumnarTransferStore` per dataset: accounts
are interned into dense integer ids shared across the whole store, and
each NFT's transfers become flat, parallel arrays (timestamps, sender
ids, recipient ids, payment flags) sorted once in the same order the
legacy graph builder uses.  Refinement stages then reduce to integer set
operations over these arrays -- no object graphs are ever rebuilt.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.types import NFTKey
from repro.ingest.records import NFTTransfer


def _row_sort_key(transfer: NFTTransfer) -> Tuple[int, int, str]:
    """The row order shared by batch construction and streaming appends."""
    return (transfer.timestamp, transfer.block_number, transfer.tx_hash)


@dataclass
class TokenColumns:
    """The transfers of one NFT as flat, parallel columns.

    ``transfers[i]`` corresponds to ``timestamps[i]``, ``senders[i]``,
    ``recipients[i]`` and ``payment_flags[i]``; sender/recipient entries
    are store-wide interned account ids.  Rows are sorted by
    ``(timestamp, block_number, tx_hash)`` exactly like the legacy
    ``build_transaction_graph``.
    """

    nft: NFTKey
    transfers: Tuple[NFTTransfer, ...]
    timestamps: array
    senders: array
    recipients: array
    #: 1 where the carrying transaction moved ETH or ERC-20 value.
    payment_flags: bytes
    #: Distinct account ids appearing in this token's rows.
    account_ids: FrozenSet[int]

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

    Built once per dataset; the refinement funnel and the executor only
    ever read it.  Token insertion order matches the dataset's
    ``transfers_by_nft`` iteration order so the engine's candidates line
    up with the legacy pipeline's candidate order.
    """

    def __init__(self) -> None:
        #: id -> account address.
        self.accounts: List[str] = []
        self._ids: Dict[str, int] = {}
        self.tokens: Dict[NFTKey, TokenColumns] = {}
        #: Tokens whose columns went through the out-of-order rebuild
        #: fallback since their creation.  Row positions of such tokens no
        #: longer correspond to append order, so rollback consumers must
        #: re-columnarize them instead of truncating by row count.
        self.rebuilt_tokens: Set[NFTKey] = set()
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
        """Intern and columnarize the transfers of one NFT.

        If the token already exists its :class:`TokenColumns` object is
        rewritten *in place*, so every caller holding a previously
        returned columns reference keeps seeing current rows -- the
        out-of-order append fallback and the rollback path both rely on
        this aliasing guarantee.
        """
        ordered = tuple(sorted(transfers, key=_row_sort_key))
        # Comprehensions + array-from-list beat per-row appends; this is
        # the hottest loop of the store build.
        intern = self.intern
        sender_ids = [intern(transfer.sender) for transfer in ordered]
        recipient_ids = [intern(transfer.recipient) for transfer in ordered]
        timestamps = array("q", [transfer.timestamp for transfer in ordered])
        senders = array("q", sender_ids)
        recipients = array("q", recipient_ids)
        payment_flags = bytes(
            1 if transfer.has_payment else 0 for transfer in ordered
        )
        token_ids = set(sender_ids)
        token_ids.update(recipient_ids)
        columns = self.tokens.get(nft)
        self._row_total += len(ordered)
        if columns is not None:
            self._row_total -= columns.row_count
            columns.transfers = ordered
            columns.timestamps = timestamps
            columns.senders = senders
            columns.recipients = recipients
            columns.payment_flags = payment_flags
            columns.account_ids = frozenset(token_ids)
            return columns
        columns = TokenColumns(
            nft=nft,
            transfers=ordered,
            timestamps=timestamps,
            senders=senders,
            recipients=recipients,
            payment_flags=payment_flags,
            account_ids=frozenset(token_ids),
        )
        self.tokens[nft] = columns
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
        """Append new transfers to one token, keeping row order intact.

        This is the streaming ingest path: when the new rows all sort
        after the token's current tail (the common case -- blocks arrive
        in order), the columns are extended in place; otherwise the token
        is re-columnarized from scratch, so the result is always
        identical to an :meth:`add_token` over the union.  An empty
        chunk never creates a token (None for an unknown ``nft``).
        """
        if not transfers:
            return self.tokens.get(nft)
        columns = self.tokens.get(nft)
        if columns is None:
            return self.add_token(nft, transfers)

        ordered = sorted(transfers, key=_row_sort_key)
        if columns.transfers and _row_sort_key(ordered[0]) < _row_sort_key(
            columns.transfers[-1]
        ):
            # Out-of-order arrival: rebuild the token's columns wholesale
            # (in place -- add_token rewrites the existing TokenColumns,
            # so column references held by callers stay live).
            self.rebuilt_tokens.add(nft)
            return self.add_token(nft, tuple(columns.transfers) + tuple(ordered))

        new_flags = bytearray(len(ordered))
        new_ids: set[int] = set()
        for row, transfer in enumerate(ordered):
            sender_id = self.intern(transfer.sender)
            recipient_id = self.intern(transfer.recipient)
            columns.timestamps.append(transfer.timestamp)
            columns.senders.append(sender_id)
            columns.recipients.append(recipient_id)
            if transfer.has_payment:
                new_flags[row] = 1
            new_ids.add(sender_id)
            new_ids.add(recipient_id)
        columns.transfers = columns.transfers + tuple(ordered)
        self._row_total += len(ordered)
        columns.payment_flags = columns.payment_flags + bytes(new_flags)
        columns.account_ids = columns.account_ids | new_ids
        return columns

    def extend(
        self, transfers_by_nft: Mapping[NFTKey, Sequence[NFTTransfer]]
    ) -> List[NFTKey]:
        """Append a batch of per-NFT transfers; returns the touched tokens."""
        touched: List[NFTKey] = []
        for nft, transfers in transfers_by_nft.items():
            if not transfers:
                continue
            self.append_token_transfers(nft, transfers)
            touched.append(nft)
        return touched

    # -- rollback ----------------------------------------------------------
    def truncate_token(self, nft: NFTKey, row_count: int) -> int:
        """Drop every row of a token past ``row_count``, in place.

        This is the reorg rollback fast path: streaming appends arrive in
        row order, so per-append row-count watermarks identify exactly
        the rows a rolled-back block contributed.  The existing
        :class:`TokenColumns` object is mutated (aliases stay live);
        truncating to zero rows removes the token entirely.  Returns the
        number of rows removed.  Tokens in :attr:`rebuilt_tokens` must be
        re-columnarized through :meth:`rebuild_token` instead -- their
        row order no longer matches append order.

        Interned accounts are never un-interned: ids are append-only and
        rows simply stop referencing them, which keeps every mask and id
        handed out earlier valid.
        """
        if nft in self.rebuilt_tokens:
            raise ValueError(
                f"{nft} went through the out-of-order rebuild fallback; "
                f"roll it back via rebuild_token, not truncate_token"
            )
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
        columns.transfers = columns.transfers[:row_count]
        self._row_total -= removed
        del columns.timestamps[row_count:]
        del columns.senders[row_count:]
        del columns.recipients[row_count:]
        columns.payment_flags = columns.payment_flags[:row_count]
        columns.account_ids = frozenset(columns.senders) | frozenset(
            columns.recipients
        )
        return removed

    def rebuild_token(self, nft: NFTKey, transfers: Sequence[NFTTransfer]) -> Optional[TokenColumns]:
        """Re-columnarize one token from an authoritative transfer list.

        The rollback slow path, for tokens whose columns went through the
        out-of-order rebuild fallback: row positions of such tokens no
        longer encode append order, so the caller supplies the surviving
        transfers wholesale.  Rewrites the existing columns object in
        place (or removes the token if no transfers survive) and clears
        the token's rebuilt mark -- the fresh columns are canonical.
        """
        self.rebuilt_tokens.discard(nft)
        if not transfers:
            self.remove_token(nft)
            return None
        return self.add_token(nft, transfers)

    def remove_token(self, nft: NFTKey) -> None:
        """Forget a token entirely (all of its rows were rolled back)."""
        columns = self.tokens.pop(nft, None)
        if columns is not None:
            self._row_total -= columns.row_count
        self.rebuilt_tokens.discard(nft)

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
