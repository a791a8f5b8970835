"""Incremental dataset construction: following a *reorganizing* chain head.

:func:`~repro.ingest.dataset.build_dataset` materializes the whole
Sec. III dataset in one pass.  :class:`DatasetCursor` produces the same
state *incrementally*: each :meth:`advance` scans only the blocks mined
since the previous call, appends the new transfers to a mutable
:class:`~repro.engine.store.ColumnarTransferStore`, keeps the per-account
transaction lists up to date, and reports which tokens and accounts were
touched -- the input of the dirty-token scheduler.

Two properties distinguish the cursor from a naive follower:

* **Tick atomicity.**  Every node read of a tick's *ingest* happens
  before any cursor state is mutated; the commit itself is pure
  in-memory appends.  A node failure mid-tick therefore leaves the
  cursor retryable -- no half-ingested blocks, no double ingestion.
  The one mutation preceding the staged reads is a reorg rollback,
  which is itself applied atomically (in-memory only) and whose report
  is *durable*: if the rest of the tick fails afterwards, the rolled
  back tokens and accounts are carried over and delivered by the first
  tick that completes, so a retry never loses the dirty set.

* **Reorg safety.**  A live head reorganizes.  The cursor keeps a
  bounded per-block journal (block hash, scan-match span, appended rows
  per token, newly probed contracts and newly involved accounts) for
  the most recent ``max_reorg_depth`` blocks.  At the start of every
  tick it compares its journaled tail hash against the node; on
  divergence it walks the journal back to the fork point and rolls back
  everything past it -- scan matches, the compliance report, transfer
  lists, store columns (row-count watermarks; re-columnarization only
  for tokens that went through the out-of-order rebuild fallback) and
  account histories -- then re-ingests the canonical branch.  A
  divergence reaching below the journaled window raises
  :class:`ReorgTooDeepError`.  Note the window is measured from the
  highest head the cursor has committed: rolling a block back deletes
  its journal entry (its contributions were undone), so successive
  head regressions *consume* the window until freshly ingested blocks
  rebuild it -- budget headroom accordingly.

Invariant: after advancing to block ``B`` of the *current canonical
chain* -- through any sequence of advances and rollbacks -- the cursor's
transfers, store and account transactions are exactly what
``build_dataset(node, to_block=B)`` would produce (the stream/batch
parity tests, including the randomized reorg replays, pin this).  Raw
scan matches are the one exception: only the journaled blocks' matches
are kept, so a cursor that follows the head indefinitely holds
O(journal) of them, not O(chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.chain.index import transaction_parties
from repro.chain.node import EthereumNode
from repro.chain.transaction import TX_CHAIN_ORDER, Transaction
from repro.chain.types import NFTKey, NULL_ADDRESS
from repro.engine.store import ColumnarTransferStore
from repro.ingest.account_tx import collect_account_transactions
from repro.ingest.compliance import ComplianceReport, check_erc721_compliance
from repro.ingest.dataset import NFTDataset, transfer_from_log
from repro.ingest.marketplace_attribution import build_reverse_index
from repro.ingest.records import TRANSFER_CHAIN_ORDER, NFTTransfer
from repro.ingest.transfer_scan import TransferScanResult, scan_erc721_transfer_logs
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: How many processed blocks the rollback journal retains by default.
#: Real-chain reorgs are almost always shallow (a handful of blocks);
#: post-merge Ethereum finalizes in ~2 epochs (64 slots), which this
#: default matches.
DEFAULT_MAX_REORG_DEPTH = 64


class ReorgTooDeepError(RuntimeError):
    """The chain diverged below the cursor's journaled window.

    The cursor can only roll back blocks it still holds journal entries
    for; a divergence below the journal floor (or a head regression with
    no journal coverage) cannot be repaired in place.  The floor sits up
    to ``max_reorg_depth`` blocks under the *highest* head the cursor
    has committed -- rollbacks delete the entries of the blocks they
    undo, so repeated head regressions shrink the remaining window until
    new blocks are ingested.  The caller must rebuild from scratch -- or
    run with a larger ``max_reorg_depth``.
    """

    def __init__(self, processed_block: int, head: int, journal_floor: int) -> None:
        super().__init__(
            f"chain diverged below the journaled window (cursor at block "
            f"{processed_block}, head {head}, journal floor {journal_floor}); "
            f"rebuild from scratch or raise max_reorg_depth"
        )
        self.processed_block = processed_block
        self.head = head
        self.journal_floor = journal_floor


@dataclass
class BlockJournalEntry:
    """Everything one ingested block contributed to the cursor's state.

    The rollback unit: undoing a block means removing exactly these
    contributions, newest block first, down to the fork point.
    """

    number: int
    #: Chained block hash at ingest time; a later mismatch against the
    #: node reveals that this block was reorganized away -- or, for the
    #: journal tail, that a still-open head block gained transactions.
    hash: str
    #: The block's timestamp and transaction hashes at ingest time,
    #: distinguishing benign head-block growth (same timestamp, old
    #: transactions an exact prefix of the new ones) from a real reorg.
    block_timestamp: int = 0
    tx_hashes: Tuple[str, ...] = ()
    #: Scan matches appended for this block (matches are block-ordered,
    #: so a rollback removes the summed tail span).
    match_count: int = 0
    #: Contracts that emitted their first ERC-721-shaped event in this
    #: block (and were therefore ERC-165-probed because of it).
    new_contracts: Tuple[str, ...] = ()
    #: Rows this block appended per token (store/transfer watermarks).
    token_row_counts: Dict[NFTKey, int] = field(default_factory=dict)
    #: Accounts first involved (as a transfer endpoint) in this block.
    new_accounts: Tuple[str, ...] = ()
    #: Accounts whose collected transaction list holds a transaction of
    #: this block (rollback trims exactly these tails, instead of
    #: scanning every followed account).
    tx_accounts: Tuple[str, ...] = ()


@dataclass(frozen=True)
class _RollbackResult:
    """What a journal rollback undid (folded into the CursorTick)."""

    depth: int = 0
    fork_block: int = -1
    transfer_count: int = 0
    #: Tokens that lost rows (still present) or vanished entirely.
    nfts: Tuple[NFTKey, ...] = ()
    accounts: FrozenSet[str] = frozenset()
    #: Highest block the cursor had covered before the rollback -- the
    #: tick re-ingests at least up to here (clamped to the head).
    recover_to: int = -1

    def merge(self, other: "_RollbackResult") -> "_RollbackResult":
        """Fold a later rollback into this one (reported as a single
        revision once a tick finally completes)."""
        seen = set(self.nfts)
        if self.depth == 0:
            fork = other.fork_block
        elif other.depth == 0:
            fork = self.fork_block
        else:
            fork = min(self.fork_block, other.fork_block)
        return _RollbackResult(
            depth=self.depth + other.depth,
            fork_block=fork,
            transfer_count=self.transfer_count + other.transfer_count,
            nfts=self.nfts + tuple(n for n in other.nfts if n not in seen),
            accounts=self.accounts | other.accounts,
            recover_to=max(self.recover_to, other.recover_to),
        )


_NO_ROLLBACK = _RollbackResult()


def _history_changes(
    appended: Mapping[str, List[Transaction]],
    new_accounts: Iterable[str],
    rolled_back: Iterable[str],
) -> Dict[str, Optional[int]]:
    """Per touched account, the earliest timestamp its list changed at.

    Appends change a list from their earliest timestamp on; a list
    fetched whole or truncated by a rollback may differ anywhere.
    """
    changes: Dict[str, Optional[int]] = {
        account: min(tx.timestamp for tx in transactions)
        for account, transactions in appended.items()
    }
    for account in new_accounts:
        changes[account] = None
    for account in rolled_back:
        changes[account] = None
    return changes


@dataclass(frozen=True)
class CursorTick:
    """What one :meth:`DatasetCursor.advance` call ingested."""

    #: Inclusive block range scanned (``from_block > to_block`` when the
    #: tick scanned nothing: no new blocks, or a request behind the
    #: cursor).
    from_block: int
    to_block: int
    #: ERC-721-shaped events seen, before the compliance filter.
    event_count: int = 0
    #: Transfers retained after the compliance filter.
    new_transfer_count: int = 0
    #: Tokens that received new transfers, in first-touch (scan) order.
    touched_nfts: Tuple[NFTKey, ...] = ()
    #: Accounts whose collected transaction list changed this tick, each
    #: mapped to the earliest timestamp of the transactions appended to
    #: it -- or to ``None`` ("anywhere") for a list truncated by a
    #: rollback or fetched whole for a newly involved account.
    touched_since: Mapping[str, Optional[int]] = field(default_factory=dict)
    #: Accounts that became involved (first transfer endpoint) this tick.
    new_account_count: int = 0
    #: Blocks rolled back before scanning (0 when no reorg was seen).
    reorg_depth: int = 0
    #: Deepest block that survived the rollback (-1 without a reorg, or
    #: when the entire journaled history diverged).
    fork_block: int = -1
    #: Transfers removed by the rollback (the canonical replacements, if
    #: any, are counted by ``new_transfer_count`` like any other rows).
    #: Can be non-zero with ``reorg_depth == 0``: an open head block that
    #: merely gained transactions is re-ingested wholesale, which is
    #: forward growth, not a reorg.
    rolled_back_transfer_count: int = 0
    #: Tokens the rollback touched -- truncated or removed outright.
    #: Removed tokens are no longer in the store; the scheduler retracts
    #: their confirmed activities when they are marked dirty.
    rolled_back_nfts: Tuple[NFTKey, ...] = ()

    @property
    def is_noop(self) -> bool:
        """True when the tick neither scanned a block nor rolled one back."""
        return self.to_block < self.from_block and self.reorg_depth == 0

    @property
    def saw_reorg(self) -> bool:
        """True when this tick had to undo previously ingested blocks."""
        return self.reorg_depth > 0


class _CursorMetrics:
    """The cursor's instruments, registered once at construction.

    All recording happens at tick granularity (one update per completed
    :meth:`DatasetCursor.advance`), never inside per-row loops, so the
    instrumented cursor does identical work per transfer as the bare
    one -- parity neutrality by construction.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.blocks = registry.counter(
            "cursor_blocks_ingested_total", "Blocks ingested across all ticks."
        )
        self.transfers = registry.counter(
            "cursor_transfers_ingested_total",
            "Compliant NFT transfers committed to the store.",
        )
        self.events = registry.counter(
            "cursor_events_scanned_total",
            "Raw Transfer log events scanned (pre-compliance filter).",
        )
        self.reorgs = registry.counter(
            "cursor_reorgs_total", "Chain reorganizations repaired in place."
        )
        self.rolled_back_blocks = registry.counter(
            "cursor_rolled_back_blocks_total",
            "Blocks undone by reorg rollbacks.",
        )
        self.rolled_back_transfers = registry.counter(
            "cursor_rolled_back_transfers_total",
            "Transfers removed by reorg rollbacks.",
        )
        self.reorg_depth = registry.histogram(
            "cursor_reorg_depth_blocks", "Depth of each repaired reorg."
        )
        self.journal_blocks = registry.gauge(
            "cursor_journal_blocks", "Blocks currently held in the rollback journal."
        )
        self.processed_block = registry.gauge(
            "cursor_processed_block", "Highest block ingested so far."
        )

    def record_tick(self, cursor: "DatasetCursor", tick: "CursorTick") -> None:
        if tick.to_block >= tick.from_block:
            self.blocks.inc(tick.to_block - tick.from_block + 1)
        self.transfers.inc(tick.new_transfer_count)
        self.events.inc(tick.event_count)
        if tick.saw_reorg:
            self.reorgs.inc()
            self.reorg_depth.observe(tick.reorg_depth)
            self.rolled_back_blocks.inc(tick.reorg_depth)
            self.rolled_back_transfers.inc(tick.rolled_back_transfer_count)
        self.journal_blocks.set(len(cursor._journal))
        self.processed_block.set(cursor.processed_block)


class DatasetCursor:
    """Appends freshly mined blocks to a growing dataset, reorg-safely.

    The cursor owns the mutable counterparts of everything
    ``build_dataset`` returns: ``transfers_by_nft``, the compliance
    report, the accumulated scan result, ``account_transactions`` and the
    columnar ``store`` the detection engine reads.  The scan result keeps
    raw matches only while their blocks are journaled; older ones are
    pruned into ``scan.pruned_by_contract``, so ``scan.event_count`` and
    ``scan.events_by_contract()`` stay exact.  Requests to advance
    to a block at or behind the cursor are no-ops, so feeding the same
    head twice (an empty tick) or a stale/out-of-order target is safe --
    but a *head that itself moved backwards* is treated as the reorg it
    is: the cursor rolls back to the surviving prefix (or raises
    :class:`ReorgTooDeepError` if it cannot) instead of silently
    skipping.
    """

    def __init__(
        self,
        node: EthereumNode,
        marketplace_addresses: Mapping[str, str],
        start_block: int = 0,
        max_reorg_depth: int = DEFAULT_MAX_REORG_DEPTH,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._metrics = _CursorMetrics(self.registry)
        self.node = node
        self.marketplace_addresses = dict(marketplace_addresses)
        self.max_reorg_depth = max(max_reorg_depth, 0)
        self._venue_by_address = build_reverse_index(marketplace_addresses)
        #: Next block to ingest; everything below has been processed.
        self.next_block = max(start_block, 0)
        self._start_block = self.next_block
        self.transfers_by_nft: Dict[NFTKey, List[NFTTransfer]] = {}
        self.account_transactions: Dict[str, List[Transaction]] = {}
        self.compliance = ComplianceReport()
        self.scan = TransferScanResult()
        self.store = ColumnarTransferStore()
        self._probed_contracts: Set[str] = set()
        #: Per-block undo journal, oldest first, contiguous, bounded to
        #: the last ``max_reorg_depth`` processed blocks.
        self._journal: List[BlockJournalEntry] = []
        #: Rollbacks applied but not yet reported through a completed
        #: tick.  A rollback mutates the cursor immediately; if the rest
        #: of the tick then fails on a node read, the retried tick finds
        #: the journal consistent and would otherwise lose the dirty set
        #: -- so the report survives here until a tick returns it.
        self._pending_rollback: Optional[_RollbackResult] = None

    # -- queries -----------------------------------------------------------
    @property
    def processed_block(self) -> int:
        """Highest block already ingested (-1 before the first tick)."""
        return self.next_block - 1

    @property
    def transfer_count(self) -> int:
        """Transfers retained so far."""
        return sum(len(transfers) for transfers in self.transfers_by_nft.values())

    @property
    def journal_floor(self) -> int:
        """Oldest block the cursor can still roll back to the front of."""
        return self._journal[0].number if self._journal else self.next_block

    def tokens_touching(self, accounts: Iterable[str]) -> Set[NFTKey]:
        """Every stored token one of ``accounts`` appears in.

        A scan over every token's account ids -- O(store), so it is off
        the tick's hot path (the scheduler finds the tokens a history
        change can reach through its own candidate-member index).
        """
        store = self.store
        ids: Set[int] = set()
        for account in accounts:
            try:
                ids.add(store.account_id(account))
            except KeyError:  # never an endpoint of a stored transfer
                continue
        if not ids:
            return set()
        return {
            nft
            for nft, columns in store.tokens.items()
            if not columns.account_ids.isdisjoint(ids)
        }

    def as_dataset(self) -> NFTDataset:
        """A live :class:`NFTDataset` view over the cursor's state.

        The view shares the cursor's dictionaries (it grows with further
        ticks) and carries the already-built columnar store, so batch
        consumers -- tables, figures, a one-off ``WashTradingPipeline``
        run -- work on streamed data without any copying.  Its
        ``scan.matches`` covers only the journaled blocks; the scan's
        event counts are exact.
        """
        dataset = NFTDataset(
            transfers_by_nft=self.transfers_by_nft,
            compliance=self.compliance,
            scan=self.scan,
            account_transactions=self.account_transactions,
            marketplace_addresses=dict(self.marketplace_addresses),
        )
        dataset._columnar_store = self.store
        return dataset

    # -- ingest ------------------------------------------------------------
    def advance(self, to_block: Optional[int] = None) -> CursorTick:
        """Ingest every block up to ``to_block`` -- see :meth:`_advance`.

        This wrapper only instruments: the whole tick runs under an
        ``ingest`` span and the completed tick's counts are recorded at
        tick granularity, covering both return paths of the
        implementation (rollback-only and full-ingest ticks).
        """
        with self.registry.span("ingest") as span:
            tick = self._advance(to_block)
            span.annotate(
                blocks=max(0, tick.to_block - tick.from_block + 1),
                transfers=tick.new_transfer_count,
                reorg_depth=tick.reorg_depth,
            )
        self._metrics.record_tick(self, tick)
        return tick

    def _advance(self, to_block: Optional[int] = None) -> CursorTick:
        """Ingest every block up to ``to_block`` (default: current head).

        Before scanning, the journaled tail is checked against the
        node's current block hashes; a divergence (including a head that
        regressed below the cursor) rolls the cursor back to the fork
        point first, then the canonical branch is ingested like any
        other new blocks.  The tick itself is atomic: every node read
        happens before the first cursor mutation, so an exception mid-
        tick leaves the cursor unchanged and the call retryable.
        """
        head = self.node.block_number
        fresh = self._detect_divergence_and_rollback(head)
        if fresh is not _NO_ROLLBACK:
            self._pending_rollback = (
                self._pending_rollback.merge(fresh)
                if self._pending_rollback is not None
                else fresh
            )
        rollback = (
            self._pending_rollback
            if self._pending_rollback is not None
            else _NO_ROLLBACK
        )
        from_block = self.next_block
        stop = head if to_block is None else min(to_block, head)
        if rollback is not _NO_ROLLBACK:
            # A stale target must not suppress re-ingesting what the
            # rollback removed: recover at least the previously covered
            # range (clamped to the head), so a tick never ends with
            # *less* canonical history than it could have.
            stop = max(stop, min(rollback.recover_to, head))
        if stop < from_block:
            self._pending_rollback = None
            return CursorTick(
                from_block=from_block,
                to_block=from_block - 1,
                touched_since=dict.fromkeys(rollback.accounts),
                reorg_depth=rollback.depth,
                fork_block=rollback.fork_block,
                rolled_back_transfer_count=rollback.transfer_count,
                rolled_back_nfts=rollback.nfts,
            )

        # ---- stage: every node read, no cursor mutation -----------------
        tick_scan = scan_erc721_transfer_logs(
            self.node, from_block=from_block, to_block=stop
        )
        unseen = sorted(tick_scan.emitting_contracts - self._probed_contracts)
        probe = (
            check_erc721_compliance(self.node, unseen)
            if unseen
            else ComplianceReport()
        )
        # Staged membership view; copy only when the probe added anything
        # (reads happen before the commit merges the probe in).
        compliant_view = (
            self.compliance.compliant | probe.compliant
            if probe.compliant
            else self.compliance.compliant
        )

        new_by_nft: Dict[NFTKey, List[NFTTransfer]] = {}
        for tx, log in tick_scan.matches:
            if log.address not in compliant_view:
                continue
            transfer = transfer_from_log(tx, log, self._venue_by_address)
            new_by_nft.setdefault(transfer.nft, []).append(transfer)
        for chunk in new_by_nft.values():
            chunk.sort(key=TRANSFER_CHAIN_ORDER)

        new_accounts = self._new_involved_accounts(new_by_nft)
        pending = self._stage_block_transactions(from_block, stop, new_accounts)
        new_histories = collect_account_transactions(
            self.node, new_accounts, to_block=stop
        )
        journal_entries = self._stage_journal(
            from_block, stop, tick_scan, unseen, new_by_nft, new_accounts,
            pending, new_histories,
        )

        # ---- commit: pure in-memory appends, all or nothing -------------
        self.scan.matches.extend(tick_scan.matches)
        self.scan.emitting_contracts |= tick_scan.emitting_contracts
        self.compliance.compliant |= probe.compliant
        self.compliance.non_compliant |= probe.non_compliant
        self._probed_contracts.update(unseen)

        new_transfer_count = 0
        for nft, chunk in new_by_nft.items():
            self.transfers_by_nft.setdefault(nft, []).extend(chunk)
            self.store.append_token_transfers(nft, chunk)
            new_transfer_count += len(chunk)

        for account, transactions in pending.items():
            self.account_transactions[account].extend(transactions)
        for account, transactions in new_histories.items():
            self.account_transactions[account] = transactions

        self._journal.extend(journal_entries)
        # One entry beyond the configured depth: repairing a depth-d
        # reorg needs the fork block (d+1 back) still verifiable.
        retain = self.max_reorg_depth + 1
        if len(self._journal) > retain:
            del self._journal[: len(self._journal) - retain]
        self._prune_scan_matches()
        self.next_block = stop + 1
        self._pending_rollback = None

        return CursorTick(
            from_block=from_block,
            to_block=stop,
            event_count=tick_scan.event_count,
            new_transfer_count=new_transfer_count,
            touched_nfts=tuple(new_by_nft),
            touched_since=_history_changes(pending, new_accounts, rollback.accounts),
            new_account_count=len(new_accounts),
            reorg_depth=rollback.depth,
            fork_block=rollback.fork_block,
            rolled_back_transfer_count=rollback.transfer_count,
            rolled_back_nfts=rollback.nfts,
        )

    def _prune_scan_matches(self) -> None:
        """Drop scan matches whose blocks left the rollback journal.

        Matches are block-ordered across ticks and rollbacks only ever
        remove journaled tails, so everything before the journaled span
        is permanent -- a rollback can never need it again.  Keeping the
        list trimmed to the journal's own match span bounds the raw
        match retention at O(journal) regardless of chain length.
        """
        retained = sum(entry.match_count for entry in self._journal)
        drop = len(self.scan.matches) - retained
        if drop > 0:
            pruned = self.scan.pruned_by_contract
            for _tx, log in self.scan.matches[:drop]:
                pruned[log.address] = pruned.get(log.address, 0) + 1
            del self.scan.matches[:drop]

    # -- reorg handling ----------------------------------------------------
    def _detect_divergence_and_rollback(self, head: int) -> _RollbackResult:
        """Compare the journaled tail against the node; roll back if needed.

        Walks the journal newest-first looking for the deepest block that
        is still canonical (same hash, still mined).  Everything past it
        is undone.  A divergence running below the journal -- or a head
        regression with no journal coverage at all -- cannot be repaired
        and raises :class:`ReorgTooDeepError`.
        """
        if not self._journal:
            # Nothing ingested yet (e.g. a start_block still in the
            # future) leaves nothing to diverge from; but a regressed
            # head over ingested-yet-unjournaled history is beyond
            # repair.
            if head < self.processed_block and self.next_block > self._start_block:
                raise ReorgTooDeepError(self.processed_block, head, self.next_block)
            return _NO_ROLLBACK
        fork: Optional[int] = None
        for entry in reversed(self._journal):
            if entry.number <= head and self.node.get_block_hash(entry.number) == entry.hash:
                fork = entry.number
                break
        if fork == self.processed_block:
            return _NO_ROLLBACK
        tail = self._journal[-1]
        if (
            tail.number <= head
            and (fork == tail.number - 1 or (fork is None and len(self._journal) == 1))
            and self._head_block_merely_grew(tail)
        ):
            # Not a reorg: the tail was journaled while it was still the
            # open head block, and it has since gained transactions (the
            # chain appends to the head block while its timestamp is
            # current).  Re-ingest the whole block, but report no reorg
            # -- every previously seen row comes straight back, so
            # subscribers see only the genuinely new confirmations.
            grown = self._rollback_to(tail.number - 1)
            return _RollbackResult(
                depth=0,
                fork_block=-1,
                transfer_count=grown.transfer_count,
                nfts=grown.nfts,
                accounts=grown.accounts,
                recover_to=grown.recover_to,
            )
        if fork is None:
            if self._journal[0].number == self._start_block:
                # The journal still reaches back to the cursor's very
                # first block: the whole ingested history diverged, and a
                # full reset *is* a rollback to just before the start.
                fork = self._start_block - 1
            else:
                raise ReorgTooDeepError(
                    self.processed_block, head, self._journal[0].number
                )
        return self._rollback_to(fork)

    def _head_block_merely_grew(self, entry: BlockJournalEntry) -> bool:
        """True when a journaled block only gained transactions since.

        Same block number, same timestamp, and every transaction known at
        ingest time still present, in order, as a prefix -- the signature
        of an open head block that kept accepting transactions, which is
        ordinary forward growth rather than a reorganisation.
        """
        block = self.node.get_block(entry.number)
        if block.timestamp != entry.block_timestamp:
            return False
        current = block.transaction_hashes
        known = entry.tx_hashes
        return len(current) >= len(known) and tuple(current[: len(known)]) == known

    def _rollback_to(self, fork: int) -> _RollbackResult:
        """Undo every journaled block past ``fork``, newest first."""
        previous_processed = self.processed_block
        keep = 0
        while keep < len(self._journal) and self._journal[keep].number <= fork:
            keep += 1
        removed_entries = self._journal[keep:]

        # Scan matches are block-ordered across ticks: drop the tail span.
        # Pruned matches all predate the journal, so no rollback reaches
        # them or their per-contract tally.
        removed_matches = sum(entry.match_count for entry in removed_entries)
        if removed_matches:
            del self.scan.matches[-removed_matches:]

        # Contracts first seen in a rolled-back block: un-probe them so a
        # canonical re-appearance probes (and journals) them afresh.
        for entry in removed_entries:
            for contract in entry.new_contracts:
                self.scan.emitting_contracts.discard(contract)
                self.compliance.compliant.discard(contract)
                self.compliance.non_compliant.discard(contract)
                self._probed_contracts.discard(contract)

        # Token rows, by per-block watermark counts.
        removed_rows: Dict[NFTKey, int] = {}
        for entry in removed_entries:
            for nft, count in entry.token_row_counts.items():
                removed_rows[nft] = removed_rows.get(nft, 0) + count
        rolled_back_nfts: List[NFTKey] = []
        rolled_back_transfers = 0
        for nft, count in removed_rows.items():
            transfers = self.transfers_by_nft[nft]
            kept_rows = len(transfers) - count
            rolled_back_transfers += count
            rolled_back_nfts.append(nft)
            if kept_rows <= 0:
                del self.transfers_by_nft[nft]
                self.store.remove_token(nft)
                continue
            del transfers[kept_rows:]
            if nft in self.store.rebuilt_tokens:
                # Out-of-order fallback reshuffled this token's rows:
                # watermark truncation no longer lines up, so rebuild
                # from the authoritative (already truncated) list.
                self.store.rebuild_token(nft, transfers)
            else:
                self.store.truncate_token(nft, kept_rows)

        # Accounts first involved in a rolled-back block vanish whole --
        # a batch build over the canonical prefix never saw them.
        for entry in removed_entries:
            for account in entry.new_accounts:
                self.account_transactions.pop(account, None)

        # Surviving accounts lose every transaction past the fork.  The
        # journal names exactly the accounts holding transactions of the
        # removed blocks, and the lists are (block, hash)-sorted, so the
        # orphaned suffix pops off each named tail -- the rollback cost
        # tracks the reorg's footprint, not the account population.
        candidates: Set[str] = set()
        for entry in removed_entries:
            candidates.update(entry.tx_accounts)
        affected_accounts: Set[str] = set()
        for account in candidates:
            transactions = self.account_transactions.get(account)
            if transactions is None:
                continue  # deleted above: first involved past the fork
            trimmed = False
            while transactions and transactions[-1].block_number > fork:
                transactions.pop()
                trimmed = True
            if trimmed:
                affected_accounts.add(account)

        del self._journal[keep:]
        self.next_block = fork + 1
        return _RollbackResult(
            depth=previous_processed - fork,
            fork_block=fork,
            transfer_count=rolled_back_transfers,
            nfts=tuple(rolled_back_nfts),
            accounts=frozenset(affected_accounts),
            recover_to=previous_processed,
        )

    # -- staging internals -------------------------------------------------
    def _stage_journal(
        self,
        from_block: int,
        to_block: int,
        tick_scan: TransferScanResult,
        unseen: List[str],
        new_by_nft: Dict[NFTKey, List[NFTTransfer]],
        new_accounts: List[str],
        pending: Dict[str, List[Transaction]],
        new_histories: Dict[str, List[Transaction]],
    ) -> List[BlockJournalEntry]:
        """Attribute the staged tick to per-block rollback entries.

        Only the blocks that can still be rolled back after this tick
        commits are journaled: a tick wider than the retention window
        (the initial catch-up over a long chain) journals just its tail,
        because a rollback can never reach below the window's floor --
        everything under it is permanent the moment it commits.
        Contributions attributed to a sub-floor block (a contract's or
        account's first appearance, a token row) are likewise permanent
        and simply skip the journal.
        """
        floor = max(from_block, to_block - self.max_reorg_depth)
        entries = {
            block.number: BlockJournalEntry(
                number=block.number,
                hash=self.node.get_block_hash(block.number),
                block_timestamp=block.timestamp,
                tx_hashes=tuple(block.transaction_hashes),
            )
            for block in self.node.iter_blocks(floor, to_block)
        }

        for tx, _log in tick_scan.matches:
            if tx.block_number >= floor:
                entries[tx.block_number].match_count += 1

        first_emitted: Dict[str, int] = {}
        unseen_set = set(unseen)
        for tx, log in tick_scan.matches:
            if log.address in unseen_set and log.address not in first_emitted:
                first_emitted[log.address] = tx.block_number
        contracts_by_block: Dict[int, List[str]] = {}
        for contract, number in first_emitted.items():
            if number >= floor:
                contracts_by_block.setdefault(number, []).append(contract)
        for number, contracts in contracts_by_block.items():
            entries[number].new_contracts = tuple(sorted(contracts))

        new_account_set = set(new_accounts)
        first_involved: Dict[str, int] = {}
        for nft, chunk in new_by_nft.items():
            for transfer in chunk:
                if transfer.block_number >= floor:
                    entry = entries[transfer.block_number]
                    entry.token_row_counts[nft] = (
                        entry.token_row_counts.get(nft, 0) + 1
                    )
                for endpoint in (transfer.sender, transfer.recipient):
                    if endpoint in new_account_set:
                        seen_at = first_involved.get(endpoint)
                        if seen_at is None or transfer.block_number < seen_at:
                            first_involved[endpoint] = transfer.block_number

        accounts_by_block: Dict[int, List[str]] = {}
        for account, number in first_involved.items():
            if number >= floor:
                accounts_by_block.setdefault(number, []).append(account)
        for number, accounts in accounts_by_block.items():
            entries[number].new_accounts = tuple(sorted(accounts))

        # Which accounts hold a transaction of each journaled block: the
        # tick's per-block appends, plus the full (clamped) histories of
        # accounts involved for the first time -- a kept account's
        # pre-involvement history can never be trimmed (its first
        # transfer would have to be rolled back first, deleting the
        # account outright), so sub-floor history blocks are safe to
        # skip.
        tx_accounts_by_block: Dict[int, Set[str]] = {}
        for staged in (pending, new_histories):
            for account, transactions in staged.items():
                for tx in transactions:
                    if tx.block_number >= floor:
                        tx_accounts_by_block.setdefault(
                            tx.block_number, set()
                        ).add(account)
        for number, accounts in tx_accounts_by_block.items():
            entries[number].tx_accounts = tuple(sorted(accounts))

        return [entries[number] for number in range(floor, to_block + 1)]

    def _new_involved_accounts(
        self, new_by_nft: Dict[NFTKey, List[NFTTransfer]]
    ) -> List[str]:
        """Endpoints of the tick's transfers not yet followed, scan order."""
        new_accounts: List[str] = []
        seen: Set[str] = set()
        for chunk in new_by_nft.values():
            for transfer in chunk:
                for endpoint in (transfer.sender, transfer.recipient):
                    if (
                        endpoint != NULL_ADDRESS
                        and endpoint not in seen
                        and endpoint not in self.account_transactions
                    ):
                        seen.add(endpoint)
                        new_accounts.append(endpoint)
        return new_accounts

    def _stage_block_transactions(
        self, from_block: int, to_block: int, new_accounts: List[str]
    ) -> Dict[str, List[Transaction]]:
        """Attribute the tick's transactions to already-followed accounts.

        Accounts becoming involved this very tick are skipped -- their
        full (clamped) history is fetched separately and already covers
        these blocks.  Pure staging: returns the per-account sorted
        append lists without touching cursor state.
        """
        skip = set(new_accounts)
        pending: Dict[str, List[Transaction]] = {}
        for block in self.node.iter_blocks(from_block, to_block):
            for tx in block.transactions:
                for party in transaction_parties(tx):
                    if party in skip or party not in self.account_transactions:
                        continue
                    pending.setdefault(party, []).append(tx)
        for transactions in pending.values():
            transactions.sort(key=TX_CHAIN_ORDER)
        return pending
