"""Incremental dataset construction: following a *reorganizing* chain head.

:func:`~repro.ingest.dataset.build_dataset` materializes the whole
Sec. III dataset in one pass.  :class:`DatasetCursor` produces the same
state *incrementally*: each :meth:`advance` stages only the blocks mined
since the previous call, through the same
:func:`~repro.ingest.dataset.stage_range` the batch build runs from
genesis (scan, ERC-165 probe of unclassified contracts, decode, per-token
sort, newly involved accounts), appends the new transfers to a mutable
:class:`~repro.engine.store.ColumnarTransferStore` -- the cursor's only
record of the transfers -- keeps the per-account transaction lists up to
date, and reports which tokens and accounts were touched -- the input of
the dirty-token scheduler.

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

* **Reorg safety.**  A live head reorganizes.  The cursor journals the
  most recent ``max_reorg_depth`` blocks: per block only the hash it
  had at ingest (plus the tail block's timestamp and transaction
  hashes), and per tick what a rollback must undo that nothing else
  records -- which tokens and accounts hold rows of the journaled
  blocks, and the block of each first probed contract and first
  involved account.  Store rows, scan matches and account histories
  carry their block numbers and are block-ordered, so the undo trims
  their tails past the fork instead of counting them per block.  At
  the start of every tick the cursor compares its journaled tail hash
  against the node; on divergence it walks the hashes back to the fork
  point, rolls back everything past it -- scan matches, the compliance
  report, store columns (the chain's non-decreasing block timestamps
  keep every append at the token's tail) and account histories -- then
  re-ingests the canonical branch.  A divergence reaching below the
  journaled window raises :class:`ReorgTooDeepError`.  Note the window
  is measured from the highest head the cursor has committed: rolling
  a block back drops it from the journal (its contributions were
  undone), so successive head regressions *consume* the window until
  freshly ingested blocks rebuild it -- budget headroom accordingly.

Invariant: after advancing to block ``B`` of the *current canonical
chain* -- through any sequence of advances and rollbacks -- the cursor's
store (as :meth:`DatasetCursor.as_dataset` reads it back) and account
transactions are exactly what ``build_dataset(node, to_block=B)`` would
produce (the stream/batch parity tests, including the randomized reorg
replays, pin this).  Raw scan matches are the one exception: only the
journaled blocks' matches are kept, so a cursor that follows the head
indefinitely holds O(journal) of them, not O(chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.chain.index import transaction_parties
from repro.chain.node import EthereumNode
from repro.chain.transaction import TX_CHAIN_ORDER, Transaction
from repro.chain.types import NFTKey
from repro.engine.store import ColumnarTransferStore
from repro.ingest.account_tx import collect_account_transactions
from repro.ingest.compliance import ComplianceReport
from repro.ingest.dataset import NFTDataset, StagedRange, stage_range
from repro.ingest.marketplace_attribution import build_reverse_index
from repro.ingest.transfer_scan import TransferScanResult
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
class _TickJournal:
    """What one committed tick contributed to the rollback window.

    Only the tick's blocks inside the window count: a tick wider than the
    window (the initial catch-up over a long chain) records just its
    tail, because a rollback can never reach below the window's floor.
    Store rows, scan matches and account histories carry their block
    numbers, so the record only names the tokens and accounts to trim;
    first appearances, which nothing else dates, keep their block.
    """

    #: First and last journaled block of the tick (a rollback into the
    #: tick lowers ``last_block`` to the fork).
    first_block: int
    last_block: int
    #: Tokens that gained a row in a journaled block, in the tick's
    #: first-touch order.
    nfts: Tuple[NFTKey, ...]
    #: Accounts whose collected list gained a transaction of a journaled
    #: block (rollback trims exactly these tails, instead of scanning
    #: every followed account).
    tx_accounts: Tuple[str, ...]
    #: Contracts whose first ERC-721-shaped event (and so their ERC-165
    #: probe) fell in a journaled block, mapped to that block.
    new_contracts: Dict[str, int]
    #: Accounts first involved as a transfer endpoint in a journaled
    #: block, mapped to that block.
    new_accounts: Dict[str, int]


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
    # Appended lists are in chain order, so timestamps never decrease.
    changes: Dict[str, Optional[int]] = {
        account: transactions[0].timestamp
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
        self.journal_blocks.set(len(cursor._block_hashes))
        self.processed_block.set(cursor.processed_block)


class DatasetCursor:
    """Appends freshly mined blocks to a growing dataset, reorg-safely.

    The cursor owns the mutable counterparts of everything
    ``build_dataset`` returns: the compliance report, the accumulated
    scan result, ``account_transactions`` and the columnar ``store`` the
    detection engine reads, which is the only record of the transfers
    (:meth:`as_dataset` derives ``transfers_by_nft`` from it).  The scan
    result keeps raw matches only while their blocks are journaled;
    older ones are pruned into ``scan.pruned_by_contract``, so
    ``scan.event_count`` and ``scan.events_by_contract()`` stay exact.
    Requests to advance to a block at or behind the cursor are no-ops,
    so feeding the same head twice (an empty tick) or a
    stale/out-of-order target is safe -- but a *head that itself moved
    backwards* is treated as the reorg it is: the cursor rolls back to
    the surviving prefix (or raises :class:`ReorgTooDeepError` if it
    cannot) instead of silently skipping.
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
        self.account_transactions: Dict[str, List[Transaction]] = {}
        self.compliance = ComplianceReport()
        self.scan = TransferScanResult()
        self.store = ColumnarTransferStore()
        #: The rollback journal, bounded to the last ``max_reorg_depth``
        #: processed blocks (plus the fork block): the hash each block
        #: had at ingest, oldest first, ending at ``processed_block``;
        #: the tail block's (timestamp, transaction hashes) at ingest;
        #: and the undo record of every tick with a block in the window.
        self._block_hashes: List[str] = []
        self._tail_block: Tuple[int, Tuple[str, ...]] = (0, ())
        self._ticks: List[_TickJournal] = []
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
        return self.store.transfer_count

    @property
    def journal_floor(self) -> int:
        """Oldest block the cursor can still roll back to the front of."""
        return self.next_block - len(self._block_hashes)

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
        """An :class:`NFTDataset` over the cursor's state.

        ``transfers_by_nft`` is derived from the store as of this call
        (store token order, rows in store order); the account
        transactions, compliance report and scan result are the
        cursor's own (they keep growing with further ticks), and the
        already-built columnar store rides along, so batch consumers --
        tables, figures, a one-off ``WashTradingPipeline`` run -- work
        on streamed data without re-columnarizing it.  Its
        ``scan.matches`` covers only the journaled blocks; the scan's
        event counts are exact.
        """
        dataset = NFTDataset(
            transfers_by_nft={
                nft: list(columns.transfers)
                for nft, columns in self.store.tokens.items()
            },
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
        staged = stage_range(
            self.node,
            self._venue_by_address,
            from_block,
            stop,
            self.compliance,
            self.account_transactions,
        )
        new_by_nft = staged.transfers_by_nft
        first_involved = staged.first_involved
        pending = self._stage_block_transactions(from_block, stop)
        new_histories = collect_account_transactions(
            self.node, first_involved, to_block=stop
        )
        hashes, tail_block, journal = self._stage_journal(
            from_block, stop, staged, pending, new_histories
        )

        # ---- commit: pure in-memory appends, all or nothing -------------
        self.scan.matches.extend(staged.scan.matches)
        self.scan.emitting_contracts |= staged.scan.emitting_contracts
        self.compliance.compliant |= staged.probe.compliant
        self.compliance.non_compliant |= staged.probe.non_compliant

        new_transfer_count = 0
        append = self.store.append_token_transfers
        for nft, chunk in new_by_nft.items():
            append(nft, chunk)
            new_transfer_count += len(chunk)

        for account, transactions in pending.items():
            self.account_transactions[account].extend(transactions)
        self.account_transactions.update(new_histories)

        self.next_block = stop + 1
        self._commit_journal(hashes, tail_block, journal)
        self._prune_scan_matches()
        self._pending_rollback = None

        return CursorTick(
            from_block=from_block,
            to_block=stop,
            event_count=staged.scan.event_count,
            new_transfer_count=new_transfer_count,
            touched_nfts=tuple(new_by_nft),
            touched_since=_history_changes(
                pending, first_involved, rollback.accounts
            ),
            new_account_count=len(first_involved),
            reorg_depth=rollback.depth,
            fork_block=rollback.fork_block,
            rolled_back_transfer_count=rollback.transfer_count,
            rolled_back_nfts=rollback.nfts,
        )

    def _commit_journal(
        self,
        hashes: List[str],
        tail_block: Tuple[int, Tuple[str, ...]],
        journal: _TickJournal,
    ) -> None:
        """Add a committed tick to the journal and trim it to the window.

        One block beyond the configured depth is kept: repairing a
        depth-d reorg needs the fork block (d+1 back) still verifiable.
        A wide tick stages exactly that many hashes, so whatever an
        earlier tick left falls out and the hashes stay contiguous.
        """
        block_hashes = self._block_hashes
        block_hashes.extend(hashes)
        excess = len(block_hashes) - (self.max_reorg_depth + 1)
        if excess > 0:
            del block_hashes[:excess]
        self._tail_block = tail_block
        ticks = self._ticks
        ticks.append(journal)
        floor = self.journal_floor
        gone = 0
        while ticks[gone].last_block < floor:
            gone += 1
        if gone:
            del ticks[:gone]

    def _prune_scan_matches(self) -> None:
        """Drop scan matches whose blocks left the rollback journal.

        Matches are block-ordered across ticks and rollbacks only ever
        remove journaled tails, so everything before the journal floor
        is permanent -- a rollback can never need it again.  Keeping the
        list trimmed to the journaled blocks bounds the raw match
        retention at O(journal) regardless of chain length, and each
        match is pruned once, so the trim costs O(new matches) per tick.
        """
        floor = self.journal_floor
        matches = self.scan.matches
        pruned = self.scan.pruned_by_contract
        drop = 0
        for tx, log in matches:
            if tx.block_number >= floor:
                break
            pruned[log.address] = pruned.get(log.address, 0) + 1
            drop += 1
        if drop:
            del matches[:drop]

    # -- reorg handling ----------------------------------------------------
    def _detect_divergence_and_rollback(self, head: int) -> _RollbackResult:
        """Compare the journaled tail against the node; roll back if needed.

        Walks the journaled hashes newest-first looking for the deepest
        block that is still canonical (same hash, still mined).
        Everything past it is undone.  A divergence running below the
        journal -- or a head regression with no journal coverage at all
        -- cannot be repaired and raises :class:`ReorgTooDeepError`.
        """
        hashes = self._block_hashes
        if not hashes:
            # Nothing ingested yet (e.g. a start_block still in the
            # future) leaves nothing to diverge from; but a regressed
            # head over ingested-yet-unjournaled history is beyond
            # repair.
            if head < self.processed_block and self.next_block > self._start_block:
                raise ReorgTooDeepError(self.processed_block, head, self.next_block)
            return _NO_ROLLBACK
        floor = self.journal_floor
        tail = self.processed_block
        fork: Optional[int] = None
        for number in range(tail, floor - 1, -1):
            if number <= head and self.node.get_block_hash(number) == hashes[number - floor]:
                fork = number
                break
        if fork == tail:
            return _NO_ROLLBACK
        if (
            tail <= head
            and (fork == tail - 1 or (fork is None and len(hashes) == 1))
            and self._head_block_merely_grew(tail)
        ):
            # Not a reorg: the tail was journaled while it was still the
            # open head block, and it has since gained transactions (the
            # chain appends to the head block while its timestamp is
            # current).  Re-ingest the whole block, but report no reorg
            # -- every previously seen row comes straight back, so
            # subscribers see only the genuinely new confirmations.
            grown = self._rollback_to(tail - 1)
            return _RollbackResult(
                depth=0,
                fork_block=-1,
                transfer_count=grown.transfer_count,
                nfts=grown.nfts,
                accounts=grown.accounts,
                recover_to=grown.recover_to,
            )
        if fork is None:
            if floor == self._start_block:
                # The journal still reaches back to the cursor's very
                # first block: the whole ingested history diverged, and a
                # full reset *is* a rollback to just before the start.
                fork = self._start_block - 1
            else:
                raise ReorgTooDeepError(self.processed_block, head, floor)
        return self._rollback_to(fork)

    def _head_block_merely_grew(self, number: int) -> bool:
        """True when the journaled tail block only gained transactions since.

        Same block number, same timestamp, and every transaction known at
        ingest time still present, in order, as a prefix -- the signature
        of an open head block that kept accepting transactions, which is
        ordinary forward growth rather than a reorganisation.
        """
        block = self.node.get_block(number)
        timestamp, known = self._tail_block
        if block.timestamp != timestamp:
            return False
        current = block.transaction_hashes
        return len(current) >= len(known) and tuple(current[: len(known)]) == known

    def _block_summary(self, number: int) -> Tuple[int, Tuple[str, ...]]:
        """A block's timestamp and transaction hashes, as the node has it."""
        block = self.node.get_block(number)
        return block.timestamp, tuple(block.transaction_hashes)

    def _rollback_to(self, fork: int) -> _RollbackResult:
        """Undo every journaled block past ``fork``."""
        previous_processed = self.processed_block
        floor = self.journal_floor
        # The fork block becomes the journal's tail (if it is journaled
        # at all); its hash still matches, so the node's copy is what was
        # ingested.  The one node read, made before anything mutates.
        tail_block = self._block_summary(fork) if fork >= floor else (0, ())
        first = 0
        while first < len(self._ticks) and self._ticks[first].last_block <= fork:
            first += 1
        undone = self._ticks[first:]

        # Scan matches are block-ordered across ticks: drop the tail span.
        # Pruned matches all predate the journal, so no rollback reaches
        # them or their per-contract tally.
        matches = self.scan.matches
        keep = len(matches)
        while keep and matches[keep - 1][0].block_number > fork:
            keep -= 1
        del matches[keep:]

        # Contracts first seen in a rolled-back block: un-probe them so a
        # canonical re-appearance probes (and journals) them afresh.
        for journal in undone:
            for contract, number in journal.new_contracts.items():
                if number > fork:
                    self.scan.emitting_contracts.discard(contract)
                    self.compliance.compliant.discard(contract)
                    self.compliance.non_compliant.discard(contract)

        # Token rows are block-ordered: each named token loses its rows
        # past the fork.  Tokens are reported by their first removed
        # block, then by first touch within that block's tick.
        removed_rows: Dict[NFTKey, Tuple[int, int, int]] = {}
        for journal in undone:
            for position, nft in enumerate(journal.nfts):
                if nft in removed_rows:
                    continue
                columns = self.store.tokens.get(nft)
                if columns is None:
                    continue  # emptied by an earlier rollback
                rows = columns.transfers
                keep = len(rows)
                while keep and rows[keep - 1].block_number > fork:
                    keep -= 1
                if keep == len(rows) or rows[keep].block_number > journal.last_block:
                    # Nothing past the fork, or the first orphaned row
                    # belongs to a later tick, which names the token too.
                    continue
                removed_rows[nft] = (rows[keep].block_number, position, len(rows) - keep)
                self.store.truncate_token(nft, keep)
        rolled_back_nfts = sorted(removed_rows, key=lambda nft: removed_rows[nft][:2])

        # Accounts first involved in a rolled-back block vanish whole --
        # a batch build over the canonical prefix never saw them.
        for journal in undone:
            for account, number in journal.new_accounts.items():
                if number > fork:
                    self.account_transactions.pop(account, None)

        # Surviving accounts lose every transaction past the fork.  The
        # journal names exactly the accounts holding transactions of the
        # journaled blocks, and the lists are (block, hash)-sorted, so the
        # orphaned suffix pops off each named tail -- the rollback cost
        # tracks the reorg's footprint, not the account population.
        candidates: Set[str] = set()
        for journal in undone:
            candidates.update(journal.tx_accounts)
        affected_accounts: Set[str] = set()
        for account in candidates:
            transactions = self.account_transactions.get(account)
            if transactions is None:
                continue  # deleted above: first involved past the fork
            keep = len(transactions)
            while keep and transactions[keep - 1].block_number > fork:
                keep -= 1
            if keep < len(transactions):
                del transactions[keep:]
                affected_accounts.add(account)

        # The tick holding the fork now ends there; the ticks after it
        # are gone.  What its record names past the fork was just undone,
        # and only a rollback below the fork can visit the record again,
        # which undoes the same things again or finds them gone.
        if undone and undone[0].first_block <= fork:
            undone[0].last_block = fork
            first += 1
        del self._ticks[first:]
        del self._block_hashes[max(fork + 1 - floor, 0) :]
        self._tail_block = tail_block
        self.next_block = fork + 1
        return _RollbackResult(
            depth=previous_processed - fork,
            fork_block=fork,
            transfer_count=sum(count for _, _, count in removed_rows.values()),
            nfts=tuple(rolled_back_nfts),
            accounts=frozenset(affected_accounts),
            recover_to=previous_processed,
        )

    # -- staging internals -------------------------------------------------
    def _stage_journal(
        self,
        from_block: int,
        to_block: int,
        staged: StagedRange,
        pending: Dict[str, List[Transaction]],
        new_histories: Dict[str, List[Transaction]],
    ) -> Tuple[List[str], Tuple[int, Tuple[str, ...]], _TickJournal]:
        """The staged tick's journal: block hashes, tail block, undo record.

        Only the blocks that can still be rolled back after this tick
        commits are journaled: a tick wider than the retention window
        (the initial catch-up over a long chain) journals just its tail,
        because a rollback can never reach below the window's floor --
        everything under it is permanent the moment it commits.
        Contributions dated to a sub-floor block (a contract's or
        account's first appearance, a token row) are likewise permanent
        and simply skip the journal.  Staged lists are block-ordered, so
        each token or account is checked by its last row alone.
        """
        floor = max(from_block, to_block - self.max_reorg_depth)
        hashes = self.node.get_block_hashes(floor, to_block)

        new_contracts: Dict[str, int] = {}
        probe = staged.probe
        if probe.checked_count:
            remaining = probe.compliant | probe.non_compliant
            for tx, log in staged.scan.matches:
                if log.address in remaining:
                    remaining.discard(log.address)
                    if tx.block_number >= floor:
                        new_contracts[log.address] = tx.block_number
                    if not remaining:
                        break

        # A kept account's pre-involvement history can never be trimmed
        # (its first transfer would have to be rolled back first,
        # deleting the account outright), so only a list's journaled
        # tail makes it a rollback candidate.
        tx_accounts = tuple(
            account
            for staged in (pending, new_histories)
            for account, transactions in staged.items()
            if transactions and transactions[-1].block_number >= floor
        )
        journal = _TickJournal(
            first_block=floor,
            last_block=to_block,
            nfts=tuple(
                nft
                for nft, chunk in staged.transfers_by_nft.items()
                if chunk[-1].block_number >= floor
            ),
            tx_accounts=tx_accounts,
            new_contracts=new_contracts,
            new_accounts={
                account: number
                for account, number in staged.first_involved.items()
                if number >= floor
            },
        )
        return hashes, self._block_summary(to_block), journal

    def _stage_block_transactions(
        self, from_block: int, to_block: int
    ) -> Dict[str, List[Transaction]]:
        """Attribute the tick's transactions to already-followed accounts.

        Accounts becoming involved this very tick are not followed yet
        -- their full (clamped) history is fetched separately and
        already covers these blocks -- so a cursor that follows nobody
        walks no block.  Pure staging: returns the per-account sorted
        append lists without touching cursor state.
        """
        followed = self.account_transactions
        pending: Dict[str, List[Transaction]] = {}
        if not followed:
            return pending
        appended_to = pending.get
        for block in self.node.iter_blocks(from_block, to_block):
            for tx in block.transactions:
                for party in transaction_parties(tx):
                    if party in followed:
                        appended = appended_to(party)
                        if appended is None:
                            pending[party] = [tx]
                        else:
                            appended.append(tx)
        for transactions in pending.values():
            if len(transactions) > 1:
                transactions.sort(key=TX_CHAIN_ORDER)
        return pending
