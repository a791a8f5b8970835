"""The production detection context: per-account money-flow caching.

The confirmation detectors re-derive the same per-account data for
every component an account appears in: common-funder / common-exit
re-walk the account's full transaction list to extract money flows
(re-running the moves-an-NFT log scan each time), and zero-risk
re-filters transaction lists per activity window.  Wash-trading
accounts by construction appear in *many* components, so the columnar
engine and the streaming scheduler wrap their :class:`DetectionContext`
in a caching layer.  The legacy pipeline keeps the plain context as the
oracle.

The caching is exactly output-preserving:

* Flow lists are cached unfiltered (``before_ts``/``after_ts`` of
  ``None``) and filtered per call on ``flow.timestamp``.  The base
  implementation filters on ``tx.timestamp`` while iterating, and every
  flow of a transaction carries that transaction's timestamp, so
  post-filtering the full list keeps exactly the same flows in the same
  order.
* ``transactions_in_window`` slices each account's transaction list
  with a bisect over timestamps when the list is timestamp-monotone
  (chain order -- the common case), preserving iteration order, and
  falls back to the linear filter otherwise; the first-seen hash dedupe
  and final ``(block_number, hash)`` sort then behave identically.

Each account's entry is a snapshot of its transaction list plus what
was derived from it, so it stays exact only while the list stands
still -- or is told how the list moved.  The batch executor builds one
wrapper per run.  The streaming scheduler keeps one for its whole life
and, before it detects again, calls :meth:`refresh` with every account
whose list changed: a list that only grew has its new suffix folded
into the entry (flows are extracted per transaction, so the extended
lists equal a rebuild), any other change drops the entry.  Accounts
leaving the scheduler's candidate-member index are dropped with
:meth:`forget`, so the cache never outgrows that index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.transaction import Transaction
from repro.core.detectors.base import DetectionContext, MoneyFlow


class _AccountEntry:
    """One account's cached view: a snapshot of its transaction list,
    the snapshot's timestamps, and the money flows derived from it."""

    __slots__ = ("transactions", "timestamps", "monotone", "flows")

    def __init__(self) -> None:
        self.transactions: List[Transaction] = []
        self.timestamps: List[int] = []
        #: Timestamps non-decreasing, so windows can bisect.
        self.monotone = True
        #: (direction, pure_transfers_only) -> unfiltered flows.
        self.flows: Dict[Tuple[str, bool], List[MoneyFlow]] = {}


class CachingDetectionContext(DetectionContext):
    """A :class:`DetectionContext` with per-account memoization."""

    def __init__(self, base: DetectionContext) -> None:
        super().__init__(
            dataset=base.dataset,
            labels=base.labels,
            is_contract=base.is_contract,
            config=base.config,
        )
        #: The wrapped context; a caller holding a wrapper across calls
        #: checks it still wraps the context it was handed.
        self.base = base
        self._entries: Dict[str, _AccountEntry] = {}
        self._moves_nft_cache: Dict[str, bool] = {}

    def refresh(self, changes: Mapping[str, Optional[int]]) -> None:
        """Bring the entries of changed accounts up to date.

        ``changes`` maps each account whose list changed to the earliest
        timestamp of the change, or to ``None`` when the list may have
        changed anywhere (it was truncated or replaced).  A timestamp
        means the list only grew at its end: the new suffix is folded
        into the entry.  ``None`` drops the entry.

        The moves-an-NFT memo is keyed by transaction, not account, so
        it is cleared whole: cached flows never need it again, and it
        only has to serve the flows built from now on.
        """
        self._moves_nft_cache.clear()
        for account, since in changes.items():
            entry = self._entries.get(account)
            if entry is None:
                continue
            if since is None:
                del self._entries[account]
            else:
                live = self.transactions_of(account)
                self._extend(account, entry, live[len(entry.transactions) :])

    def forget(self, accounts: Iterable[str]) -> None:
        """Drop the entries of ``accounts``."""
        for account in accounts:
            self._entries.pop(account, None)

    def _entry(self, account: str) -> _AccountEntry:
        entry = self._entries.get(account)
        if entry is None:
            entry = self._entries[account] = _AccountEntry()
            self._extend(account, entry, self.transactions_of(account))
        return entry

    def _extend(
        self, account: str, entry: _AccountEntry, suffix: Sequence[Transaction]
    ) -> None:
        """Append ``suffix`` to the entry's snapshot and derived data."""
        if not suffix:
            return
        added = [tx.timestamp for tx in suffix]
        timestamps = entry.timestamps
        entry.monotone = (
            entry.monotone
            and (not timestamps or timestamps[-1] <= added[0])
            and all(earlier <= later for earlier, later in zip(added, added[1:]))
        )
        entry.transactions.extend(suffix)
        timestamps.extend(added)
        for (direction, pure_transfers_only), flows in entry.flows.items():
            flows.extend(self._flows_over(direction, account, suffix, pure_transfers_only))

    def _tx_moves_an_nft(self, tx: Transaction) -> bool:
        """Memoized per transaction: the same transaction sits in both of
        its endpoints' histories, so the base log scan runs twice or more
        per tx; the answer is a pure function of the transaction."""
        cached = self._moves_nft_cache.get(tx.hash)
        if cached is None:
            cached = DetectionContext._tx_moves_an_nft(tx)
            self._moves_nft_cache[tx.hash] = cached
        return cached

    # -- money flows -------------------------------------------------------
    def _flows_over(
        self,
        direction: str,
        account: str,
        transactions: Sequence[Transaction],
        pure_transfers_only: bool,
    ) -> List[MoneyFlow]:
        if direction == "in":
            return self._incoming_over(account, transactions, None, pure_transfers_only)
        return self._outgoing_over(account, transactions, None, pure_transfers_only)

    def _full_flows(
        self, direction: str, account: str, pure_transfers_only: bool
    ) -> List[MoneyFlow]:
        entry = self._entry(account)
        key = (direction, pure_transfers_only)
        flows = entry.flows.get(key)
        if flows is None:
            flows = entry.flows[key] = self._flows_over(
                direction, account, entry.transactions, pure_transfers_only
            )
        return flows

    def incoming_flows(
        self, account: str, before_ts: Optional[int] = None, pure_transfers_only: bool = True
    ) -> List[MoneyFlow]:
        flows = self._full_flows("in", account, pure_transfers_only)
        if before_ts is None:
            return list(flows)
        return [flow for flow in flows if flow.timestamp < before_ts]

    def outgoing_flows(
        self, account: str, after_ts: Optional[int] = None, pure_transfers_only: bool = True
    ) -> List[MoneyFlow]:
        flows = self._full_flows("out", account, pure_transfers_only)
        if after_ts is None:
            return list(flows)
        return [flow for flow in flows if flow.timestamp > after_ts]

    # -- windowed transaction access ---------------------------------------
    def _window_slice(
        self, account: str, start_ts: int, end_ts: int
    ) -> Sequence[Transaction]:
        entry = self._entry(account)
        transactions = entry.transactions
        if not entry.monotone:
            return [
                tx for tx in transactions if start_ts <= tx.timestamp <= end_ts
            ]
        low = bisect_left(entry.timestamps, start_ts)
        high = bisect_right(entry.timestamps, end_ts)
        return transactions[low:high]

    def transactions_in_window(
        self, accounts: Iterable[str], start_ts: int, end_ts: int
    ) -> List[Transaction]:
        seen: Set[str] = set()
        collected: List[Transaction] = []
        for account in accounts:
            for tx in self._window_slice(account, start_ts, end_ts):
                if tx.hash in seen:
                    continue
                seen.add(tx.hash)
                collected.append(tx)
        collected.sort(key=lambda tx: (tx.block_number, tx.hash))
        return collected
