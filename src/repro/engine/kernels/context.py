"""Money-flow caching for the kernel tier's detector pass.

The confirmation detectors re-derive the same per-account data for
every component an account appears in: common-funder / common-exit
re-walk the account's full transaction list to extract money flows
(re-running the moves-an-NFT log scan each time), and zero-risk
re-filters transaction lists per activity window.  Wash-trading
accounts by construction appear in *many* components, so the kernel
tier wraps the run's :class:`DetectionContext` in a caching layer.

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

The wrapper must only live as long as the underlying data stands still:
the batch executor builds one per run, and the streaming
scheduler wraps fresh on every tick (account transaction lists grow
between ticks).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.chain.transaction import Transaction
from repro.core.detectors.base import DetectionContext, MoneyFlow


class CachingDetectionContext(DetectionContext):
    """A :class:`DetectionContext` with per-account memoization."""

    def __init__(self, base: DetectionContext) -> None:
        super().__init__(
            dataset=base.dataset,
            labels=base.labels,
            is_contract=base.is_contract,
            config=base.config,
        )
        self._flow_cache: Dict[Tuple[str, str, bool], List[MoneyFlow]] = {}
        self._window_cache: Dict[str, Tuple[List[Transaction], List[int], bool]] = {}
        self._moves_nft_cache: Dict[str, bool] = {}

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
    def _full_flows(
        self, direction: str, account: str, pure_transfers_only: bool
    ) -> List[MoneyFlow]:
        key = (direction, account, pure_transfers_only)
        flows = self._flow_cache.get(key)
        if flows is None:
            if direction == "in":
                flows = super().incoming_flows(account, None, pure_transfers_only)
            else:
                flows = super().outgoing_flows(account, None, pure_transfers_only)
            self._flow_cache[key] = flows
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
    def _window_entry(
        self, account: str
    ) -> Tuple[List[Transaction], List[int], bool]:
        entry = self._window_cache.get(account)
        if entry is None:
            transactions = self.transactions_of(account)
            timestamps = [tx.timestamp for tx in transactions]
            monotone = all(
                earlier <= later
                for earlier, later in zip(timestamps, timestamps[1:])
            )
            entry = (transactions, timestamps, monotone)
            self._window_cache[account] = entry
        return entry

    def _window_slice(
        self, account: str, start_ts: int, end_ts: int
    ) -> Sequence[Transaction]:
        transactions, timestamps, monotone = self._window_entry(account)
        if not monotone:
            return [
                tx for tx in transactions if start_ts <= tx.timestamp <= end_ts
            ]
        low = bisect_left(timestamps, start_ts)
        high = bisect_right(timestamps, end_ts)
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
