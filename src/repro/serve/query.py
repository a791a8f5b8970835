"""The concurrent query API over the versioned read model.

Every public method resolves the *current* version once (a single
atomic reference read) and answers entirely from that immutable
snapshot -- concurrent monitor ticks can publish new versions mid-query
without the answer ever mixing two states.  Callers can also pin a
version explicitly (``version=``) to ask several questions against the
same consistent state; explicitly pinned versions bypass the aggregate
cache, which only tracks the current generation.

Three query families:

* **Point lookups** -- :meth:`token_status`, :meth:`account_profile`:
  O(1) dictionary reads.
* **Listings** -- :meth:`list_confirmed`: filtered, paginated scans
  over the version's confirmed records with a stable ``(seq, key)``
  cursor, so pages never skip or duplicate records while the filter
  result is stable.
* **Aggregates** -- :meth:`funnel_stats`, :meth:`collection_rollup`,
  :meth:`marketplace_rollup`: computed from one version
  (:mod:`repro.serve.router`) and served through the index's
  dirty-token-keyed :class:`~repro.serve.cache.AggregateCache`.

Subscription cursors (:meth:`replay`) expose the monitor's alert
sequence numbers: a consumer that remembers the last ``seq`` it applied
can always catch back up -- including the ``ACTIVITY_RETRACTED``
revisions it must not miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TypeVar, Union

from repro.chain.types import NFTKey
from repro.core.activity import DetectionMethod
from repro.serve.cache import FUNNEL_SCOPE, Scope, collection_scope, venue_scope
from repro.serve.index import ServeIndex
from repro.serve.model import (
    AccountProfile,
    ActivityRecord,
    CollectionRollup,
    FunnelSnapshot,
    MarketplaceRollup,
    RecordKey,
    ServeVersion,
    TokenStatus,
)
from repro.serve.router import collection_rollup, funnel_snapshot, marketplace_rollup
from repro.stream.alerts import Alert

Answer = TypeVar("Answer")

#: Opaque pagination cursor: the (seq, key) sort coordinate of the last
#: record of the previous page.
PageCursor = Tuple[int, RecordKey]


@dataclass(frozen=True)
class ConfirmedPage:
    """One page of a filtered confirmed-activity listing."""

    records: Tuple[ActivityRecord, ...]
    #: Pass back as ``cursor=`` to fetch the next page; None when this
    #: page exhausted the listing.
    next_cursor: Optional[PageCursor]
    #: Records matching the filter across all pages.
    total_matched: int
    #: Version the page was served from (stable pagination requires
    #: passing it back via ``version=`` on subsequent pages).
    version: int


class AlertReplayCursor:
    """A resumable subscription over the append-only alert stream.

    Holds a position (the last consumed ``seq``); :meth:`poll` returns
    everything published since and advances.  Late joiners start from
    ``since_seq=-1`` and replay the full history -- confirmations and
    the retraction revisions alike, in publication order.
    """

    def __init__(self, index: ServeIndex, since_seq: int = -1) -> None:
        self._index = index
        self.position = since_seq

    @property
    def lag(self) -> int:
        """Alerts published but not yet consumed by this cursor."""
        return self._index.last_seq - self.position

    def poll(self, limit: Optional[int] = None) -> Tuple[Alert, ...]:
        """Consume (up to ``limit``) alerts after the cursor position."""
        batch = self._index.alerts_since(self.position, limit)
        if batch:
            self.position = batch[-1].seq
        return batch


class QueryService:
    """Thread-safe read API over a :class:`ServeIndex`."""

    def __init__(self, index: ServeIndex) -> None:
        self.index = index

    # -- versions ----------------------------------------------------------
    def version(self) -> ServeVersion:
        """Pin the current version (the snapshot-isolation handle)."""
        return self.index.current

    # -- point lookups -----------------------------------------------------
    def token_status(
        self,
        nft: Union[NFTKey, str],
        token_id: Optional[int] = None,
        version: Optional[ServeVersion] = None,
    ) -> TokenStatus:
        """Wash status of one NFT (``NFTKey`` or contract + token id)."""
        if not isinstance(nft, NFTKey):
            if token_id is None:
                raise ValueError("token_id is required with a contract address")
            nft = NFTKey(contract=nft, token_id=token_id)
        return (version or self.version()).status_of(nft)

    def account_profile(
        self, address: str, version: Optional[ServeVersion] = None
    ) -> AccountProfile:
        """Involvement summary of one account (empty when clean)."""
        return (version or self.version()).profile_of(address)

    # -- listings ----------------------------------------------------------
    def list_confirmed(
        self,
        method: Optional[DetectionMethod] = None,
        venue: Optional[str] = None,
        since_block: Optional[int] = None,
        limit: int = 50,
        cursor: Optional[PageCursor] = None,
        version: Optional[ServeVersion] = None,
    ) -> ConfirmedPage:
        """Filtered, paginated listing of currently confirmed activities.

        ``method`` keeps activities confirmed by that technique;
        ``venue`` keeps activities whose dominant marketplace matches
        (:data:`~repro.serve.model.OFF_MARKET` selects venue-less
        activity); ``since_block`` keeps activities confirmed at or
        after the block.  Records come out in confirmation order.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        pinned = version or self.version()
        matched = [
            record
            for record in pinned.confirmed
            if (method is None or method in record.methods)
            and (venue is None or record.venue == venue)
            and (since_block is None or record.confirmed_at_block >= since_block)
        ]
        start = 0
        if cursor is not None:
            while start < len(matched) and (
                (matched[start].seq, matched[start].key) <= cursor
            ):
                start += 1
        page = tuple(matched[start : start + limit])
        exhausted = start + limit >= len(matched)
        return ConfirmedPage(
            records=page,
            next_cursor=(
                None if exhausted or not page else (page[-1].seq, page[-1].key)
            ),
            total_matched=len(matched),
            version=pinned.version,
        )

    # -- aggregates (cached) -----------------------------------------------
    def funnel_stats(self, version: Optional[ServeVersion] = None) -> FunnelSnapshot:
        """Live refinement-funnel statistics (batch-identical)."""
        return self._aggregate(("funnel",), FUNNEL_SCOPE, funnel_snapshot, version)

    def collection_rollup(
        self, contract: str, version: Optional[ServeVersion] = None
    ) -> CollectionRollup:
        """Aggregate wash status of one contract."""
        return self._aggregate(
            ("collection", contract),
            collection_scope(contract),
            lambda pinned: collection_rollup(pinned, contract),
            version,
        )

    def marketplace_rollup(
        self, venue: str, version: Optional[ServeVersion] = None
    ) -> MarketplaceRollup:
        """Aggregate wash status of one venue (by dominant marketplace)."""
        return self._aggregate(
            ("venue", venue),
            venue_scope(venue),
            lambda pinned: marketplace_rollup(pinned, venue),
            version,
        )

    def collections(self, version: Optional[ServeVersion] = None) -> Tuple[str, ...]:
        """Every contract known to the store, in first-seen order."""
        pinned = version or self.version()
        seen = dict.fromkeys(nft.contract for nft in pinned.token_order)
        return tuple(seen)

    def venues(self, version: Optional[ServeVersion] = None) -> Tuple[str, ...]:
        """Venues carrying at least one confirmed activity, sorted."""
        pinned = version or self.version()
        return tuple(sorted({record.venue for record in pinned.confirmed}))

    # -- subscriptions -----------------------------------------------------
    def replay(self, since_seq: int = -1) -> AlertReplayCursor:
        """A resumable alert cursor starting after ``since_seq``."""
        return AlertReplayCursor(self.index, since_seq)

    # -- internals ---------------------------------------------------------
    def _aggregate(
        self,
        key: Tuple,
        scope: Scope,
        compute: Callable[[ServeVersion], Answer],
        version: Optional[ServeVersion],
    ) -> Answer:
        """One aggregate, through the cache unless a version is pinned.

        The current version is resolved inside the compute closure,
        *after* the cache captured its scope generations: a tick racing
        the query can only make the computed value fresher than the
        captured generations (and the store is then discarded), never
        staler -- see :meth:`AggregateCache.get_or_compute`.
        """
        if version is not None:
            return compute(version)
        return self.index.cache.get_or_compute(
            key, (scope,), lambda: compute(self.version())
        )
