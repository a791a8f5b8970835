"""The concurrent query API over the sharded read model.

Every public method resolves the *current* version once (a single
atomic reference read) and answers entirely from that immutable
snapshot -- concurrent monitor ticks can publish new versions mid-query
without the answer ever mixing two states.  Callers can also pin a
version explicitly (``version=``) to ask several questions against the
same consistent state; explicitly pinned versions bypass the aggregate
caches, which only track the current generation.

Three query families:

* **Point lookups** -- :meth:`token_status`, :meth:`account_profile`:
  O(1) dictionary reads, hash-routed to the owner shard by the
  :class:`~repro.serve.sharding.GlobalVersion` they resolve.
* **Listings** -- :meth:`list_confirmed`: filtered, paginated scans
  over the version's confirmed records (the shards' ``(seq, key)``
  k-way merge) with a stable cursor, so pages never skip or duplicate
  records while the filter result is stable.
* **Aggregates** -- :meth:`funnel_stats`, :meth:`collection_rollup`,
  :meth:`marketplace_rollup`: scatter-gather over per-shard partials
  (:mod:`repro.serve.router`), each cached in its shard's
  dirty-token-keyed :class:`~repro.serve.cache.AggregateCache`, under
  the coordinator's merged-result memo.

Consistency of the gather: a cached partial may legitimately carry an
older computed-at version (nothing invalidated it since), so torn reads
are detected not by comparing partial versions but by the
coordinator's publication seqlock -- the gather is accepted only if
:attr:`~repro.serve.sharding.ShardedServeIndex.publish_seq` was stable
and even across it, i.e. no flip+invalidate overlapped the reads.  On
the rare racing gather the query falls back to an uncached compute
against one pinned global version, so answers always come from a
single globally consistent snapshot.

Subscription cursors (:meth:`replay`) expose the monitor's alert
sequence numbers: a consumer that remembers the last ``seq`` it applied
can always catch back up -- including the ``ACTIVITY_RETRACTED``
revisions it must not miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.chain.types import NFTKey
from repro.core.activity import DetectionMethod
from repro.serve.cache import FUNNEL_SCOPE, collection_scope, venue_scope
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
from repro.serve.router import (
    collection_partial,
    marketplace_partial,
    merge_collection,
    merge_funnel,
    merge_marketplace,
)
from repro.serve.sharding import GlobalVersion, ShardedServeIndex, contract_shard
from repro.stream.alerts import Alert

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

    def __init__(self, index: ShardedServeIndex, since_seq: int = -1) -> None:
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
    """Thread-safe read API over a :class:`ShardedServeIndex`."""

    def __init__(self, index: ShardedServeIndex) -> None:
        self.index = index

    @property
    def shard_count(self) -> int:
        return self.index.shard_count

    # -- versions ----------------------------------------------------------
    def version(self) -> GlobalVersion:
        """Pin the current version (the snapshot-isolation handle)."""
        return self.index.current

    # -- point lookups -----------------------------------------------------
    def token_status(
        self,
        nft: Union[NFTKey, str],
        token_id: Optional[int] = None,
        version: Optional[GlobalVersion] = None,
    ) -> TokenStatus:
        """Wash status of one NFT (``NFTKey`` or contract + token id)."""
        if not isinstance(nft, NFTKey):
            if token_id is None:
                raise ValueError("token_id is required with a contract address")
            nft = NFTKey(contract=nft, token_id=token_id)
        return (version or self.version()).status_of(nft)

    def account_profile(
        self, address: str, version: Optional[GlobalVersion] = None
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
        version: Optional[GlobalVersion] = None,
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

    # -- aggregates (scatter-gather) ---------------------------------------
    def funnel_stats(self, version: Optional[GlobalVersion] = None) -> FunnelSnapshot:
        """Live refinement-funnel statistics (batch-identical).

        Each shard version carries its maintained partial, so the
        gather reads one field per shard.
        """
        return self._merged(
            ("funnel",),
            (FUNNEL_SCOPE,),
            lambda shard: shard.funnel,
            merge_funnel,
            version,
        )

    def collection_rollup(
        self, contract: str, version: Optional[GlobalVersion] = None
    ) -> CollectionRollup:
        """Aggregate wash status of one contract."""
        # Contract-aligned routing makes a collection rollup a
        # *single-shard* question: every token of the contract lives on
        # its owner shard, so the other shards' partials are provably
        # empty and are never computed, let alone gathered.
        owner = contract_shard(contract, self.shard_count)
        return self._merged(
            ("collection", contract),
            (collection_scope(contract),),
            lambda shard: collection_partial(shard, contract),
            lambda partials: merge_collection(contract, partials),
            version,
            indices=(owner,),
        )

    def marketplace_rollup(
        self, venue: str, version: Optional[GlobalVersion] = None
    ) -> MarketplaceRollup:
        """Aggregate wash status of one venue (by dominant marketplace)."""
        return self._merged(
            ("venue", venue),
            (venue_scope(venue),),
            lambda shard: marketplace_partial(shard, venue),
            lambda partials: merge_marketplace(venue, partials),
            version,
        )

    def collections(self, version: Optional[GlobalVersion] = None) -> Tuple[str, ...]:
        """Every contract known to the store, in first-seen order."""
        pinned = version or self.version()
        seen = dict.fromkeys(nft.contract for nft in pinned.token_order)
        return tuple(seen)

    def venues(self, version: Optional[GlobalVersion] = None) -> Tuple[str, ...]:
        """Venues carrying at least one confirmed activity, sorted.

        A union over the shards, without the global record merge.
        """
        pinned = version or self.version()
        found: set = set()
        for shard in pinned.shards:
            found.update(record.venue for record in shard.confirmed)
        return tuple(sorted(found))

    # -- subscriptions -----------------------------------------------------
    def replay(self, since_seq: int = -1) -> AlertReplayCursor:
        """A resumable alert cursor starting after ``since_seq``."""
        return AlertReplayCursor(self.index, since_seq)

    # -- internals ---------------------------------------------------------
    def _merged(
        self,
        key: Tuple,
        scopes: Tuple,
        compute: Callable[[ServeVersion], object],
        merge: Callable[[List], object],
        version: Optional[GlobalVersion],
        indices: Optional[Tuple[int, ...]] = None,
    ):
        """One merged aggregate through the two cache levels.

        Warm answers come out of the coordinator's merged-result memo
        at one-lookup cost.  On a miss (the tick's dirty union touched
        this scope) the gather resolves per shard, where the untouched
        shards still answer their partials from their own caches -- the
        recompute cost is paid only by the shards the tick dirtied.
        ``indices`` narrows the gather to the shards that can
        contribute at all (the owner shard, for collection rollups); the
        partition makes every other shard's partial structurally empty
        for any version, pinned ones included.
        """
        indices = range(self.shard_count) if indices is None else indices
        if version is not None:
            return merge([compute(version.shards[index]) for index in indices])

        def gather():
            return merge(self._gather(key, scopes, compute, indices))

        memo = self.index.router_cache
        if memo is None:
            return gather()
        return memo.get_or_compute(key, scopes, gather)

    def _gather(
        self,
        key: Tuple,
        scopes: Tuple,
        compute: Callable[[ServeVersion], object],
        indices: Iterable[int],
    ) -> List:
        """Per-shard partials, each from its shard's cache when possible.

        The partials resolve the live global handle *inside* the
        compute closure (the cache-safety ordering) and the whole
        gather is validated against the coordinator's publication
        seqlock; a gather overlapping a flip+invalidate falls back to
        one uncached pinned compute so the merged answer never mixes
        ticks.
        """
        index = self.index
        start = index.publish_seq
        if start % 2 == 0:
            partials = []
            for shard_index in indices:
                cache = index.caches[shard_index]

                def closure(shard_index: int = shard_index):
                    return compute(index.current.shards[shard_index])

                if cache is None:
                    partials.append(closure())
                else:
                    partials.append(cache.get_or_compute(key, scopes, closure))
            if index.publish_seq == start:
                return partials
        pinned = self.version()
        return [compute(pinned.shards[shard_index]) for shard_index in indices]
