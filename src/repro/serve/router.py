"""Scatter-gather query routing over a partitioned serving index.

:class:`ShardRouter` presents the exact :class:`~repro.serve.query.QueryService`
surface over a :class:`~repro.serve.sharding.ShardedServeIndex`.  Point
lookups need no routing logic at all -- the :class:`GlobalVersion` they
resolve hash-routes per key -- and listings ride the version's lazy
``(seq, key)`` k-way merge.  The aggregates are where sharding earns
its keep: each is decomposed into an associative per-shard *partial*,
cached in that shard's own :class:`~repro.serve.cache.AggregateCache`,
and merged at query time.  Because each shard's cache is invalidated
only by its own slice of the dirty set, a tick touching tokens in one
shard leaves every other shard's partials warm -- the recompute cost of
an aggregate scales with the *touched* fraction of the world, not with
the world.  On top of the partial caches sits the coordinator's
merged-result memo (:attr:`ShardedServeIndex.router_cache`), so a warm
aggregate costs a single lookup, exactly like the single-index cache;
the gather-and-merge runs only when the tick's dirty union actually
touched the queried scope.

Consistency: unpinned aggregates gather each shard's partial with the
same freshness contract as the single-cache design (the shard version
is resolved inside the compute closure, after the cache captures its
generations, so a racing tick can only discard a computed value, never
poison the cache).  A cached partial may legitimately carry an older
computed-at version -- nothing invalidated it since, exactly like a
single-index cached answer -- so torn reads are detected not by
comparing partial versions but by the coordinator's publication
seqlock: the gather is accepted only if
:attr:`ShardedServeIndex.publish_seq` was stable and even across it,
i.e. no flip+invalidate overlapped the reads.  On the rare racing
gather the router falls back to an uncached compute against one pinned
:class:`GlobalVersion` -- answers are therefore always computed from a
single globally consistent snapshot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.chain.types import NFTKey
from repro.engine.refine import STAGE_NAMES, StageAccumulator
from repro.engine.views import tokens_per_collection
from repro.serve.cache import FUNNEL_SCOPE, collection_scope, venue_scope
from repro.serve.funnel import FunnelPartial
from repro.serve.model import (
    CollectionRollup,
    FunnelSnapshot,
    MarketplaceRollup,
    ServeVersion,
)
from repro.serve.query import QueryService
from repro.serve.sharding import GlobalVersion, ShardedServeIndex, shard_of


@dataclass(frozen=True)
class CollectionPartial:
    """One shard's contribution to a collection rollup.

    Counts that partition across shards (tokens, activities, volume,
    retractions) are carried as numbers; identities that can span
    shards (accounts) or must be deduplicated (flagged NFTs) are
    carried as frozensets so the gather step can union-merge them
    without double counting.
    """

    version: int
    token_count: int
    flagged: FrozenSet[NFTKey]
    activity_count: int
    volume_wei: int
    accounts: FrozenSet[str]
    method_counts: Tuple[Tuple[object, int], ...]
    retraction_count: int


@dataclass(frozen=True)
class MarketplacePartial:
    """One shard's contribution to a marketplace rollup."""

    version: int
    flagged: FrozenSet[NFTKey]
    activity_count: int
    volume_wei: int
    accounts: FrozenSet[str]
    method_counts: Tuple[Tuple[object, int], ...]


def funnel_partial(
    version: ServeVersion, shard_index: Optional[int] = None
) -> FunnelPartial:
    """One shard version's funnel partial.

    Shard versions carry their differentially maintained partial (see
    :mod:`repro.serve.funnel`) -- returning it is O(1) and exact.  The
    fold over ``token_states`` remains as the fallback for versions
    published without a maintainer (it is also the parity oracle the
    tests compare the maintained partial against).
    """
    if version.funnel is not None:
        return version.funnel
    merged = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidate_count = 0
    for state in version.token_states.values():
        candidate_count += len(state.candidates)
        for accumulator, record in zip(merged, state.stages):
            accumulator.fold(record)
    return FunnelPartial(
        version=version.version,
        stages=tuple(accumulator.freeze() for accumulator in merged),
        candidate_count=candidate_count,
        confirmed_count=version.confirmed_activity_count,
    )


def collection_partial(version: ServeVersion, contract: str) -> CollectionPartial:
    """One shard version's slice of a collection rollup."""
    records = [
        record for record in version.confirmed if record.nft.contract == contract
    ]
    methods: Counter = Counter()
    accounts = set()
    for record in records:
        methods.update(record.methods)
        accounts.update(record.accounts)
    return CollectionPartial(
        version=version.version,
        token_count=tokens_per_collection(version.token_order).get(contract, 0),
        flagged=frozenset(record.nft for record in records),
        activity_count=len(records),
        volume_wei=sum(record.volume_wei for record in records),
        accounts=frozenset(accounts),
        method_counts=tuple(methods.items()),
        retraction_count=sum(
            status.retraction_count
            for nft, status in version.token_status.items()
            if nft.contract == contract
        ),
    )


def marketplace_partial(version: ServeVersion, venue: str) -> MarketplacePartial:
    """One shard version's slice of a marketplace rollup."""
    records = [record for record in version.confirmed if record.venue == venue]
    methods: Counter = Counter()
    accounts = set()
    for record in records:
        methods.update(record.methods)
        accounts.update(record.accounts)
    return MarketplacePartial(
        version=version.version,
        flagged=frozenset(record.nft for record in records),
        activity_count=len(records),
        volume_wei=sum(record.volume_wei for record in records),
        accounts=frozenset(accounts),
        method_counts=tuple(methods.items()),
    )


def merge_funnel(partials: List[FunnelPartial]) -> FunnelSnapshot:
    """Gather per-shard funnel partials into the global snapshot.

    Stage merging is associative and the account-id unions deduplicate
    accounts appearing in several shards, so the result is identical to
    the single-index computation over the merged token states.  A
    cached partial may carry an older computed-at version (still valid
    -- nothing invalidated it since), so the merged snapshot reports
    the newest contributing one, matching the single-cache semantics of
    "the version this answer was last computed at".
    """
    totals = [StageAccumulator(name=name) for name in STAGE_NAMES]
    for partial in partials:
        for total, record in zip(totals, partial.stages):
            total.fold(record)
    return FunnelSnapshot(
        version=max(partial.version for partial in partials),
        stages=tuple(total.to_stage() for total in totals),
        candidate_count=sum(partial.candidate_count for partial in partials),
        confirmed_activity_count=sum(
            partial.confirmed_count for partial in partials
        ),
    )


def merge_collection(
    contract: str, partials: List[CollectionPartial]
) -> CollectionRollup:
    """Gather per-shard collection partials into the global rollup."""
    methods: Counter = Counter()
    flagged: set = set()
    accounts: set = set()
    for partial in partials:
        methods.update(dict(partial.method_counts))
        flagged.update(partial.flagged)
        accounts.update(partial.accounts)
    return CollectionRollup(
        contract=contract,
        version=max(partial.version for partial in partials),
        token_count=sum(partial.token_count for partial in partials),
        flagged_token_count=len(flagged),
        activity_count=sum(partial.activity_count for partial in partials),
        volume_wei=sum(partial.volume_wei for partial in partials),
        account_count=len(accounts),
        method_counts=dict(methods),
        retraction_count=sum(partial.retraction_count for partial in partials),
    )


def merge_marketplace(
    venue: str, partials: List[MarketplacePartial]
) -> MarketplaceRollup:
    """Gather per-shard marketplace partials into the global rollup."""
    methods: Counter = Counter()
    flagged: set = set()
    accounts: set = set()
    for partial in partials:
        methods.update(dict(partial.method_counts))
        flagged.update(partial.flagged)
        accounts.update(partial.accounts)
    return MarketplaceRollup(
        venue=venue,
        version=max(partial.version for partial in partials),
        activity_count=sum(partial.activity_count for partial in partials),
        flagged_nft_count=len(flagged),
        volume_wei=sum(partial.volume_wei for partial in partials),
        account_count=len(accounts),
        method_counts=dict(methods),
    )


class ShardRouter(QueryService):
    """The :class:`QueryService` surface over a sharded index.

    Inherits every point lookup, listing and subscription verb
    unchanged (they operate on :class:`GlobalVersion`'s duck-typed
    ``ServeVersion`` surface) and overrides the three aggregates with
    cached scatter-gather decompositions.
    """

    def __init__(self, index: ShardedServeIndex) -> None:
        super().__init__(index, cache=None)

    @property
    def shard_count(self) -> int:
        return self.index.shard_count

    # -- aggregates (scatter-gather) ---------------------------------------
    def funnel_stats(
        self, version: Optional[GlobalVersion] = None
    ) -> FunnelSnapshot:
        return self._merged(
            ("funnel",), (FUNNEL_SCOPE,), funnel_partial, merge_funnel, version
        )

    def collection_rollup(
        self, contract: str, version: Optional[GlobalVersion] = None
    ) -> CollectionRollup:
        # Contract-aligned routing makes a collection rollup a
        # *single-shard* question: every token of the contract lives on
        # its owner shard, so the other shards' partials are provably
        # empty and are never computed, let alone gathered.
        owner = shard_of(NFTKey(contract=contract, token_id=0), self.shard_count)
        return self._merged(
            ("collection", contract),
            (collection_scope(contract),),
            lambda shard, index: collection_partial(shard, contract),
            lambda partials: merge_collection(contract, partials),
            version,
            indices=(owner,),
        )

    def marketplace_rollup(
        self, venue: str, version: Optional[GlobalVersion] = None
    ) -> MarketplaceRollup:
        return self._merged(
            ("venue", venue),
            (venue_scope(venue),),
            lambda shard, index: marketplace_partial(shard, venue),
            lambda partials: merge_marketplace(venue, partials),
            version,
        )

    def venues(self, version: Optional[GlobalVersion] = None) -> Tuple[str, ...]:
        """Venue union over the shards, without the global record merge."""
        pinned = version or self.version()
        found: set = set()
        for shard in pinned.shards:
            found.update(record.venue for record in shard.confirmed)
        return tuple(sorted(found))

    # -- internals ---------------------------------------------------------
    def _merged(
        self,
        key: Tuple,
        scopes: Tuple,
        compute: Callable[[ServeVersion, Optional[int]], object],
        merge: Callable[[List], object],
        version: Optional[GlobalVersion],
        indices: Optional[Tuple[int, ...]] = None,
    ):
        """One merged aggregate through the two cache levels.

        Warm answers come out of the coordinator's merged-result memo
        at one-lookup cost, exactly like the single-index cache.  On a
        miss (the tick's dirty union touched this scope) the gather
        resolves per shard, where the untouched shards still answer
        their partials from their own caches -- the recompute cost is
        paid only by the shards the tick dirtied.  ``indices`` narrows
        the gather to the shards that can contribute at all (the owner
        shard, for collection rollups); the partition makes every other
        shard's partial structurally empty for any version, pinned ones
        included.
        """
        if version is not None:
            return merge(
                [
                    compute(version.shards[index], None)
                    for index in self._indices(indices)
                ]
            )
        memo = self.index.router_cache
        if memo is None:
            return merge(self._gather(key, scopes, compute, indices))
        return memo.get_or_compute(
            key,
            scopes,
            lambda: merge(self._gather(key, scopes, compute, indices)),
        )

    def _indices(self, indices: Optional[Tuple[int, ...]]) -> Tuple[int, ...]:
        if indices is None:
            return tuple(range(self.shard_count))
        return indices

    def _gather(
        self,
        key: Tuple,
        scopes: Tuple,
        compute: Callable[[ServeVersion, Optional[int]], object],
        indices: Optional[Tuple[int, ...]] = None,
    ) -> List:
        """Per-shard partials, each from its shard's cache when possible.

        The partials resolve the live global handle *inside* the
        compute closure (the cache-safety ordering) and the whole
        gather is validated against the coordinator's publication
        seqlock; a gather overlapping a flip+invalidate falls back to
        one uncached pinned compute so the merged answer never mixes
        ticks.
        """
        start = self.index.publish_seq
        if start % 2 == 0:
            partials = []
            for index in self._indices(indices):
                cache = self.index.caches[index]

                def closure(shard_index: int = index):
                    return compute(
                        self.index.current.shards[shard_index], shard_index
                    )

                if cache is None:
                    partials.append(closure())
                else:
                    partials.append(cache.get_or_compute(key, scopes, closure))
            if self.index.publish_seq == start:
                return partials
        pinned = self.version()
        return [
            compute(pinned.shards[index], None)
            for index in self._indices(indices)
        ]
