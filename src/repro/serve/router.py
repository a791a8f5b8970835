"""Scatter-gather aggregate partials over the sharded read model.

:class:`~repro.serve.query.QueryService` answers every aggregate by
decomposing it into an associative per-shard *partial*, cached in that
shard's own :class:`~repro.serve.cache.AggregateCache`, and merged at
query time.  This module holds the partials and their merges.  Because
each shard's cache is invalidated only by its own slice of the dirty
set, a tick touching tokens in one shard leaves every other shard's
partials warm -- the recompute cost of an aggregate scales with the
*touched* fraction of the world, not with the world.

The funnel partial is not recomputed at all on the serving path: each
shard version carries the differentially maintained one
(:mod:`repro.serve.funnel`).  :func:`funnel_partial` is the from-scratch
refold the tests hold that maintained partial against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.chain.types import NFTKey
from repro.engine.refine import STAGE_NAMES, StageAccumulator
from repro.serve.funnel import FunnelPartial
from repro.serve.model import (
    CollectionRollup,
    FunnelSnapshot,
    MarketplaceRollup,
    ServeVersion,
)


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


def funnel_partial(version: ServeVersion) -> FunnelPartial:
    """One shard version's funnel partial, refolded from its token
    states (the oracle for the maintained ``version.funnel``)."""
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
        token_count=sum(1 for nft in version.token_states if nft.contract == contract),
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
    a fold over the merged token states.  A cached partial may carry an
    older computed-at version (still valid -- nothing invalidated it
    since), so the merged snapshot reports the newest contributing one:
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
