"""Aggregate answers, each computed from one published version.

:class:`~repro.serve.query.QueryService` answers the aggregate query
families with these functions, through the dirty-token-keyed
:class:`~repro.serve.cache.AggregateCache`: a collection or marketplace
rollup is one pass over the version's confirmed records, and the funnel
statistics are read off the differentially maintained funnel the
version carries (:class:`~repro.engine.refine.FunnelMaintainer`), so
they are never recomputed on the serving path.  :func:`funnel_partial`
is the from-scratch refold the tests hold that maintained funnel
against.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Mapping

from repro.chain.types import NFTKey
from repro.engine.refine import STAGE_NAMES, StageAccumulator
from repro.serve.model import (
    ActivityRecord,
    CollectionRollup,
    FunnelPartial,
    FunnelSnapshot,
    MarketplaceRollup,
    ServeVersion,
)
from repro.stream.scheduler import TokenState


def funnel_partial(
    version: ServeVersion, states: Mapping[NFTKey, TokenState]
) -> FunnelPartial:
    """The version's funnel, refolded from the scheduler's token
    ``states`` as they stood when ``version`` was published (read them
    from a version subscriber) -- the oracle for the maintained
    ``version.funnel``."""
    merged = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidate_count = 0
    for state in states.values():
        candidate_count += len(state.candidates)
        for accumulator, record in zip(merged, state.stages):
            accumulator.fold(record)
    return FunnelPartial(
        version=version.version,
        stages=tuple(accumulator.freeze() for accumulator in merged),
        candidate_count=candidate_count,
        confirmed_count=version.confirmed_activity_count,
    )


def funnel_snapshot(version: ServeVersion) -> FunnelSnapshot:
    """The live funnel statistics of one version.

    ``version`` of the answer is the version the maintained funnel was
    last materialized at: a tick with no dirty token republishes the
    previous funnel unchanged.
    """
    funnel = version.funnel
    return FunnelSnapshot(
        version=funnel.version,
        stages=tuple(record.to_stage() for record in funnel.stages),
        candidate_count=funnel.candidate_count,
        confirmed_activity_count=funnel.confirmed_count,
    )


def _involvement(records: List[ActivityRecord]):
    """Method counts and the distinct accounts across ``records``."""
    methods: Counter = Counter()
    accounts: set = set()
    for record in records:
        methods.update(record.methods)
        accounts.update(record.accounts)
    return dict(methods), len(accounts)


def collection_rollup(version: ServeVersion, contract: str) -> CollectionRollup:
    """Aggregate wash status of one contract at one version."""
    records = [
        record for record in version.confirmed if record.nft.contract == contract
    ]
    method_counts, account_count = _involvement(records)
    return CollectionRollup(
        contract=contract,
        version=version.version,
        token_count=sum(1 for nft in version.token_order if nft.contract == contract),
        flagged_token_count=len({record.nft for record in records}),
        activity_count=len(records),
        volume_wei=sum(record.volume_wei for record in records),
        account_count=account_count,
        method_counts=method_counts,
        retraction_count=sum(
            status.retraction_count
            for nft, status in version.token_status.items()
            if nft.contract == contract
        ),
    )


def marketplace_rollup(version: ServeVersion, venue: str) -> MarketplaceRollup:
    """Aggregate wash status of one venue at one version."""
    records = [record for record in version.confirmed if record.venue == venue]
    method_counts, account_count = _involvement(records)
    return MarketplaceRollup(
        venue=venue,
        version=version.version,
        activity_count=len(records),
        flagged_nft_count=len({record.nft for record in records}),
        volume_wei=sum(record.volume_wei for record in records),
        account_count=account_count,
        method_counts=method_counts,
    )
