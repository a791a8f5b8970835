"""Differentially maintained funnel statistics for the sharded live path.

The monolithic :class:`~repro.serve.index.ServeIndex` answers
``funnel_stats`` by folding every token state's per-stage records
into one :class:`~repro.serve.model.FunnelSnapshot` -- O(world) per
recompute, paid on every query that misses the cache.  The partitioned
refactor makes a better contract possible: each shard's funnel
contribution is an associative *partial*, and every per-token stage
statistic is **invertible** -- ``nft_count`` and ``component_count``
subtract, and the distinct-account union becomes a multiset
(account id -> number of contributing tokens) whose key set *is* the
distinct union.  So a shard can maintain its funnel partial by applying
only the tick's dirty delta (retire the old token state, install the
new one) and materialize the partial once per published version --
O(dirty slice) per tick instead of O(shard) per query.

The materialized :class:`FunnelPartial` rides the immutable
:class:`~repro.serve.model.ServeVersion` itself, so readers get it with
the same snapshot-isolation guarantees as every other container: there
is no query-time window in which a half-applied delta could be
observed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.engine.refine import STAGE_NAMES, StageRecord


@dataclass(frozen=True)
class FunnelPartial:
    """One shard's contribution to the refinement funnel."""

    version: int
    #: One immutable record per stage, so cached partials are
    #: read-only under cross-thread merges.
    stages: Tuple[StageRecord, ...]
    candidate_count: int
    confirmed_count: int


class _StageCounts:
    """Invertible statistics of one funnel stage across a shard."""

    __slots__ = ("nft_count", "component_count", "account_tokens")

    def __init__(self) -> None:
        self.nft_count = 0
        self.component_count = 0
        #: account id -> number of this shard's tokens contributing it;
        #: the key set is exactly the stage's distinct account union.
        self.account_tokens: Counter = Counter()

    def apply(self, stage: StageRecord, sign: int) -> None:
        if not stage.nft_count:
            return
        self.nft_count += sign * stage.nft_count
        self.component_count += sign * stage.component_count
        counts = self.account_tokens
        for account_id in stage.account_ids:
            fresh = counts[account_id] + sign
            if fresh:
                counts[account_id] = fresh
            else:
                del counts[account_id]

    def materialize(self, name: str) -> StageRecord:
        return StageRecord(
            name,
            self.nft_count,
            self.component_count,
            frozenset(self.account_tokens),
        )


class FunnelMaintainer:
    """A shard's live funnel state, updated by dirty-token deltas.

    ``apply(old, new)`` retires one token's previous state and installs
    its replacement (either side may be None for appearing or vanishing
    tokens); :meth:`partial` freezes the current totals into the
    read-only :class:`FunnelPartial` a published version carries.  The
    maintainer is exact, not approximate: the scheduler re-installs a
    state for every token it reports dirty, so folding the deltas
    reproduces the full refold's counters identically -- the sharded
    parity suite holds this against the batch pipeline.
    """

    def __init__(self) -> None:
        self._stages: List[_StageCounts] = [
            _StageCounts() for _ in STAGE_NAMES
        ]
        self.candidate_count = 0

    def rebuild(self, states: Iterable) -> None:
        """Fold a full set of token states in (bootstrap only)."""
        for state in states:
            self._apply_one(state, 1)

    def apply(self, old: Optional[object], new: Optional[object]) -> None:
        """Replace one token's contribution (None = absent on that side)."""
        if old is new:
            # A confirmation flip re-dirties tokens whose refinement
            # structure never moved; their delta is exactly zero.
            return
        if old is not None:
            self._apply_one(old, -1)
        if new is not None:
            self._apply_one(new, 1)

    def _apply_one(self, state, sign: int) -> None:
        self.candidate_count += sign * len(state.candidates)
        for counts, stage in zip(self._stages, state.stages):
            counts.apply(stage, sign)

    def partial(self, version: int, confirmed_count: int) -> FunnelPartial:
        """Freeze the maintained totals for one published version."""
        return FunnelPartial(
            version=version,
            stages=tuple(
                counts.materialize(name)
                for counts, name in zip(self._stages, STAGE_NAMES)
            ),
            candidate_count=self.candidate_count,
            confirmed_count=confirmed_count,
        )
