"""Differentially maintained funnel statistics for the live read model.

Answering ``funnel_stats`` by folding every token state's per-stage
records is O(world) per recompute.  Instead, every per-token stage
statistic is **invertible** -- ``nft_count`` and ``component_count``
subtract, and the distinct-account union becomes a multiset (account
id -> number of contributing tokens) whose key set *is* the distinct
union.  So the read model maintains its funnel by applying only the
tick's dirty delta (retire the old token state, install the new one)
and materializes it once per published version -- O(dirty) per tick
instead of O(world) per query.

The materialized :class:`FunnelPartial` rides the immutable
:class:`~repro.serve.model.ServeVersion` itself, so readers get it with
the same snapshot-isolation guarantees as every other container: there
is no query-time window in which a half-applied delta could be
observed.  A stage whose statistics did not move re-publishes the
previous version's :class:`StageRecord` (and with it the account-id
frozenset), so the versions a reader pins share their funnel instead
of each holding a copy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.engine.refine import EMPTY_STAGES, STAGE_NAMES, StageRecord


@dataclass(frozen=True)
class FunnelPartial:
    """The refinement funnel's totals, frozen at one version."""

    version: int
    #: One immutable record per stage, so published versions share
    #: them read-only across threads.
    stages: Tuple[StageRecord, ...]
    candidate_count: int
    confirmed_count: int


class _StageCounts:
    """Invertible statistics of one funnel stage across every token."""

    __slots__ = (
        "nft_count",
        "component_count",
        "account_tokens",
        "_crossed",
        "_record",
    )

    def __init__(self) -> None:
        self.nft_count = 0
        self.component_count = 0
        #: account id -> number of tokens contributing it;
        #: the key set is exactly the stage's distinct account union.
        self.account_tokens: Counter = Counter()
        #: Account ids that joined or left the key set since the last
        #: :meth:`materialize` (a retire-then-install of the same token
        #: crosses and re-crosses, so only a recheck tells a net move).
        self._crossed: Set[int] = set()
        self._record: Optional[StageRecord] = None

    def apply(self, stage: StageRecord, sign: int) -> None:
        if not stage.nft_count:
            return
        self.nft_count += sign * stage.nft_count
        self.component_count += sign * stage.component_count
        counts = self.account_tokens
        crossed = self._crossed
        for account_id in stage.account_ids:
            fresh = counts[account_id] + sign
            if fresh:
                counts[account_id] = fresh
                if fresh == 1 and sign > 0:
                    crossed.add(account_id)
            else:
                del counts[account_id]
                crossed.add(account_id)

    def materialize(self, name: str) -> StageRecord:
        """The stage as a record; while the account key set is
        unchanged the previous record's frozenset is shared (and the
        whole record, when the counts did not move either)."""
        record = self._record
        counts = self.account_tokens
        if record is None or any(
            (account_id in counts) != (account_id in record.account_ids)
            for account_id in self._crossed
        ):
            accounts = frozenset(counts)
        else:
            accounts = record.account_ids
        self._crossed.clear()
        if (
            record is None
            or accounts is not record.account_ids
            or record.nft_count != self.nft_count
            or record.component_count != self.component_count
        ):
            record = StageRecord(
                name, self.nft_count, self.component_count, accounts
            )
            self._record = record
        return record


class FunnelMaintainer:
    """The live funnel state, updated by dirty-token deltas.

    ``apply(old, new)`` retires one token's previous state and installs
    its replacement (either side may be None for appearing or vanishing
    tokens); :meth:`partial` freezes the current totals into the
    read-only :class:`FunnelPartial` a published version carries.  The
    maintainer is exact, not approximate: the scheduler re-installs a
    state for every token it reports dirty, so folding the deltas
    reproduces the full refold's counters identically -- the serve
    tests hold this against the refold and the batch pipeline.
    """

    def __init__(self) -> None:
        self._stages: List[_StageCounts] = [
            _StageCounts() for _ in STAGE_NAMES
        ]
        self.candidate_count = 0

    def rebuild(self, states: Iterable) -> None:
        """Fold a full set of token states in (bootstrap only)."""
        for state in states:
            self.apply(None, state)

    def apply(self, old: Optional[object], new: Optional[object]) -> None:
        """Replace one token's contribution (None = absent on that side).

        Only the stages whose record changed value are retired and
        re-installed: a re-refined token whose funnel statistics did not
        move costs one record comparison per stage, and leaves the
        stage's account set untouched.
        """
        if old is new:
            # A confirmation flip re-dirties tokens whose refinement
            # structure never moved; their delta is exactly zero.
            return
        before = EMPTY_STAGES if old is None else old.stages
        after = EMPTY_STAGES if new is None else new.stages
        self.candidate_count += (0 if new is None else len(new.candidates)) - (
            0 if old is None else len(old.candidates)
        )
        if before is after:
            return
        for counts, retired, installed in zip(self._stages, before, after):
            if retired != installed:
                counts.apply(retired, -1)
                counts.apply(installed, 1)

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
