"""The serving layer's read model: immutable, versioned query records.

Everything here is frozen.  A :class:`ServeVersion` is one published,
never-mutated view of the monitor's detection state; queries issued
against it keep seeing exactly that state no matter how many ticks (or
reorg rollbacks) happen afterwards -- snapshot isolation by
construction, not by locking.  The maps inside a version are plain
dicts for speed; they are built fresh per publish and must be treated
as read-only by consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import (  # noqa: F401 - record_key is re-exported
    DetectionMethod,
    RecordKey,
    WashTradingActivity,
    record_key,
)
from repro.core.refine import FunnelStage
from repro.engine.refine import StageRecord
from repro.engine.views import StoreStats

#: Venue name used for confirmed activities whose dominant marketplace
#: is None (the component traded without touching a known venue).
OFF_MARKET = "off-market"


@dataclass(frozen=True)
class ActivityRecord:
    """One currently confirmed activity, as the query API serves it.

    ``seq`` / ``confirmed_at_block`` pin *when this identity was
    announced* (the ACTIVITY_CONFIRMED alert); they survive evidence
    drift -- a still-confirmed activity whose method set evolves keeps
    its original confirmation coordinates while ``methods`` tracks the
    current truth.
    """

    nft: NFTKey
    accounts: FrozenSet[str]
    methods: FrozenSet[DetectionMethod]
    volume_wei: int
    transfer_count: int
    #: Block range of the activity's own wash trades.
    first_block: int
    last_block: int
    #: Dominant venue (None when the activity traded off-market).
    marketplace: Optional[str]
    #: Head block of the tick that confirmed this identity.
    confirmed_at_block: int
    #: Alert sequence number of the identity's ACTIVITY_CONFIRMED alert.
    seq: int
    #: The full activity object, for drill-down queries and parity
    #: checks (compared by identity key, not by value).
    activity: WashTradingActivity = field(compare=False, repr=False)
    #: The activity's identity (:func:`~repro.core.activity.record_key`):
    #: the ``(seq, key)`` page cursors of the read model read it.
    key: RecordKey = field(compare=False, repr=False)

    @property
    def venue(self) -> str:
        """The rollup venue name (OFF_MARKET for venue-less activity)."""
        return self.marketplace if self.marketplace is not None else OFF_MARKET

    @classmethod
    def from_activity(
        cls, activity: WashTradingActivity, seq: int, confirmed_at_block: int
    ) -> "ActivityRecord":
        """Build the record of ``activity`` at its confirmation coordinates."""
        component = activity.component
        return cls(
            nft=activity.nft,
            accounts=component.accounts,
            methods=frozenset(activity.methods),
            volume_wei=component.volume_wei,
            transfer_count=component.transfer_count,
            first_block=min(t.block_number for t in component.transfers),
            last_block=max(t.block_number for t in component.transfers),
            marketplace=component.dominant_marketplace(),
            confirmed_at_block=confirmed_at_block,
            seq=seq,
            activity=activity,
            key=component.key,
        )


@dataclass(frozen=True)
class TokenStatus:
    """Per-NFT wash status: the point-lookup answer of the query API."""

    nft: NFTKey
    #: Currently confirmed activities of this token, in confirmation
    #: (seq) order.  Empty means "clean as of this version".
    records: Tuple[ActivityRecord, ...] = ()
    #: Retractions this token has been through since it last had no
    #: confirmed activity: the count restarts at 0 whenever a tick
    #: leaves the token with no confirmed activity, whether or not the
    #: token left the store.
    retraction_count: int = 0

    @property
    def is_washed(self) -> bool:
        return bool(self.records)

    @property
    def activity_count(self) -> int:
        return len(self.records)

    @property
    def methods(self) -> FrozenSet[DetectionMethod]:
        """Union of confirmation methods across current activities."""
        merged: set = set()
        for record in self.records:
            merged |= record.methods
        return frozenset(merged)

    @property
    def volume_wei(self) -> int:
        return sum(record.volume_wei for record in self.records)

    @property
    def last_confirmed_block(self) -> int:
        """Newest confirmation block (-1 for a clean token)."""
        if not self.records:
            return -1
        return max(record.confirmed_at_block for record in self.records)


@dataclass(frozen=True)
class AccountProfile:
    """Per-account involvement summary across confirmed activities."""

    address: str
    #: Every current confirmed activity the account participates in,
    #: in confirmation (seq) order.  Empty = not currently implicated.
    records: Tuple[ActivityRecord, ...] = ()

    @property
    def is_implicated(self) -> bool:
        return bool(self.records)

    @property
    def activity_count(self) -> int:
        return len(self.records)

    @property
    def nfts(self) -> FrozenSet[NFTKey]:
        return frozenset(record.nft for record in self.records)

    @property
    def methods(self) -> FrozenSet[DetectionMethod]:
        merged: set = set()
        for record in self.records:
            merged |= record.methods
        return frozenset(merged)

    @property
    def volume_wei(self) -> int:
        """Artificial volume of every activity the account is part of."""
        return sum(record.volume_wei for record in self.records)

    @property
    def partners(self) -> FrozenSet[str]:
        """Other accounts this one colluded with, across activities."""
        merged: set = set()
        for record in self.records:
            merged |= record.accounts
        merged.discard(self.address)
        return frozenset(merged)


@dataclass(frozen=True)
class CollectionRollup:
    """Aggregate wash status of one contract (collection)."""

    contract: str
    #: Version the rollup was computed against.
    version: int
    #: Tokens of the collection known to the store at that version.
    token_count: int
    flagged_token_count: int
    activity_count: int
    volume_wei: int
    account_count: int
    #: Confirmations per method across the collection's activities.
    method_counts: Mapping[DetectionMethod, int]
    retraction_count: int


@dataclass(frozen=True)
class MarketplaceRollup:
    """Aggregate wash status of one venue (by dominant marketplace)."""

    venue: str
    version: int
    activity_count: int
    flagged_nft_count: int
    volume_wei: int
    account_count: int
    method_counts: Mapping[DetectionMethod, int]


@dataclass(frozen=True)
class FunnelSnapshot:
    """Live refinement-funnel statistics, batch-identical per version."""

    version: int
    #: The four funnel stages, equal to a batch run's
    #: ``result.refinement.stages`` over the same chain prefix.
    stages: Tuple[FunnelStage, ...]
    candidate_count: int
    confirmed_activity_count: int


@dataclass(frozen=True)
class FunnelPartial:
    """The refinement funnel's totals, frozen at one version."""

    version: int
    #: One immutable record per stage, so published versions share
    #: them read-only across threads.
    stages: Tuple[StageRecord, ...]
    candidate_count: int
    confirmed_count: int


@dataclass(frozen=True)
class ServeVersion:
    """One published, immutable view of the monitor's detection state.

    Published by the :class:`~repro.serve.index.ServeIndex` after every
    monitor tick (version numbers are the monitor's tick numbers, so
    they are strictly monotone; version 0 is the empty pre-ingest
    state).  Reorg revisions are ordinary versions with
    ``retracted_count``/``reorg_depth`` set -- a previously published
    version is never touched, so a reader holding one keeps a fully
    consistent pre-revision view.
    """

    version: int
    #: Highest chain block reflected by this version.
    block: int
    #: Highest alert sequence number folded into this version (-1 when
    #: no alert has ever been published).
    last_seq: int
    dirty_token_count: int
    reorg_depth: int
    retracted_count: int
    newly_confirmed_count: int
    #: Every currently confirmed activity, in confirmation (seq) order.
    confirmed: Tuple[ActivityRecord, ...]
    #: Wash status per flagged token (clean tokens are absent; use
    #: :meth:`status_of` for a uniform answer).
    token_status: Mapping[NFTKey, TokenStatus]
    #: Involvement summaries per currently implicated account.
    account_profiles: Mapping[str, AccountProfile]
    #: The store's token ordering at publish time.
    token_order: Tuple[NFTKey, ...] = field(repr=False)
    #: The store's ``order_epoch`` at publish time: two versions with
    #: the same epoch have token orders where the shorter is a prefix
    #: of the longer.
    token_order_epoch: int
    #: Changes whenever the key set of ``account_profiles`` changes.
    accounts_epoch: int
    #: The store's size at publish time.
    store_stats: StoreStats
    #: The scheduler's differentially maintained funnel, frozen at
    #: publish time (see :class:`~repro.engine.refine.FunnelMaintainer`).
    funnel: FunnelPartial = field(repr=False, compare=False)

    @property
    def is_revision(self) -> bool:
        """True when this version withdrew previously served answers."""
        return self.retracted_count > 0 or self.reorg_depth > 0

    @property
    def confirmed_activity_count(self) -> int:
        return len(self.confirmed)

    @property
    def flagged_nfts(self) -> FrozenSet[NFTKey]:
        return frozenset(self.token_status)

    def status_of(self, nft: NFTKey) -> TokenStatus:
        """The token's status, synthesizing "clean" for unknown tokens."""
        status = self.token_status.get(nft)
        if status is not None:
            return status
        return TokenStatus(nft=nft)

    def profile_of(self, address: str) -> AccountProfile:
        """The account's profile, synthesizing an empty one if clean."""
        profile = self.account_profiles.get(address)
        if profile is not None:
            return profile
        return AccountProfile(address=address)
