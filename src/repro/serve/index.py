"""One token-range shard of the versioned read model.

:class:`ServeIndex` holds the slice of the read model one shard owns
and, on every monitor tick, folds the tick's owned slice in and builds
a fresh immutable :class:`~repro.serve.model.ServeVersion`.  It never
subscribes to the monitor itself: the coordinator
(:class:`~repro.serve.sharding.ShardedServeIndex`) cuts each tick into
per-shard slices, stages every shard, then flips them all at once.  A
single-shard deployment is that coordinator with one shard.  The
contract:

* **Versions are immutable and monotone.**  A tick never mutates a
  published version; it builds a new one and swaps the ``current``
  reference (a single atomic assignment).  Queries that pinned an older
  version keep a fully consistent pre-tick view.
* **Reorg retractions publish a revision, not an edit.**  A rollback
  tick produces a version whose ``retracted_count``/``reorg_depth``
  mark it as a revision; the retracted activities are simply absent
  from it, while the alert log keeps the explicit ``ACTIVITY_RETRACTED``
  events a replaying consumer needs.
* **The rebuild is incremental.**  Only the tick's owned dirty tokens
  are re-read from the scheduler (via
  :meth:`~repro.stream.scheduler.DirtyTokenScheduler.confirmed_activities`,
  which also captures evidence drift the alert stream deliberately does
  not re-announce); per-account profiles are rebuilt only for accounts
  whose record set changed, and the funnel partial is maintained by
  dirty deltas (:mod:`repro.serve.funnel`).  A tick whose owned slice
  is empty republishes the previous containers by reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.serve.cache import (
    AggregateCache,
    FUNNEL_SCOPE,
    Scope,
    collection_scope,
    venue_scope,
)
from repro.serve.funnel import FunnelMaintainer
from repro.serve.model import (
    AccountProfile,
    ActivityRecord,
    RecordKey,
    ServeVersion,
    TokenStatus,
    record_key,
)
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.monitor import StreamingMonitor
from repro.stream.scheduler import TokenState

#: record identity -> (seq, block) of its latest confirmation alert.
ConfirmationInfo = Dict[RecordKey, Tuple[int, int]]


def confirmation_info(alerts: List[Alert]) -> ConfirmationInfo:
    """Where each confirmed identity in ``alerts`` was last announced."""
    info: ConfirmationInfo = {}
    for alert in alerts:
        if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
            info[record_key(alert.activity)] = (alert.seq, alert.block)
    return info


@dataclass
class TickSlice:
    """One shard's share of a monitor tick, cut once by the coordinator."""

    #: The owned dirty tokens, in the snapshot's order.
    dirty: List[NFTKey] = field(default_factory=list)
    newly_confirmed: int = 0
    retracted: int = 0


@dataclass
class StagedVersion:
    """One tick folded in but not yet published (two-phase publish).

    ``stage_snapshot`` returns this; ``commit_staged`` flips the
    ``current`` handle and ``invalidate_staged`` bumps the cache --
    split so the coordinator can stage *every* shard before any handle
    flips, and flip every handle before any cache invalidation.
    """

    version: ServeVersion
    #: The cache scopes this tick's owned dirty slice may have moved.
    scopes: Set[Scope]


class ServeIndex:
    """Maintains one shard's immutable read model, tick by tick."""

    def __init__(
        self,
        monitor: StreamingMonitor,
        shard,
        alert_log: List[Alert],
        cache: Optional[AggregateCache] = None,
    ) -> None:
        self.monitor = monitor
        #: The token range this index serves: any object with ``index``
        #: and ``contains(nft)`` (see
        #: :class:`repro.serve.sharding.ShardSpec`; duck-typed here to
        #: keep the import DAG acyclic).
        self.shard = shard
        self.cache = cache
        #: The coordinator's append-only alert log, shared by reference
        #: and only read here, so ``seq`` stays globally gapless.
        self.alert_log = alert_log
        self.versions_published = 0

        self._records: Dict[RecordKey, ActivityRecord] = {}
        self._token_records: Dict[NFTKey, Dict[RecordKey, ActivityRecord]] = {}
        self._token_retractions: Dict[NFTKey, int] = {}
        self._token_status: Dict[NFTKey, TokenStatus] = {}
        self._account_records: Dict[str, Dict[RecordKey, ActivityRecord]] = {}
        self._profiles: Dict[str, AccountProfile] = {}
        #: The owned tokens' scheduler states, kept current from each
        #: tick's owned dirty slice (the scheduler re-installs a state
        #: for every token it reports dirty).
        self._token_states: Dict[NFTKey, TokenState] = {}
        self.funnel_state = FunnelMaintainer()

        self._bootstrap()

    @property
    def current(self) -> ServeVersion:
        """The newest published version (atomic reference read)."""
        return self._current

    # -- bootstrap ---------------------------------------------------------
    def _bootstrap(self) -> None:
        """Build version 0 from whatever the monitor already holds.

        Normally that is the empty pre-ingest state; attaching to a
        monitor that already ran some ticks is supported: the adopted
        alerts (already in the shared log) are folded into per-identity
        confirmation coordinates, so adopted records carry the
        ``seq``/block of their *latest* confirmation exactly as if the
        index had been attached from the start.
        """
        scheduler = self.monitor.scheduler
        contains = self.shard.contains
        confirmed = confirmation_info(self.alert_log)
        for nft in sorted(scheduler.flagged_nfts, key=scheduler.order_of):
            if contains(nft):
                self._rebuild_token(nft, confirmed, set(), set())
        for account in list(self._account_records):
            self._rebuild_profile(account)
        self._token_states = {
            nft: state for nft, state in scheduler.states.items() if contains(nft)
        }
        self.funnel_state.rebuild(self._token_states.values())
        self._current = self._build_version(
            version=self.monitor.tick_count, owned=TickSlice(), reorg_depth=0
        )
        self.versions_published += 1

    # -- tick application --------------------------------------------------
    def stage_snapshot(
        self,
        snapshot: MonitorSnapshot,
        owned: TickSlice,
        confirmed: ConfirmationInfo,
    ) -> StagedVersion:
        """Fold one tick's owned slice in; build but don't publish.

        Nothing a reader can observe changes here: the working maps are
        private, and the returned version only becomes visible when
        :meth:`commit_staged` swaps the ``current`` reference.
        """
        touched_accounts: Set[str] = set()
        changed_venues: Set[str] = set()
        for nft in owned.dirty:
            self._rebuild_token(nft, confirmed, touched_accounts, changed_venues)
        for account in touched_accounts:
            self._rebuild_profile(account)

        # Retire each dirty token's previous funnel contribution and
        # install the fresh one -- the full delta, because the
        # scheduler reports every re-installed state as dirty.
        states = self.monitor.scheduler.states
        working = self._token_states
        for nft in owned.dirty:
            old = working.get(nft)
            new = states.get(nft)
            self.funnel_state.apply(old, new)
            if new is not None:
                working[nft] = new
            elif old is not None:
                del working[nft]

        if owned.dirty:
            version = self._build_version(
                version=snapshot.tick, owned=owned, reorg_depth=snapshot.reorg_depth
            )
        else:
            # New or rolled-back tokens are always in the dirty set, so
            # a shard with an empty slice republishes by reference.
            version = self._republish(snapshot)
        return StagedVersion(
            version=version, scopes=_scopes_for(owned.dirty, changed_venues)
        )

    def commit_staged(self, staged: StagedVersion) -> None:
        """Flip ``current`` to the staged version (one atomic swap)."""
        self._current = staged.version
        self.versions_published += 1

    def invalidate_staged(self, staged: StagedVersion) -> None:
        """Bump the cache with the tick's owned slice of the dirty set."""
        if self.cache is not None:
            self.cache.invalidate(staged.scopes)

    def _rebuild_token(
        self,
        nft: NFTKey,
        confirmed: ConfirmationInfo,
        touched_accounts: Set[str],
        changed_venues: Set[str],
    ) -> None:
        """Re-derive one dirty token's records from the scheduler.

        Surviving identities keep their confirmation coordinates but
        refresh their payload (evidence drift); new identities take
        their ``seq``/block from this tick's confirmation alert;
        removed identities are dropped and counted as retractions.
        """
        old = self._token_records.get(nft, {})
        fresh: Dict[RecordKey, ActivityRecord] = {}
        for activity in self.monitor.scheduler.confirmed_activities(nft).values():
            key = record_key(activity)
            previous = old.get(key)
            if previous is not None:
                seq, block = previous.seq, previous.confirmed_at_block
            else:
                seq, block = confirmed.get(key, (-1, self.monitor.processed_block))
            record = ActivityRecord.from_activity(activity, seq, block, key)
            fresh[key] = record
            if previous is None or record != previous:
                changed_venues.add(record.venue)
                touched_accounts.update(record.accounts)

        removed = [key for key in old if key not in fresh]
        for key in removed:
            record = old[key]
            changed_venues.add(record.venue)
            touched_accounts.update(record.accounts)

        # Swap the global and per-account record maps.
        for key, record in old.items():
            del self._records[key]
            for account in record.accounts:
                holders = self._account_records.get(account)
                if holders is not None:
                    holders.pop(key, None)
                    if not holders:
                        del self._account_records[account]
        for key, record in fresh.items():
            self._records[key] = record
            for account in record.accounts:
                self._account_records.setdefault(account, {})[key] = record

        if not fresh:
            self._token_records.pop(nft, None)
            self._token_status.pop(nft, None)
            self._token_retractions.pop(nft, None)
            return
        retractions = self._token_retractions.get(nft, 0) + len(removed)
        self._token_records[nft] = fresh
        self._token_retractions[nft] = retractions
        self._token_status[nft] = TokenStatus(
            nft=nft,
            records=tuple(
                sorted(fresh.values(), key=lambda record: (record.seq, record.key))
            ),
            retraction_count=retractions,
        )

    def _rebuild_profile(self, account: str) -> None:
        holders = self._account_records.get(account)
        if not holders:
            self._profiles.pop(account, None)
            return
        self._profiles[account] = AccountProfile(
            address=account,
            records=tuple(
                sorted(holders.values(), key=lambda record: (record.seq, record.key))
            ),
        )

    # -- publishing --------------------------------------------------------
    def _republish(self, snapshot: MonitorSnapshot) -> ServeVersion:
        """A fresh version *sharing* the previous one's containers.

        They are immutable, and the index only replaces (never mutates)
        its own working containers, so sharing is safe and O(1).
        """
        return dataclasses.replace(
            self._current,
            version=snapshot.tick,
            block=self.monitor.processed_block,
            last_seq=len(self.alert_log) - 1,
            dirty_token_count=0,
            reorg_depth=snapshot.reorg_depth,
            retracted_count=0,
            newly_confirmed_count=0,
        )

    def _build_version(
        self, version: int, owned: TickSlice, reorg_depth: int
    ) -> ServeVersion:
        """Assemble one immutable version from the working containers."""
        confirmed = tuple(
            sorted(self._records.values(), key=lambda record: (record.seq, record.key))
        )
        return ServeVersion(
            version=version,
            block=self.monitor.processed_block,
            last_seq=len(self.alert_log) - 1,
            dirty_token_count=len(owned.dirty),
            reorg_depth=reorg_depth,
            retracted_count=owned.retracted,
            newly_confirmed_count=owned.newly_confirmed,
            confirmed=confirmed,
            token_status=dict(self._token_status),
            account_profiles=dict(self._profiles),
            funnel=self.funnel_state.partial(version, len(confirmed)),
            token_states=dict(self._token_states),
        )


def _scopes_for(dirty_nfts: List[NFTKey], changed_venues: Set[str]) -> Set[Scope]:
    """Exactly the cache scopes one tick's dirty slice can have moved."""
    scopes: Set[Scope] = set()
    if dirty_nfts:
        # Any reprocessed token may have changed its funnel-stage
        # contribution, even without a confirmation flip.
        scopes.add(FUNNEL_SCOPE)
    for nft in dirty_nfts:
        scopes.add(collection_scope(nft.contract))
    for venue in changed_venues:
        scopes.add(venue_scope(venue))
    return scopes
