"""The versioned read model over a live streaming monitor.

:class:`ServeIndex` subscribes to a :class:`~repro.stream.StreamingMonitor`
and, after every tick, publishes a fresh immutable
:class:`~repro.serve.model.ServeVersion`.  The contract:

* **Versions are immutable and monotone.**  A tick never mutates a
  published version; it builds a new one and swaps the ``current``
  reference (a single atomic assignment).  Queries that pinned an older
  version keep a fully consistent pre-tick view.
* **Reorg retractions publish a revision, not an edit.**  A rollback
  tick produces a version whose ``retracted_count``/``reorg_depth``
  mark it as a revision; the retracted activities are simply absent
  from it, while the alert log keeps the explicit ``ACTIVITY_RETRACTED``
  events a replaying consumer needs.
* **The rebuild is incremental.**  Only the tick's dirty tokens are
  re-read from the scheduler (via
  :meth:`~repro.stream.scheduler.DirtyTokenScheduler.confirmed_activities`,
  which also captures evidence drift the alert stream deliberately does
  not re-announce); per-account profiles are rebuilt only for accounts
  whose record set changed.  Publishing shares everything untouched
  with the previous version.

The index also owns the append-only alert log (the replay source for
subscription cursors) and drives the aggregate cache's precise,
dirty-set-keyed invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.engine.views import StoreStats
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
from repro.obs.bounded import DEFAULT_ERROR_RETENTION, BoundedLog
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.monitor import StreamingMonitor

VersionCallback = Callable[[ServeVersion], None]


@dataclass
class StagedVersion:
    """One tick folded in but not yet published (two-phase publish).

    ``stage_snapshot`` returns this; ``commit_staged`` flips the
    ``current`` handle and ``invalidate_staged`` bumps the cache --
    split so a sharded coordinator can stage *every* shard before any
    handle flips, and flip every handle before any cache invalidation.
    """

    version: ServeVersion
    #: The cache scopes this tick's (owned) dirty slice may have moved.
    scopes: Set[Scope]


class ServeIndex:
    """Maintains and publishes the immutable read model, tick by tick."""

    def __init__(
        self,
        monitor: StreamingMonitor,
        cache: Optional[AggregateCache] = None,
        registry: Optional[MetricsRegistry] = None,
        shard=None,
        alert_log: Optional[List[Alert]] = None,
        attach: bool = True,
    ) -> None:
        self.monitor = monitor
        self.cache = cache
        self.registry = (
            registry
            if registry is not None
            else getattr(monitor, "registry", None) or NULL_REGISTRY
        )
        #: Restriction of this index to one token-range shard: any
        #: object with ``index`` and ``contains(nft)`` (see
        #: :class:`repro.serve.sharding.ShardSpec`; duck-typed here to
        #: keep the import DAG acyclic).  ``None`` serves everything.
        self.shard = shard
        #: Append-only copy of every alert the monitor published since
        #: (and including) the bootstrap -- ``alert_log[seq].seq == seq``.
        #: A sharded deployment passes one shared list: the coordinator
        #: owns (extends) it, the shards only read, so ``seq`` stays
        #: globally gapless with a single source of truth.
        self._owns_log = alert_log is None
        self.alert_log: List[Alert] = [] if alert_log is None else alert_log
        self.versions_published = 0
        self._version_subscribers: List[VersionCallback] = []
        #: Recent version-subscriber failures, isolated like the
        #: monitor's own subscriber errors: a raising callback never
        #: starves the subscribers after it and never aborts the
        #: publish.  Bounded to the last DEFAULT_ERROR_RETENTION
        #: ``(callback, version, error)`` tuples; ``.total`` counts all.
        self.subscriber_errors: BoundedLog = BoundedLog(DEFAULT_ERROR_RETENTION)

        if shard is None:
            self._metric_versions = self.registry.counter(
                "serve_versions_published_total", "Immutable versions published."
            )
            self._metric_confirmed = self.registry.gauge(
                "serve_confirmed_records", "Confirmed activity records being served."
            )
        else:
            # Shard instances label the same families instead of
            # claiming the bare name, so the stats surface aggregates
            # them per shard without colliding.
            label = str(shard.index)
            self._metric_versions = self.registry.counter(
                "serve_versions_published_total",
                "Immutable versions published.",
                labels=("shard",),
            ).labels(shard=label)
            self._metric_confirmed = self.registry.gauge(
                "serve_confirmed_records",
                "Confirmed activity records being served.",
                labels=("shard",),
            ).labels(shard=label)
        self._metric_subscriber_errors = self.registry.counter(
            "serve_subscriber_errors_total",
            "Version-subscriber callbacks that raised during publish.",
        )
        self._metric_alert_log = self.registry.gauge(
            "serve_alert_log_entries", "Alerts held in the replayable log."
        )
        if cache is not None:
            cache.register_metrics(
                self.registry, shard=None if shard is None else shard.index
            )

        self._records: Dict[RecordKey, ActivityRecord] = {}
        self._token_records: Dict[NFTKey, Dict[RecordKey, ActivityRecord]] = {}
        self._token_retractions: Dict[NFTKey, int] = {}
        self._token_status: Dict[NFTKey, TokenStatus] = {}
        self._account_records: Dict[str, Dict[RecordKey, ActivityRecord]] = {}
        self._profiles: Dict[str, AccountProfile] = {}
        #: Shard instances maintain their funnel partial differentially
        #: (O(dirty slice) per tick) and publish it on every version;
        #: the monolithic index keeps its recompute-from-states design.
        self.funnel_state: Optional[FunnelMaintainer] = (
            None if shard is None else FunnelMaintainer()
        )

        self._bootstrap()
        if attach:
            monitor.subscribe_snapshots(self._on_snapshot)

    # -- public surface ----------------------------------------------------
    @property
    def current(self) -> ServeVersion:
        """The newest published version (atomic reference read)."""
        return self._current

    @property
    def last_seq(self) -> int:
        """Highest alert sequence number the index has folded in."""
        return len(self.alert_log) - 1

    def subscribe_versions(self, callback: VersionCallback) -> VersionCallback:
        """Register a callback invoked with every published version."""
        self._version_subscribers.append(callback)
        return callback

    def alerts_since(self, seq: int, limit: Optional[int] = None) -> Tuple[Alert, ...]:
        """Alerts with sequence number strictly greater than ``seq``.

        The replay primitive: the log is append-only, so a slice taken
        while the monitor thread appends is always a consistent prefix
        of the stream.
        """
        start = max(seq + 1, 0)
        if limit is None:
            return tuple(self.alert_log[start:])
        return tuple(self.alert_log[start : start + limit])

    # -- bootstrap ---------------------------------------------------------
    def _bootstrap(self) -> None:
        """Build version 0 from whatever the monitor already holds.

        Normally that is the empty pre-ingest state; attaching to a
        monitor that already ran some ticks is supported: the published
        alerts are adopted into the log (so replay cursors see the
        whole history) and folded into per-identity confirmation
        coordinates, so adopted records carry the ``seq``/block of
        their *latest* confirmation exactly as if the index had been
        attached from the start.
        """
        if self._owns_log:
            self.alert_log.extend(self.monitor.alerts)
        confirmation_info: Dict[RecordKey, Tuple[int, int]] = {}
        for alert in self.alert_log:
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                confirmation_info[record_key(alert.activity)] = (
                    alert.seq,
                    alert.block,
                )
        for nft in sorted(
            self.monitor.scheduler.flagged_nfts, key=self.monitor.scheduler.order_of
        ):
            if self._owns(nft):
                self._rebuild_token(nft, confirmation_info, set(), set())
        for account in list(self._account_records):
            self._rebuild_profile(account)
        if self.funnel_state is not None:
            self.funnel_state.rebuild(
                state
                for nft, state in self.monitor.scheduler.states.items()
                if self._owns(nft)
            )
        self._current = self._build_version(
            version=self.monitor.tick_count,
            dirty_token_count=0,
            reorg_depth=0,
            retracted_count=0,
            newly_confirmed_count=0,
        )
        self.versions_published += 1
        self._metric_versions.inc()
        if self._owns_log:
            self._metric_alert_log.set(len(self.alert_log))
        self._metric_confirmed.set(len(self._records))

    # -- tick application --------------------------------------------------
    def _owns(self, nft: NFTKey) -> bool:
        """True when this index serves the token (always, unsharded)."""
        return self.shard is None or self.shard.contains(nft)

    def _on_snapshot(self, snapshot: MonitorSnapshot) -> None:
        """Fold one monitor tick into the model and publish a version.

        The unsharded path simply runs the two-phase pieces back to
        back; a sharded coordinator interleaves them across shards
        instead (stage all, flip all, invalidate all).
        """
        with self.registry.span("publish", dirty=snapshot.dirty_token_count):
            staged = self.stage_snapshot(snapshot)
            # Publish before invalidating: a reader that captured the
            # old cache generations and then computes from this new
            # version can only be *discarded* by the invalidation,
            # never cached stale.
            self.commit_staged(staged)
            # The tick's alerts are readable from here on.
            self.registry.latency.mark(snapshot.trace, "publish")
            self.invalidate_staged(staged)
            self.notify_subscribers(staged.version)

    def stage_snapshot(self, snapshot: MonitorSnapshot) -> StagedVersion:
        """Fold one tick's owned slice in; build but don't publish.

        Nothing a reader can observe changes here: the working maps are
        private, and the returned version only becomes visible when
        :meth:`commit_staged` swaps the ``current`` reference.
        """
        if self._owns_log:
            self.alert_log.extend(snapshot.alerts)
        confirmation_info: Dict[RecordKey, Tuple[int, int]] = {}
        for alert in snapshot.alerts:
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                confirmation_info[record_key(alert.activity)] = (
                    alert.seq,
                    alert.block,
                )

        dirty = [nft for nft in snapshot.dirty_nfts if self._owns(nft)]
        touched_accounts: Set[str] = set()
        changed_venues: Set[str] = set()
        for nft in dirty:
            self._rebuild_token(
                nft, confirmation_info, touched_accounts, changed_venues
            )
        for account in touched_accounts:
            self._rebuild_profile(account)
        if self.funnel_state is not None and dirty:
            # Retire each dirty token's previous funnel contribution and
            # install the fresh one -- the full delta, because the
            # scheduler reports every re-installed state as dirty.
            previous_states = self._current.token_states
            fresh_states = self.monitor.scheduler.states
            for nft in dirty:
                self.funnel_state.apply(
                    previous_states.get(nft), fresh_states.get(nft)
                )

        # A tick that moved nothing publishes a fresh version *sharing*
        # the previous one's containers: publishing is then O(1).  The
        # unsharded index requires a fully idle tick (no re-detection,
        # no store growth, no rollback); a shard only needs its own
        # dirty slice empty -- new or rolled-back tokens are always in
        # the dirty set, so untouched shards stay O(1) even while the
        # rest of the world churns (shard store_stats may then lag; the
        # coordinator captures fresh global stats every tick).
        if self.shard is None:
            unchanged = (
                not snapshot.dirty_nfts
                and snapshot.new_transfer_count == 0
                and snapshot.rolled_back_transfer_count == 0
            )
            retracted_count = snapshot.retracted_count
            newly_confirmed_count = snapshot.newly_confirmed_count
        else:
            unchanged = not dirty
            retracted_count = sum(
                1
                for alert in snapshot.alerts
                if alert.kind is AlertKind.ACTIVITY_RETRACTED
                and self._owns(alert.nft)
            )
            newly_confirmed_count = sum(
                1
                for alert in snapshot.alerts
                if alert.kind is AlertKind.ACTIVITY_CONFIRMED
                and self._owns(alert.nft)
            )
        version = self._build_version(
            version=snapshot.tick,
            dirty_token_count=len(dirty),
            reorg_depth=snapshot.reorg_depth,
            retracted_count=retracted_count,
            newly_confirmed_count=newly_confirmed_count,
            reuse=self._current if unchanged else None,
        )
        return StagedVersion(
            version=version, scopes=self._scopes_for(tuple(dirty), changed_venues)
        )

    def commit_staged(self, staged: StagedVersion) -> None:
        """Flip ``current`` to the staged version (one atomic swap)."""
        self._current = staged.version
        self.versions_published += 1
        self._metric_versions.inc()
        if self._owns_log:
            self._metric_alert_log.set(len(self.alert_log))
        self._metric_confirmed.set(len(self._records))

    def invalidate_staged(self, staged: StagedVersion) -> None:
        """Bump the cache with the tick's owned slice of the dirty set."""
        if self.cache is not None:
            self.cache.invalidate(staged.scopes)

    def notify_subscribers(self, version: ServeVersion) -> None:
        """Deliver one published version to every subscriber, isolated."""
        for callback in self._version_subscribers:
            try:
                callback(version)
            except Exception as error:  # noqa: BLE001 - isolation, as in
                # the monitor's _deliver: the publish is already done,
                # the failure is the subscriber's.
                self.subscriber_errors.append((callback, version, error))
                self._metric_subscriber_errors.inc()

    def _scopes_for(
        self, dirty_nfts: Tuple[NFTKey, ...], changed_venues: Set[str]
    ) -> Set[Scope]:
        """Exactly the cache scopes one tick's dirty set can have moved."""
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

    def _rebuild_token(
        self,
        nft: NFTKey,
        confirmation_info: Dict[RecordKey, Tuple[int, int]],
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
                seq, block = confirmation_info.get(
                    key, (-1, self.monitor.processed_block)
                )
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
    def _build_version(
        self,
        version: int,
        dirty_token_count: int,
        reorg_depth: int,
        retracted_count: int,
        newly_confirmed_count: int,
        reuse: Optional[ServeVersion] = None,
    ) -> ServeVersion:
        """Assemble one immutable version (scalars always fresh).

        With ``reuse`` (an unchanged-tick fast path), the previous
        version's containers are shared instead of re-copied -- they
        are immutable, and the index only replaces (never mutates) its
        own working containers, so sharing is safe.
        """
        if reuse is not None:
            confirmed = reuse.confirmed
            token_status = reuse.token_status
            account_profiles = reuse.account_profiles
            token_states = reuse.token_states
            token_order = reuse.token_order
            store_stats = reuse.store_stats
            funnel = reuse.funnel
        else:
            store = self.monitor.cursor.store
            confirmed = tuple(
                sorted(
                    self._records.values(),
                    key=lambda record: (record.seq, record.key),
                )
            )
            token_status = dict(self._token_status)
            account_profiles = dict(self._profiles)
            if self.shard is None:
                token_states = dict(self.monitor.scheduler.states)
                token_order = tuple(store.tokens)
            else:
                # The shard's slice of the world, in global store order
                # (so concatenating shard ordering facts -- collection
                # token counts, funnel partials -- reproduces the
                # single-index numbers exactly).
                contains = self.shard.contains
                token_states = {
                    nft: state
                    for nft, state in self.monitor.scheduler.states.items()
                    if contains(nft)
                }
                token_order = tuple(nft for nft in store.tokens if contains(nft))
            store_stats = StoreStats.capture(store)
            funnel = (
                None
                if self.funnel_state is None
                else self.funnel_state.partial(version, len(confirmed))
            )
        return ServeVersion(
            version=version,
            block=self.monitor.processed_block,
            last_seq=len(self.alert_log) - 1,
            dirty_token_count=dirty_token_count,
            reorg_depth=reorg_depth,
            retracted_count=retracted_count,
            newly_confirmed_count=newly_confirmed_count,
            confirmed=confirmed,
            token_status=token_status,
            account_profiles=account_profiles,
            token_states=token_states,
            token_order=token_order,
            store_stats=store_stats,
            funnel=funnel,
        )
