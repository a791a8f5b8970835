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
  whose record set changed, and the funnel is maintained by dirty
  deltas (:mod:`repro.serve.funnel`).  A tick with no dirty token
  republishes the previous version's containers by reference.
* **Publish, then invalidate.**  The new version becomes ``current``
  before the aggregate cache drops the scopes the tick's dirty set can
  have moved, so a reader racing the tick can only have a freshly
  computed value *discarded*, never cached stale (see
  :meth:`~repro.serve.cache.AggregateCache.get_or_compute`).  Version
  subscribers run last, so the version they receive is already
  ``current``.

The index also owns the append-only alert log (the replay source for
subscription cursors), the version subscribers and the serve metrics.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.engine.store import ColumnarTransferStore
from repro.engine.views import StoreStats
from repro.obs.bounded import DEFAULT_ERROR_RETENTION, BoundedLog
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
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

VersionCallback = Callable[[ServeVersion], None]

#: record identity -> (seq, block) of its latest confirmation alert.
ConfirmationInfo = Dict[RecordKey, Tuple[int, int]]


def confirmation_info(alerts: List[Alert]) -> ConfirmationInfo:
    """Where each confirmed identity in ``alerts`` was last announced."""
    info: ConfirmationInfo = {}
    for alert in alerts:
        if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
            info[record_key(alert.activity)] = (alert.seq, alert.block)
    return info


def _confirmation_order(record: ActivityRecord) -> Tuple[int, RecordKey]:
    return record.seq, record.key


class ServeIndex:
    """Maintains and publishes the immutable read model, tick by tick."""

    def __init__(
        self,
        monitor: StreamingMonitor,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.monitor = monitor
        self.registry = (
            registry
            if registry is not None
            else getattr(monitor, "registry", None) or NULL_REGISTRY
        )
        #: The dirty-token-keyed aggregate cache (None when uncached).
        self.cache: Optional[AggregateCache] = AggregateCache() if use_cache else None
        #: Append-only copy of every alert the monitor published
        #: (``alert_log[seq].seq == seq``).  Attaching to a monitor that
        #: already ran adopts its alerts, so replay sees the history.
        self.alert_log: List[Alert] = list(monitor.alerts)
        self.versions_published = 0
        self._version_subscribers: List[VersionCallback] = []
        #: Recent version-subscriber failures, isolated like the
        #: monitor's own subscriber errors: a raising callback never
        #: starves the subscribers after it and never aborts the
        #: publish.  Bounded to the last DEFAULT_ERROR_RETENTION
        #: ``(callback, version, error)`` tuples; ``.total`` counts all.
        self.subscriber_errors: BoundedLog = BoundedLog(DEFAULT_ERROR_RETENTION)

        self._metric_versions = self.registry.counter(
            "serve_versions_published_total", "Immutable versions published."
        )
        self._metric_subscriber_errors = self.registry.counter(
            "serve_subscriber_errors_total",
            "Version-subscriber callbacks that raised during publish.",
        )
        self._metric_alert_log = self.registry.gauge(
            "serve_alert_log_entries", "Alerts held in the replayable log."
        )
        self._metric_confirmed = self.registry.gauge(
            "serve_confirmed_records", "Confirmed activity records being served."
        )
        if self.cache is not None:
            self.cache.register_metrics(self.registry)

        self._records: Dict[RecordKey, ActivityRecord] = {}
        self._token_records: Dict[NFTKey, Dict[RecordKey, ActivityRecord]] = {}
        self._token_retractions: Dict[NFTKey, int] = {}
        self._token_status: Dict[NFTKey, TokenStatus] = {}
        self._account_records: Dict[str, Dict[RecordKey, ActivityRecord]] = {}
        self._profiles: Dict[str, AccountProfile] = {}
        #: Bumped whenever the key set of ``_profiles`` changes.
        self._accounts_epoch = 0
        #: The scheduler's token states, kept current from each tick's
        #: dirty set (the scheduler re-installs a state for every token
        #: it reports dirty).
        self._token_states: Dict[NFTKey, TokenState] = {}
        self.funnel_state = FunnelMaintainer()
        #: The newest published version (None only until bootstrap).
        self._current: Optional[ServeVersion] = None

        self._bootstrap()
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
        monitor that already ran some ticks is supported: the adopted
        alerts are folded into per-identity confirmation coordinates,
        so adopted records carry the ``seq``/block of their *latest*
        confirmation exactly as if the index had been attached from
        the start.
        """
        scheduler = self.monitor.scheduler
        confirmed = confirmation_info(self.alert_log)
        for nft in sorted(scheduler.flagged_nfts, key=scheduler.order_of):
            self._rebuild_token(nft, confirmed, set(), set())
        for account in list(self._account_records):
            self._rebuild_profile(account)
        self._token_states = dict(scheduler.states)
        self.funnel_state.rebuild(self._token_states.values())
        self._current = self._build_version(self.monitor.tick_count)
        self._note_published()

    # -- tick application --------------------------------------------------
    def _on_snapshot(self, snapshot: MonitorSnapshot) -> None:
        """Fold one monitor tick in, publish, then invalidate the cache."""
        with self.registry.span("publish", dirty=snapshot.dirty_token_count):
            self.alert_log.extend(snapshot.alerts)
            scopes = self._apply_snapshot(snapshot)
            version = self._build_version(snapshot.tick, snapshot)
            self._current = version
            if self.cache is not None:
                self.cache.invalidate(scopes)
            # The tick's alerts are readable from here on.
            self.registry.latency.mark(snapshot.trace, "publish")
        self._note_published()
        for callback in self._version_subscribers:
            try:
                callback(version)
            except Exception as error:  # noqa: BLE001 - isolation, as in
                # the monitor's _deliver: the publish is already done,
                # the failure is the subscriber's.
                self.subscriber_errors.append((callback, version, error))
                self._metric_subscriber_errors.inc()

    def _apply_snapshot(self, snapshot: MonitorSnapshot) -> Set[Scope]:
        """Fold the tick's dirty set into the working maps.

        Nothing a reader can observe changes here: the working maps are
        private until :meth:`_build_version` copies them.  Returns the
        cache scopes the tick can have moved.
        """
        confirmed = confirmation_info(snapshot.alerts)
        touched_accounts: Set[str] = set()
        changed_venues: Set[str] = set()
        for nft in snapshot.dirty_nfts:
            self._rebuild_token(nft, confirmed, touched_accounts, changed_venues)
        for account in touched_accounts:
            self._rebuild_profile(account)

        # Retire each dirty token's previous funnel contribution and
        # install the fresh one -- the full delta, because the
        # scheduler reports every re-installed state as dirty.
        states = self.monitor.scheduler.states
        working = self._token_states
        for nft in snapshot.dirty_nfts:
            old = working.get(nft)
            new = states.get(nft)
            self.funnel_state.apply(old, new)
            if new is not None:
                working[nft] = new
            elif old is not None:
                del working[nft]
        return _scopes_for(snapshot.dirty_nfts, changed_venues)

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
            records=tuple(sorted(fresh.values(), key=_confirmation_order)),
            retraction_count=retractions,
        )

    def _rebuild_profile(self, account: str) -> None:
        holders = self._account_records.get(account)
        if not holders:
            if self._profiles.pop(account, None) is not None:
                self._accounts_epoch += 1
            return
        if account not in self._profiles:
            self._accounts_epoch += 1
        self._profiles[account] = AccountProfile(
            address=account,
            records=tuple(sorted(holders.values(), key=_confirmation_order)),
        )

    # -- publishing --------------------------------------------------------
    def _build_version(
        self, tick: int, snapshot: Optional[MonitorSnapshot] = None
    ) -> ServeVersion:
        """Assemble one immutable version (``snapshot`` is None only at
        bootstrap).

        The scalars and the store's size are always fresh.  A tick with
        no dirty token shares the previous version's containers instead
        of copying them: they are immutable, and the index only replaces
        (never mutates) its own working containers.  The token order is
        shared too while the store's ``order_epoch`` holds and no token
        was added; otherwise it is rebuilt from the store.
        """
        store = self.monitor.cursor.store
        scalars = dict(
            version=tick,
            block=self.monitor.processed_block,
            last_seq=len(self.alert_log) - 1,
            dirty_token_count=0 if snapshot is None else snapshot.dirty_token_count,
            reorg_depth=0 if snapshot is None else snapshot.reorg_depth,
            retracted_count=0 if snapshot is None else snapshot.retracted_count,
            newly_confirmed_count=(
                0 if snapshot is None else snapshot.newly_confirmed_count
            ),
            token_order=self._token_order(store),
            token_order_epoch=store.order_epoch,
            accounts_epoch=self._accounts_epoch,
            store_stats=StoreStats.capture(store),
        )
        if snapshot is not None and not snapshot.dirty_nfts:
            # New or rolled-back tokens are always in the dirty set.
            return dataclasses.replace(self._current, **scalars)
        confirmed = tuple(sorted(self._records.values(), key=_confirmation_order))
        return ServeVersion(
            confirmed=confirmed,
            token_status=dict(self._token_status),
            account_profiles=dict(self._profiles),
            funnel=self.funnel_state.partial(tick, len(confirmed)),
            token_states=dict(self._token_states),
            **scalars,
        )

    def _token_order(self, store: ColumnarTransferStore) -> Tuple[NFTKey, ...]:
        """The store's token order, reusing the current version's tuple
        while the store's ``order_epoch`` and token count both hold."""
        previous = self._current
        if (
            previous is not None
            and previous.token_order_epoch == store.order_epoch
            and len(previous.token_order) == len(store.tokens)
        ):
            return previous.token_order
        return tuple(store.tokens)

    def _note_published(self) -> None:
        self.versions_published += 1
        self._metric_versions.inc()
        self._metric_alert_log.set(len(self.alert_log))
        self._metric_confirmed.set(self._current.confirmed_activity_count)


def _scopes_for(
    dirty_nfts: Tuple[NFTKey, ...], changed_venues: Set[str]
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
