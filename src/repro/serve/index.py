"""The versioned read model over a live streaming monitor.

:class:`ServeIndex` subscribes to a :class:`~repro.stream.StreamingMonitor`
before its first tick and, after every tick, publishes a fresh
immutable :class:`~repro.serve.model.ServeVersion`.  The contract:

* **Versions are immutable and monotone.**  A tick never mutates a
  published version; it builds a new one and swaps the ``current``
  reference (a single atomic assignment).  Queries that pinned an older
  version keep a fully consistent pre-tick view.  Version 0 is the
  empty pre-ingest state.
* **Reorg retractions publish a revision, not an edit.**  A rollback
  tick produces a version whose ``retracted_count``/``reorg_depth``
  mark it as a revision; the retracted activities are simply absent
  from it, while the alert log keeps the explicit ``ACTIVITY_RETRACTED``
  events a replaying consumer needs.
* **Reads never run ahead of the published version.**  The alert log
  is the monitor's own append-only list (:attr:`StreamingMonitor.alerts
  <repro.stream.monitor.StreamingMonitor.alerts>`); :meth:`alerts_since`
  and :attr:`last_seq` cut it off at the current version's
  ``last_seq``, so a tick's alerts become readable in the same atomic
  swap that publishes the version folding them in.
* **The current version is the only record.**  The index keeps no
  served state beside it: a tick copies the current version's
  ``token_status`` and ``account_profiles``, re-derives only its dirty
  tokens from the scheduler (via
  :meth:`~repro.stream.scheduler.DirtyTokenScheduler.confirmed_activities`,
  which also captures evidence drift the alert stream deliberately does
  not re-announce) and the profiles of the accounts their records
  touch, and freezes the funnel the scheduler maintains by dirty deltas
  (:class:`~repro.engine.refine.FunnelMaintainer`).  A tick with no
  dirty token republishes the previous version's containers by
  reference.
* **Publish, then invalidate.**  The new version becomes ``current``
  before the aggregate cache drops the scopes the tick's dirty set can
  have moved, so a reader racing the tick can only have a freshly
  computed value *discarded*, never cached stale (see
  :meth:`~repro.serve.cache.AggregateCache.get_or_compute`).  Version
  subscribers run last, so the version they receive is already
  ``current``.

The index also owns the version subscribers and the serve metrics.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
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
from repro.serve.model import (
    AccountProfile,
    ActivityRecord,
    FunnelPartial,
    ServeVersion,
    TokenStatus,
    record_key,
)
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.monitor import StreamingMonitor

VersionCallback = Callable[[ServeVersion], None]

#: Confirmation order.  Every record carries its own confirmation
#: alert's ``seq``, so seqs are unique and this is the ``(seq, key)``
#: order of the read model.
_by_seq = attrgetter("seq")


class ServeIndex:
    """Maintains and publishes the immutable read model, tick by tick."""

    def __init__(
        self,
        monitor: StreamingMonitor,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if monitor.tick_count:
            raise ValueError(
                "ServeIndex must attach before the monitor's first tick"
            )
        self.monitor = monitor
        self.registry = (
            registry
            if registry is not None
            else getattr(monitor, "registry", None) or NULL_REGISTRY
        )
        #: The dirty-token-keyed aggregate cache.
        self.cache = AggregateCache()
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
            "serve_alert_log_entries", "Alerts readable from the replayable log."
        )
        self._metric_confirmed = self.registry.gauge(
            "serve_confirmed_records", "Confirmed activity records being served."
        )
        self.cache.register_metrics(self.registry)

        #: The newest published version (None only while version 0,
        #: the empty version, is built).
        self._current: Optional[ServeVersion] = None
        self._current = ServeVersion(
            confirmed=(),
            token_status={},
            account_profiles={},
            accounts_epoch=0,
            funnel=self._funnel(0, 0),
            **self._scalars(0, None),
        )
        self._note_published()
        monitor.subscribe_snapshots(self._on_snapshot)

    # -- public surface ----------------------------------------------------
    @property
    def current(self) -> ServeVersion:
        """The newest published version (atomic reference read)."""
        return self._current

    @property
    def last_seq(self) -> int:
        """Highest alert sequence number the current version folds in."""
        return self._current.last_seq

    def subscribe_versions(self, callback: VersionCallback) -> VersionCallback:
        """Register a callback invoked with every published version."""
        self._version_subscribers.append(callback)
        return callback

    def alerts_since(self, seq: int, limit: Optional[int] = None) -> Tuple[Alert, ...]:
        """Published alerts with sequence number strictly greater than
        ``seq``, up to the current version's ``last_seq``.

        The replay primitive: the monitor's log is append-only
        (``alerts[seq].seq == seq``) and the bound is read once, so a
        slice taken while the monitor thread appends is always a
        consistent prefix of the published stream.
        """
        start = max(seq + 1, 0)
        stop = self._current.last_seq + 1
        if limit is not None:
            stop = min(stop, start + limit)
        return tuple(self.monitor.alerts[start:stop])

    # -- tick application --------------------------------------------------
    def _on_snapshot(self, snapshot: MonitorSnapshot) -> None:
        """Fold one monitor tick in, publish, then invalidate the cache."""
        with self.registry.span("publish", dirty=snapshot.dirty_token_count):
            version, scopes = self._build_version(snapshot)
            self._current = version
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

    def _build_version(
        self, snapshot: MonitorSnapshot
    ) -> Tuple[ServeVersion, Set[Scope]]:
        """The tick's version and the cache scopes the tick can have moved.

        Nothing a reader can observe changes here.  A tick with no dirty
        token shares the previous version's containers: they are
        immutable, and new or rolled-back tokens are always dirty.
        Otherwise each dirty token's records are re-derived from the
        scheduler: surviving identities keep their confirmation
        coordinates but refresh their payload (evidence drift), new
        identities take their ``seq``/block from this tick's
        confirmation alert, and removed identities are dropped and
        counted as retractions.
        """
        previous = self._current
        scalars = self._scalars(snapshot.tick, snapshot)
        dirty = snapshot.dirty_nfts
        if not dirty:
            return dataclasses.replace(previous, **scalars), set()

        announced = {
            record_key(alert.activity): (alert.seq, alert.block)
            for alert in snapshot.alerts
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED
        }
        scheduler = self.monitor.scheduler
        token_status = dict(previous.token_status)
        refreshed: List[ActivityRecord] = []
        touched_accounts: Set[str] = set()
        changed_venues: Set[str] = set()
        for nft in dirty:
            status = token_status.pop(nft, None)
            old = {} if status is None else {r.key: r for r in status.records}
            fresh: List[ActivityRecord] = []
            for activity in scheduler.confirmed_activities(nft).values():
                key = record_key(activity)
                prior = old.pop(key, None)
                if prior is None:
                    seq, block = announced[key]
                else:
                    seq, block = prior.seq, prior.confirmed_at_block
                record = ActivityRecord.from_activity(activity, seq, block, key)
                fresh.append(record)
                if record != prior:
                    changed_venues.add(record.venue)
                    touched_accounts.update(record.accounts)
            for retracted in old.values():
                changed_venues.add(retracted.venue)
                touched_accounts.update(retracted.accounts)
            if fresh:
                # The count restarts whenever the token had no
                # confirmed activity (``status`` is then None).
                retractions = len(old) + (
                    0 if status is None else status.retraction_count
                )
                fresh.sort(key=_by_seq)
                token_status[nft] = TokenStatus(nft, tuple(fresh), retractions)
                refreshed.extend(fresh)

        dirty_set = set(dirty)
        confirmed = [r for r in previous.confirmed if r.nft not in dirty_set]
        confirmed.extend(refreshed)
        confirmed.sort(key=_by_seq)

        # A touched account's profile is re-read from the new statuses
        # of the tokens it had records on and of the dirty tokens it
        # has records on now.
        tokens_of: Dict[str, Set[NFTKey]] = {a: set() for a in touched_accounts}
        for record in refreshed:
            for account in record.accounts:
                nfts = tokens_of.get(account)
                if nfts is not None:
                    nfts.add(record.nft)
        profiles = dict(previous.account_profiles)
        accounts_moved = False
        for account, nfts in tokens_of.items():
            profile = profiles.get(account)
            if profile is not None:
                nfts.update(profile.nfts)
            mine = [
                record
                for nft in nfts
                if nft in token_status
                for record in token_status[nft].records
                if account in record.accounts
            ]
            if mine:
                mine.sort(key=_by_seq)
                profiles[account] = AccountProfile(account, tuple(mine))
                accounts_moved |= profile is None
            elif profile is not None:
                del profiles[account]
                accounts_moved = True

        version = ServeVersion(
            confirmed=tuple(confirmed),
            token_status=token_status,
            account_profiles=profiles,
            accounts_epoch=previous.accounts_epoch + int(accounts_moved),
            funnel=self._funnel(snapshot.tick, len(confirmed)),
            **scalars,
        )
        return version, _scopes_for(dirty, changed_venues)

    def _scalars(
        self, tick: int, snapshot: Optional[MonitorSnapshot]
    ) -> Dict[str, object]:
        """The fields every version refreshes (``snapshot`` is None only
        for version 0).  The token order is shared with the current
        version while the store's ``order_epoch`` and token count hold;
        otherwise it is rebuilt from the store."""
        store = self.monitor.cursor.store
        return dict(
            version=tick,
            block=self.monitor.processed_block,
            last_seq=len(self.monitor.alerts) - 1,
            dirty_token_count=0 if snapshot is None else snapshot.dirty_token_count,
            reorg_depth=0 if snapshot is None else snapshot.reorg_depth,
            retracted_count=0 if snapshot is None else snapshot.retracted_count,
            newly_confirmed_count=(
                0 if snapshot is None else snapshot.newly_confirmed_count
            ),
            token_order=self._token_order(store),
            token_order_epoch=store.order_epoch,
            store_stats=StoreStats.capture(store),
        )

    def _funnel(self, version: int, confirmed_count: int) -> FunnelPartial:
        """The scheduler's maintained funnel, frozen for one version."""
        funnel = self.monitor.scheduler.funnel
        return FunnelPartial(
            version=version,
            stages=funnel.materialize(),
            candidate_count=funnel.candidate_count,
            confirmed_count=confirmed_count,
        )

    def _token_order(self, store: ColumnarTransferStore) -> Tuple[NFTKey, ...]:
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
        self._metric_alert_log.set(self._current.last_seq + 1)
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
