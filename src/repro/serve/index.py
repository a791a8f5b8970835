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
  served state beside it and reads no detection state of the
  scheduler's: each version folds the tick's ACTIVITY_CONFIRMED and
  ACTIVITY_RETRACTED alerts plus :attr:`MonitorSnapshot.refreshed
  <repro.stream.alerts.MonitorSnapshot.refreshed>` (evidence drift,
  which no alert re-announces) into the previous one, and freezes the
  funnel the scheduler maintains by dirty deltas
  (:class:`~repro.engine.refine.FunnelMaintainer`).  A tick that
  changes no record republishes the previous version's containers by
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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import WashTradingActivity, record_key
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
)
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.monitor import StreamingMonitor

VersionCallback = Callable[[ServeVersion], None]


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

        Nothing a reader can observe changes here.  Each
        ACTIVITY_RETRACTED alert drops its record (one more retraction
        on its token), each ACTIVITY_CONFIRMED alert appends one at the
        alert's seq and block, and each refreshed activity replaces its
        record in place, at the record's seq and block.  Appended seqs
        are the highest yet, so every container stays in seq order
        unsorted.  A tick that changes no record shares the previous
        version's (immutable) containers.
        """
        previous = self._current
        scalars = self._scalars(snapshot.tick, snapshot)
        dirty = snapshot.dirty_nfts
        if not dirty:
            return dataclasses.replace(previous, **scalars), set()

        statuses = previous.token_status
        # The tick's changes to served records, by the prior record's
        # seq: its replacement, or None when it is retracted.
        changes: Dict[int, Optional[ActivityRecord]] = {}
        gone: List[ActivityRecord] = []
        added: List[ActivityRecord] = []
        for alert in snapshot.alerts:
            if alert.kind is AlertKind.ACTIVITY_RETRACTED:
                prior = _record_of(statuses, alert.activity)
                changes[prior.seq] = None
                gone.append(prior)
            elif alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                added.append(
                    ActivityRecord.from_activity(alert.activity, alert.seq, alert.block)
                )
        for activity in snapshot.refreshed:
            prior = _record_of(statuses, activity)
            changes[prior.seq] = ActivityRecord.from_activity(
                activity, prior.seq, prior.confirmed_at_block
            )
            gone.append(prior)
        # Exactly the cache scopes the tick can have moved: any dirty
        # token may have moved its funnel stages, and a refresh that
        # leaves its record's values equal moves no venue rollup.
        scopes: Set[Scope] = {FUNNEL_SCOPE}
        scopes.update(collection_scope(nft.contract) for nft in dirty)
        scopes.update(venue_scope(r.venue) for r in added)
        scopes.update(venue_scope(r.venue) for r in gone if changes[r.seq] != r)
        if not gone and not added:
            funnel = self._funnel(snapshot.tick, len(previous.confirmed))
            return dataclasses.replace(previous, funnel=funnel, **scalars), scopes

        added_on: Dict[NFTKey, List[ActivityRecord]] = {}
        added_for: Dict[str, List[ActivityRecord]] = {}
        for record in added:
            added_on.setdefault(record.nft, []).append(record)
            for account in record.accounts:
                added_for.setdefault(account, []).append(record)

        token_status = dict(statuses)
        for nft in added_on.keys() | {record.nft for record in gone}:
            # A token absent from the previous version starts its
            # retraction count again at 0.
            status = previous.status_of(nft)
            records = _fold(status.records, changes, added_on.get(nft, ()))
            retracted = sum(changes.get(r.seq, r) is None for r in status.records)
            if records:
                token_status[nft] = TokenStatus(
                    nft, records, status.retraction_count + retracted
                )
            else:
                token_status.pop(nft, None)

        profiles = dict(previous.account_profiles)
        accounts_moved = False
        for account in added_for.keys() | {a for r in gone for a in r.accounts}:
            profile = previous.profile_of(account)
            records = _fold(profile.records, changes, added_for.get(account, ()))
            accounts_moved |= bool(records) != (account in profiles)
            if records:
                profiles[account] = AccountProfile(account, records)
            else:
                profiles.pop(account, None)

        confirmed = _fold(previous.confirmed, changes, added)
        version = ServeVersion(
            confirmed=confirmed,
            token_status=token_status,
            account_profiles=profiles,
            accounts_epoch=previous.accounts_epoch + int(accounts_moved),
            funnel=self._funnel(snapshot.tick, len(confirmed)),
            **scalars,
        )
        return version, scopes

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


def _record_of(
    statuses: Mapping[NFTKey, TokenStatus], activity: WashTradingActivity
) -> ActivityRecord:
    """The served record of a confirmed activity's identity."""
    key = record_key(activity)
    return next(r for r in statuses[activity.nft].records if r.key == key)


def _fold(
    records: Sequence[ActivityRecord],
    changes: Mapping[int, Optional[ActivityRecord]],
    added: Sequence[ActivityRecord],
) -> Tuple[ActivityRecord, ...]:
    """``records`` with each record whose seq is in ``changes`` replaced
    in place (or dropped, for None), then ``added`` -- whose seqs are
    above every other, so seq order holds."""
    folded = []
    for record in records:
        record = changes.get(record.seq, record)
        if record is not None:
            folded.append(record)
    folded.extend(added)
    return tuple(folded)
