"""The read model, partitioned into token-range shards.

Every deployment serves through :class:`ShardedServeIndex`: ``N``
:class:`~repro.serve.index.ServeIndex` shards, each restricted to the
tokens whose stable key hash maps to it, behind one coordinator.  A
single-shard deployment is ``N=1``; there is no second serving path.

* **Routing** is by stable key hash (:func:`shard_of`, a CRC32 over
  the contract -- deliberately *not* Python's salted ``hash``, so the
  token→shard mapping is identical across processes and runs).  Tokens
  partition exactly; accounts and venues may span shards.  The
  coordinator hashes each dirty token once per tick and hands every
  shard its own slice.
* **One alert log.**  The coordinator owns the append-only log and the
  shards share the same list reference, so ``seq`` stays globally
  gapless and every shard's ``last_seq`` agrees.
* **Two-phase publication.**  Each tick, every shard *stages* its next
  version first (nothing visible changes), then the coordinator flips
  all shard handles plus the merged :class:`GlobalVersion` handle, and
  only then invalidates the per-shard caches.  Readers therefore either
  see the complete pre-tick state or the complete post-tick state --
  snapshot isolation and reorg-retraction revisions hold globally, not
  just per shard.
* **Per-shard dirty slices.**  Cache invalidation follows ownership,
  so a tick that only touches shard A's tokens leaves shard B's cached
  aggregate partials warm -- the scatter-gather aggregates of
  :class:`~repro.serve.query.QueryService` then recompute only the
  touched shards' partials.

:class:`GlobalVersion` duck-types the whole
:class:`~repro.serve.model.ServeVersion` surface (the parity checker,
the wire codec and the load generator all read it).  Scalars are
coordinator-computed; merged containers materialize lazily on first
access, so point lookups -- which route to one shard -- never pay for a
global merge.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from heapq import merge as heap_merge

from repro.chain.types import NFTKey
from repro.engine.views import StoreStats
from repro.obs.bounded import DEFAULT_ERROR_RETENTION, BoundedLog
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.serve.cache import AggregateCache
from repro.serve.index import (
    ServeIndex,
    StagedVersion,
    TickSlice,
    confirmation_info,
)
from repro.serve.model import AccountProfile, ActivityRecord, ServeVersion, TokenStatus
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.monitor import StreamingMonitor


def shard_of(nft: NFTKey, shard_count: int) -> int:
    """Stable shard of one token key: CRC32 of its contract.

    Process- and run-independent (unlike the interpreter's salted
    string hash), so the coordinator, queries, tests and future remote
    shards all agree on the same token→shard mapping.  Hashing the
    *contract* projection of the key (rather than ``contract:token_id``)
    co-locates each collection on one shard: wash activity concentrates
    inside target collections, so a tick's dirty slice -- SCC
    re-refinement included -- lands on few shards instead of being
    sprayed across all of them, and a collection rollup recomputes on
    exactly one shard.
    """
    return contract_shard(nft.contract, shard_count)


@lru_cache(maxsize=4096)
def contract_shard(contract: str, shard_count: int) -> int:
    """The shard owning every token of one contract (memoized: a tick
    routes many tokens of few collections)."""
    return zlib.crc32(contract.encode("utf-8")) % shard_count


@dataclass(frozen=True)
class ShardSpec:
    """Identity of one shard inside a fixed-size shard layout."""

    index: int
    count: int

    def contains(self, nft: NFTKey) -> bool:
        """True when this shard owns the token."""
        return shard_of(nft, self.count) == self.index


def merge_profiles(
    address: str, profiles: List[AccountProfile]
) -> AccountProfile:
    """One account's global profile from its per-shard profiles.

    Accounts span shards (a wash trader can touch tokens in several),
    so the global profile is the ``(seq, key)``-ordered union of the
    per-shard record lists -- the order each shard keeps its own in.
    """
    if len(profiles) == 1:
        return profiles[0]
    records = sorted(
        (record for profile in profiles for record in profile.records),
        key=lambda record: (record.seq, record.key),
    )
    return AccountProfile(address=address, records=tuple(records))


def _union(mappings: List[Mapping]) -> Mapping:
    """Union of disjoint read-only mappings; a lone non-empty one is
    shared as is rather than copied."""
    present = [mapping for mapping in mappings if mapping]
    if len(present) == 1:
        return present[0]
    merged: Dict = {}
    for mapping in present:
        merged.update(mapping)
    return merged


class GlobalVersion:
    """One globally consistent snapshot handle over per-shard versions.

    Built (and atomically swapped in) by :class:`ShardedServeIndex`
    after every shard has staged the same tick, so the held shard
    versions always describe one single tick -- never a mix.  Duck-types
    :class:`~repro.serve.model.ServeVersion`; merged containers are
    cached after first materialization (benign-race lazy init: a
    concurrent duplicate compute yields an equal value).
    """

    __slots__ = (
        "shards",
        "version",
        "block",
        "last_seq",
        "dirty_token_count",
        "reorg_depth",
        "retracted_count",
        "newly_confirmed_count",
        "token_order",
        "store_stats",
        "_confirmed",
        "_token_status",
        "_account_profiles",
        "_token_states",
    )

    def __init__(
        self,
        shards: Tuple[ServeVersion, ...],
        version: int,
        block: int,
        last_seq: int,
        dirty_token_count: int,
        reorg_depth: int,
        retracted_count: int,
        newly_confirmed_count: int,
        token_order: Tuple[NFTKey, ...],
        store_stats: StoreStats,
    ) -> None:
        self.shards = shards
        self.version = version
        self.block = block
        self.last_seq = last_seq
        self.dirty_token_count = dirty_token_count
        self.reorg_depth = reorg_depth
        self.retracted_count = retracted_count
        self.newly_confirmed_count = newly_confirmed_count
        self.token_order = token_order
        self.store_stats = store_stats
        self._confirmed: Optional[Tuple[ActivityRecord, ...]] = None
        self._token_status: Optional[Dict[NFTKey, TokenStatus]] = None
        self._account_profiles: Optional[Dict[str, AccountProfile]] = None
        self._token_states: Optional[Dict] = None

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_version_of(self, nft: NFTKey) -> ServeVersion:
        """The shard version owning one token (hash routing)."""
        return self.shards[shard_of(nft, len(self.shards))]

    # -- merged containers (lazy) ------------------------------------------
    @property
    def confirmed(self) -> Tuple[ActivityRecord, ...]:
        """Every confirmed record, ``(seq, key)``-ordered k-way merge.

        Each shard's ``confirmed`` is already sorted, and records
        partition across shards, so merging the sorted runs reproduces
        the global ordering exactly; a lone non-empty run is the answer
        as is, shared rather than copied.
        """
        merged = self._confirmed
        if merged is None:
            runs = [shard.confirmed for shard in self.shards if shard.confirmed]
            merged = (
                runs[0]
                if len(runs) == 1
                else tuple(
                    heap_merge(*runs, key=lambda record: (record.seq, record.key))
                )
            )
            self._confirmed = merged
        return merged

    @property
    def token_status(self) -> Mapping[NFTKey, TokenStatus]:
        merged = self._token_status
        if merged is None:
            merged = _union([shard.token_status for shard in self.shards])
            self._token_status = merged
        return merged

    @property
    def token_states(self) -> Mapping:
        merged = self._token_states
        if merged is None:
            merged = _union([shard.token_states for shard in self.shards])
            self._token_states = merged
        return merged

    @property
    def account_profiles(self) -> Mapping[str, AccountProfile]:
        merged = self._account_profiles
        if merged is None:
            present = [
                shard.account_profiles
                for shard in self.shards
                if shard.account_profiles
            ]
            if len(present) == 1:
                merged = present[0]
            else:
                grouped: Dict[str, List[AccountProfile]] = {}
                for profiles in present:
                    for address, profile in profiles.items():
                        grouped.setdefault(address, []).append(profile)
                merged = {
                    address: merge_profiles(address, profiles)
                    for address, profiles in grouped.items()
                }
            self._account_profiles = merged
        return merged

    # -- ServeVersion surface ----------------------------------------------
    @property
    def is_revision(self) -> bool:
        return self.retracted_count > 0 or self.reorg_depth > 0

    @property
    def confirmed_activity_count(self) -> int:
        return sum(shard.confirmed_activity_count for shard in self.shards)

    @property
    def flagged_nfts(self) -> FrozenSet[NFTKey]:
        merged: set = set()
        for shard in self.shards:
            merged.update(shard.token_status)
        return frozenset(merged)

    def status_of(self, nft: NFTKey) -> TokenStatus:
        """Point lookup: one shard dictionary read, no global merge."""
        return self.shard_version_of(nft).status_of(nft)

    def profile_of(self, address: str) -> AccountProfile:
        """Account lookup: probe every shard, merge only on multi-hit."""
        merged = self._account_profiles
        if merged is not None:
            profile = merged.get(address)
            return profile if profile is not None else AccountProfile(address=address)
        found = []
        for shard in self.shards:
            profile = shard.account_profiles.get(address)
            if profile is not None:
                found.append(profile)
        if not found:
            return AccountProfile(address=address)
        return merge_profiles(address, found)


class ShardedServeIndex:
    """The read model: a coordinator over ``N`` :class:`ServeIndex` shards.

    The one index every deployment runs -- a single-shard deployment is
    ``shard_count=1``.  Presents the surface the query service, the wire
    tier and the replay cursors consume (``current`` / ``last_seq`` /
    ``alerts_since`` / ``subscribe_versions``), with ``current`` being a
    :class:`GlobalVersion`.  See the module docstring for the
    publication and invalidation protocol.
    """

    def __init__(
        self,
        monitor: StreamingMonitor,
        shard_count: int,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.monitor = monitor
        self.registry = (
            registry
            if registry is not None
            else getattr(monitor, "registry", None) or NULL_REGISTRY
        )
        self.shard_count = shard_count
        #: The one append-only alert log (``alert_log[seq].seq == seq``),
        #: owned here and shared (by reference) with every shard; only
        #: the coordinator extends it.  Attaching to a monitor that
        #: already ran adopts its alerts, so replay sees the history.
        self.alert_log: List[Alert] = list(monitor.alerts)
        self.versions_published = 0
        #: Publication seqlock: odd while a tick is flipping the global
        #: handle and invalidating the per-shard caches, even when the
        #: two are mutually consistent.  Readers gathering cached
        #: partials validate it was stable-and-even across the gather
        #: (see :meth:`QueryService._gather`) -- the only window where a
        #: cached partial could disagree with the live handle.
        self.publish_seq = 0
        self._version_subscribers: List = []
        #: Recent version-subscriber failures, isolated like the
        #: monitor's own subscriber errors: a raising callback never
        #: starves the subscribers after it and never aborts the
        #: publish.  Bounded to the last DEFAULT_ERROR_RETENTION
        #: ``(callback, version, error)`` tuples; ``.total`` counts all.
        self.subscriber_errors: BoundedLog = BoundedLog(DEFAULT_ERROR_RETENTION)

        self.caches: Tuple[Optional[AggregateCache], ...] = tuple(
            AggregateCache() if use_cache else None for _ in range(shard_count)
        )
        #: Memo of *merged* aggregate answers, so a warm aggregate costs
        #: one lookup instead of a per-shard gather plus merge.
        #: Invalidated with the union of the shards' dirty scopes; on a
        #: miss the gather still resolves per shard, so only the shards
        #: a tick actually touched recompute their partials.
        self.router_cache: Optional[AggregateCache] = (
            AggregateCache() if use_cache else None
        )
        self.shards: Tuple[ServeIndex, ...] = tuple(
            ServeIndex(
                monitor,
                shard=ShardSpec(index=index, count=shard_count),
                alert_log=self.alert_log,
                cache=cache,
            )
            for index, cache in enumerate(self.caches)
        )
        self._register_metrics()
        self._current = self._global_version(
            tuple(shard.current for shard in self.shards),
            version=monitor.tick_count,
            dirty_token_count=0,
            reorg_depth=0,
            retracted_count=0,
            newly_confirmed_count=0,
        )
        self._note_published()
        monitor.subscribe_snapshots(self._on_snapshot)

    def _register_metrics(self) -> None:
        """The coordinator owns the unlabeled serve series; each shard
        reports its ``{shard="N"}`` children through a collector."""
        registry = self.registry
        self._metric_versions = registry.counter(
            "serve_versions_published_total", "Immutable versions published."
        )
        self._metric_confirmed = registry.gauge(
            "serve_confirmed_records", "Confirmed activity records being served."
        )
        self._metric_alert_log = registry.gauge(
            "serve_alert_log_entries", "Alerts held in the replayable log."
        )
        self._metric_subscriber_errors = registry.counter(
            "serve_subscriber_errors_total",
            "Version-subscriber callbacks that raised during publish.",
        )
        registry.gauge(
            "serve_shards", "Read-model shards behind the query service."
        ).set(self.shard_count)
        if self.router_cache is not None:
            self.router_cache.register_metrics(registry)
        for shard in self.shards:
            if shard.cache is not None:
                shard.cache.register_metrics(registry, _shard_label(shard))

        def collect():
            counters, gauges = {}, {}
            for shard in self.shards:
                label = _shard_label(shard)
                counters["serve_versions_published_total" + label] = (
                    shard.versions_published
                )
                gauges["serve_confirmed_records" + label] = (
                    shard.current.confirmed_activity_count
                )
            return {"counters": counters, "gauges": gauges}

        registry.register_collector(collect)

    # -- public surface ----------------------------------------------------
    @property
    def current(self) -> GlobalVersion:
        """The newest published global version (atomic reference read)."""
        return self._current

    @property
    def last_seq(self) -> int:
        """Highest alert sequence number folded in (globally gapless)."""
        return len(self.alert_log) - 1

    def subscribe_versions(self, callback) -> object:
        """Register a callback invoked with every published global version."""
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

    # -- tick application --------------------------------------------------
    def _slices(self, snapshot: MonitorSnapshot) -> List[TickSlice]:
        """Cut one tick into per-shard slices, hashing each key once."""
        count = self.shard_count
        slices = [TickSlice() for _ in range(count)]
        for nft in snapshot.dirty_nfts:
            slices[shard_of(nft, count)].dirty.append(nft)
        for alert in snapshot.alerts:
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                slices[shard_of(alert.nft, count)].newly_confirmed += 1
            elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
                slices[shard_of(alert.nft, count)].retracted += 1
        return slices

    def _on_snapshot(self, snapshot: MonitorSnapshot) -> None:
        """Stage every shard, then flip all handles, then invalidate.

        The order is the whole point:

        1. *Stage* -- each shard folds its slice of the tick into its
           working maps and builds (without publishing) its next
           version.  Readers still see the previous tick everywhere.
        2. *Flip* -- every shard handle and the global handle swap to
           the staged versions.  Single reference assignments; a reader
           resolves either the old or the new tick, never a mix of
           shard versions (the global handle carries its own shard
           tuple).
        3. *Invalidate* -- only now are the per-shard caches bumped
           with their own slice of the dirty set.  Publishing before
           invalidating means a racing reader can only have a
           freshly-computed value *discarded*, never cached stale
           (see :meth:`AggregateCache.get_or_compute`).

        Steps 2-3 sit inside the :attr:`publish_seq` seqlock window, so
        a scatter-gather reader can tell "my cached partials and the
        handle I resolved belong together" from "a flip+invalidate
        overlapped my reads" without comparing partial versions.
        """
        with self.registry.span(
            "publish", dirty=snapshot.dirty_token_count, shards=self.shard_count
        ):
            self.alert_log.extend(snapshot.alerts)
            confirmed = confirmation_info(snapshot.alerts)
            staged: List[StagedVersion] = [
                shard.stage_snapshot(snapshot, owned, confirmed)
                for shard, owned in zip(self.shards, self._slices(snapshot))
            ]
            global_version = self._global_version(
                tuple(stage.version for stage in staged),
                version=snapshot.tick,
                dirty_token_count=snapshot.dirty_token_count,
                reorg_depth=snapshot.reorg_depth,
                retracted_count=snapshot.retracted_count,
                newly_confirmed_count=snapshot.newly_confirmed_count,
            )
            for shard, stage in zip(self.shards, staged):
                shard.commit_staged(stage)
            # Seqlock around flip+invalidate: a reader that gathers
            # cached partials entirely outside this window is guaranteed
            # a cache state consistent with the handle it resolved.
            self.publish_seq += 1
            self._current = global_version
            for shard, stage in zip(self.shards, staged):
                shard.invalidate_staged(stage)
            if self.router_cache is not None:
                merged_scopes: set = set()
                for stage in staged:
                    merged_scopes.update(stage.scopes)
                self.router_cache.invalidate(merged_scopes)
            self.publish_seq += 1
            # The tick's alerts are globally readable from here on.
            self.registry.latency.mark(snapshot.trace, "publish")
        self._note_published()
        for callback in self._version_subscribers:
            try:
                callback(global_version)
            except Exception as error:  # noqa: BLE001 - isolation, as in
                # the monitor's _deliver: the publish is already done,
                # the failure is the subscriber's.
                self.subscriber_errors.append((callback, global_version, error))
                self._metric_subscriber_errors.inc()

    def _note_published(self) -> None:
        self.versions_published += 1
        self._metric_versions.inc()
        self._metric_alert_log.set(len(self.alert_log))
        self._metric_confirmed.set(self._current.confirmed_activity_count)

    def _global_version(
        self,
        shard_versions: Tuple[ServeVersion, ...],
        version: int,
        dirty_token_count: int,
        reorg_depth: int,
        retracted_count: int,
        newly_confirmed_count: int,
    ) -> GlobalVersion:
        store = self.monitor.cursor.store
        return GlobalVersion(
            shards=shard_versions,
            version=version,
            block=self.monitor.processed_block,
            last_seq=len(self.alert_log) - 1,
            dirty_token_count=dirty_token_count,
            reorg_depth=reorg_depth,
            retracted_count=retracted_count,
            newly_confirmed_count=newly_confirmed_count,
            token_order=tuple(store.tokens),
            store_stats=StoreStats.capture(store),
        )


def _shard_label(shard: ServeIndex) -> str:
    """A shard's series label, in the registry's flat naming convention."""
    return '{shard="%d"}' % shard.shard.index
