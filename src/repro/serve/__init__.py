"""Query/serving subsystem: a concurrent wash-status API over the monitor.

The streaming monitor (:mod:`repro.stream`) keeps detection continuously
current; this package is its *read path* -- the part a marketplace or a
wallet actually calls.  There is one serving path, whatever the shard
count (``python -m repro serve --shards N``, default 1):

* :mod:`repro.serve.sharding` -- :class:`ShardedServeIndex`, the
  versioned read model: token-range shards (stable CRC32 routing), one
  shared alert log, and two-phase stage-then-flip publication of one
  immutable :class:`GlobalVersion` per monitor tick.  Reorg
  retractions publish a *revision* and never mutate a served snapshot,
  so queries get snapshot isolation without locks.
* :mod:`repro.serve.index` -- :class:`ServeIndex`, one shard: rebuilt
  incrementally from the tick's owned dirty slice, publishing an
  immutable :class:`~repro.serve.model.ServeVersion` that carries its
  differentially maintained funnel partial (:mod:`repro.serve.funnel`).
* :mod:`repro.serve.query` -- :class:`QueryService`: point lookups
  (``token_status``, ``account_profile``) routed to the owner shard,
  filtered paginated listings (``list_confirmed``) over the shards'
  k-way merge, scatter-gather aggregates (collection / marketplace
  rollups, live funnel statistics; partials in
  :mod:`repro.serve.router`) and replayable subscription cursors keyed
  by alert sequence number.
* :mod:`repro.serve.cache` -- :class:`AggregateCache`, a result cache
  invalidated *precisely* by the scheduler's per-tick dirty-token set:
  one per shard for partials, one for merged answers.
* :mod:`repro.serve.service` -- :class:`ServeService`, the facade that
  runs monitor ingest (inline or on a background thread) and the query
  front end together; ``python -m repro serve`` is its CLI.
* :mod:`repro.serve.wire` -- the network boundary: a length-prefixed
  JSON framing protocol over TCP (:class:`~repro.serve.wire.WireServer`
  / :class:`~repro.serve.wire.WireClient`) exposing every query
  endpoint plus a replayable ``subscribe`` alert stream with
  slow-client backpressure; ``python -m repro serve --listen`` serves
  it, ``python -m repro query`` drives it.

Parity bar (pinned by ``tests/serve`` and
``benchmarks/bench_serve_load.py``): at every published version --
including mid-reorg-storm -- every query answer equals a fresh batch
``WashTradingPipeline(engine="columnar")`` build over the same chain
prefix; :func:`~repro.serve.parity.serving_parity_mismatches` is that
global self-check, and
:func:`~repro.serve.parity.sharded_parity_mismatches` proves each shard
holds exactly its routed slice.
"""

from repro.serve.cache import AggregateCache, CacheStats
from repro.serve.index import ServeIndex
from repro.serve.load import LoadGenerator
from repro.serve.model import (
    AccountProfile,
    ActivityRecord,
    CollectionRollup,
    FunnelSnapshot,
    MarketplaceRollup,
    OFF_MARKET,
    ServeVersion,
    TokenStatus,
    record_key,
)
from repro.serve.parity import (
    serving_parity_mismatches,
    sharded_parity_mismatches,
)
from repro.serve.query import AlertReplayCursor, ConfirmedPage, QueryService
from repro.serve.service import ServeService
from repro.serve.sharding import (
    GlobalVersion,
    ShardSpec,
    ShardedServeIndex,
    shard_of,
)
from repro.serve.wire import (
    RemoteQueryService,
    WireClient,
    WireServer,
    wire_parity_mismatches,
)

__all__ = [
    "RemoteQueryService",
    "WireClient",
    "WireServer",
    "wire_parity_mismatches",
    "AccountProfile",
    "ActivityRecord",
    "AggregateCache",
    "AlertReplayCursor",
    "CacheStats",
    "CollectionRollup",
    "ConfirmedPage",
    "FunnelSnapshot",
    "GlobalVersion",
    "LoadGenerator",
    "MarketplaceRollup",
    "OFF_MARKET",
    "QueryService",
    "ServeIndex",
    "ServeService",
    "ServeVersion",
    "ShardSpec",
    "ShardedServeIndex",
    "TokenStatus",
    "record_key",
    "serving_parity_mismatches",
    "shard_of",
    "sharded_parity_mismatches",
]
