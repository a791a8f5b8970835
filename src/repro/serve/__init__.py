"""Query/serving subsystem: a concurrent wash-status API over the monitor.

The streaming monitor (:mod:`repro.stream`) keeps detection continuously
current; this package is its *read path* -- the part a marketplace or a
wallet actually calls:

* :mod:`repro.serve.index` -- :class:`ServeIndex`, the versioned read
  model: folding each tick's confirmations, retractions and evidence
  refreshes into the previous version, it publishes one immutable
  :class:`~repro.serve.model.ServeVersion` per monitor tick, carrying
  the scheduler's differentially maintained funnel, and serves the
  monitor's append-only alert log up to the published version.
  Reorg retractions publish a *revision* and never mutate a served
  snapshot, so queries get snapshot isolation without locks.
* :mod:`repro.serve.query` -- :class:`QueryService`: point lookups
  (``token_status``, ``account_profile``), filtered paginated listings
  (``list_confirmed``), aggregates (collection / marketplace rollups,
  live funnel statistics; computed in :mod:`repro.serve.router`) and
  replayable subscription cursors keyed by alert sequence number.
* :mod:`repro.serve.cache` -- :class:`AggregateCache`, the aggregate
  result cache, invalidated *precisely* by the scheduler's per-tick
  dirty-token set.
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
including mid-reorg-storm -- every query answer equals the reference
over the same chain prefix;
:func:`~repro.serve.parity.serving_parity_mismatches` is that
self-check.  ``serve --verify`` and the scenario runner check the final
version against the legacy networkx oracle
(:func:`repro.verify.reference`).
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
from repro.serve.parity import serving_parity_mismatches
from repro.serve.query import AlertReplayCursor, ConfirmedPage, QueryService
from repro.serve.service import ServeService
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
    "LoadGenerator",
    "MarketplaceRollup",
    "OFF_MARKET",
    "QueryService",
    "ServeIndex",
    "ServeService",
    "ServeVersion",
    "TokenStatus",
    "record_key",
    "serving_parity_mismatches",
]
