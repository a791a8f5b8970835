"""The serving facade: monitor ingest plus a concurrent query front end.

:class:`ServeService` wires the serving pieces together -- a
:class:`~repro.stream.StreamingMonitor`, the versioned read model
(:class:`~repro.serve.index.ServeIndex`) with its dirty-token-keyed
:class:`~repro.serve.cache.AggregateCache`, and the
:class:`~repro.serve.query.QueryService` -- and drives the monitor
through one tick path: every tick goes through :meth:`advance`, which
also keeps the tick-latency histogram, the latency ledger's
``block_seen`` mark and the health liveness watermark.  :meth:`run`
follows the chain tick by tick, inline (the deterministic path tests
and benchmarks use) or -- via :meth:`start_background`, the ``python
-m repro serve`` path -- on a daemon thread while any number of reader
threads query concurrently.

Threading model: exactly one writer (whichever thread drives the
monitor) mutates state; every read answers from an immutable published
version, so readers never block the writer and never see a half-applied
tick.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.core.detectors.pipeline import PipelineResult
from repro.obs.registry import NULL_REGISTRY, HistogramSnapshot, MetricsRegistry
from repro.serve.cache import AggregateCache, CacheStats
from repro.serve.index import ServeIndex
from repro.serve.model import ServeVersion
from repro.serve.query import QueryService
from repro.stream.monitor import StreamingMonitor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.wire.server import WireServer


class ServeService:
    """Owns one monitor and serves queries over its versioned state."""

    def __init__(
        self,
        monitor: StreamingMonitor,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.monitor = monitor
        #: The service inherits its monitor's registry unless given its
        #: own, so one registry spans ingest through serving.
        self.registry = (
            registry
            if registry is not None
            else getattr(monitor, "registry", None) or NULL_REGISTRY
        )
        self.index = ServeIndex(monitor, use_cache=use_cache, registry=self.registry)
        #: The index's aggregate cache (None when uncached).
        self.cache: Optional[AggregateCache] = self.index.cache
        self.query = QueryService(self.index)
        #: Per-tick wall-clock latency of ingest, as a bounded-reservoir
        #: histogram: exact count/sum, estimated percentiles, O(1)
        #: memory however long the service runs.
        #: Recorded even without an external registry (a private one
        #: backs it), so the CLI summary always has percentiles.
        self._tick_registry = (
            self.registry if self.registry.enabled else MetricsRegistry()
        )
        self.tick_latency = self._tick_registry.histogram(
            "serve_tick_seconds",
            "Wall-clock latency of each ingest tick.",
        )
        #: Set when the background ingest loop has finished (caught up,
        #: reached its target, was stopped -- or crashed; see
        #: ``ingest_error``).
        self.done = threading.Event()
        #: The exception that killed the background ingest loop, if any.
        #: ``join()`` re-raises it so a crash can never masquerade as a
        #: clean completion.
        self.ingest_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: The TCP front end, when one was started (see :meth:`serve_wire`).
        self.wire: Optional["WireServer"] = None
        #: Wall-clock time of the last completed tick (health liveness
        #: watermark); None until the first tick.
        self._last_tick_at: Optional[float] = None
        #: The attached SLO engine, if any (see :meth:`attach_slo`).
        self.slo_engine = None
        #: Seconds without a tick before a still-running ingest loop is
        #: reported as stalled by :meth:`health_snapshot`.
        self.stall_after = 30.0

    @classmethod
    def for_world(
        cls,
        world,
        use_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
        **monitor_kwargs,
    ) -> "ServeService":
        """Build a service over a simulated world's handles."""
        if registry is not None:
            monitor_kwargs.setdefault("registry", registry)
        return cls(
            StreamingMonitor.for_world(world, **monitor_kwargs),
            use_cache=use_cache,
            registry=registry,
        )

    # -- introspection -----------------------------------------------------
    def tick_latency_snapshot(self) -> HistogramSnapshot:
        """Percentiles of ingest tick latency (CLI summary)."""
        return self.tick_latency.snapshot()

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One JSON-friendly view of every metric the service touches.

        With a real registry this is the full cross-layer picture
        (cursor, scheduler, monitor, index, cache, wire); without one,
        the privately tracked tick histogram is still reported so the
        surface never comes back empty.
        """
        snapshot = self.registry.snapshot()
        if not self.registry.enabled:
            snapshot["histograms"]["serve_tick_seconds"] = (
                self.tick_latency.snapshot().as_dict()
            )
        return snapshot

    def health_snapshot(self) -> Dict[str, Any]:
        """One readiness read: ingest liveness, publish lag, wire
        pressure, SLO budget state, rolled up into a traffic-light
        ``status`` -- the payload of the ``health`` wire verb and the
        contract behind ``python -m repro probe``.

        * ``ok`` -- serving and inside every budget.
        * ``degraded`` -- serving, but an SLO budget is exhausted, a
          subscriber queue is near overflow, or background ingest has
          stalled (no tick for ``stall_after`` seconds).
        * ``unhealthy`` -- the ingest loop crashed.
        """
        now = time.time()
        head = self.monitor.node.block_number
        processed = self.monitor.processed_block
        running = self._thread is not None and not self.done.is_set()
        crashed = self.ingest_error is not None
        last_tick_age = (
            None if self._last_tick_at is None else now - self._last_tick_at
        )
        ingest: Dict[str, Any] = {
            "processed_block": processed,
            "head_block": head,
            "lag_blocks": max(head - processed, 0),
            "ticks": self.monitor.tick_count,
            "running": running,
            "done": self.done.is_set(),
            "crashed": crashed,
            "last_tick_age_seconds": last_tick_age,
        }
        if crashed:
            ingest["error"] = repr(self.ingest_error)
        current = self.index.current
        publish: Dict[str, Any] = {
            "version": current.version,
            "published_seq": current.last_seq,
            "log_seq": self.index.last_seq,
            "lag_alerts": max(self.index.last_seq - current.last_seq, 0),
        }
        health: Dict[str, Any] = {"ingest": ingest, "publish": publish}
        wire = self.wire
        if wire is not None:
            health["wire"] = wire.health_stats()
        if self.slo_engine is not None:
            health["slo"] = self.slo_engine.state()

        stalled = (
            running
            and last_tick_age is not None
            and last_tick_age > self.stall_after
        )
        budget_blown = any(
            not state["healthy"] for state in health.get("slo", {}).values()
        )
        pressured = (
            health.get("wire", {}).get("subscriber_queue_pressure", 0.0) >= 0.9
        )
        if crashed:
            status = "unhealthy"
        elif stalled or budget_blown or pressured:
            status = "degraded"
        else:
            status = "ok"
        health["status"] = status
        return health

    def cache_stats(self) -> Optional[CacheStats]:
        """A copy of the aggregate-cache counters (what the CLI summary
        and the benchmark report); None when caching is disabled."""
        if self.cache is None:
            return None
        return dataclasses.replace(self.cache.stats)

    def attach_slo(self, engine) -> None:
        """Evaluate ``engine`` every tick (see :mod:`repro.obs.slo`);
        breaches surface as SLO_BREACH alerts on the monitor's stream
        and as budget state in :meth:`health_snapshot`."""
        self.slo_engine = engine
        self.monitor.attach_slo(engine)

    # -- driving -----------------------------------------------------------
    def advance(self, to_block: Optional[int] = None) -> ServeVersion:
        """One monitor tick; returns the version it published.

        Before the tick, opens its latency-ledger entry: trace ids are
        deterministic (see ``StreamingMonitor.predict_trace``), so
        "block seen" is stamped ahead of the run -- gated on an enabled
        registry, so the bare path pays nothing.  After it, records the
        tick's latency and the liveness watermark.
        """
        if self.registry.enabled:
            self.registry.latency.mark(self.monitor.predict_trace(), "block_seen")
        started = time.perf_counter()
        self.monitor.advance(to_block)
        self.tick_latency.observe(time.perf_counter() - started)
        self._last_tick_at = time.time()
        return self.index.current

    def run(
        self, to_block: Optional[int] = None, step_blocks: int = 25
    ) -> ServeVersion:
        """Follow the chain to ``to_block`` (default: head), one
        :meth:`advance` per step of :meth:`StreamingMonitor.tick_targets`,
        checking the stop flag between ticks."""
        for target in self.monitor.tick_targets(to_block, step_blocks):
            if self._stop.is_set():
                break
            self.advance(target)
        return self.index.current

    def start_background(
        self, to_block: Optional[int] = None, step_blocks: int = 25
    ) -> threading.Thread:
        """Run :meth:`run` on a daemon thread; readers query meanwhile.

        :meth:`stop` ends it between ticks.  ``done`` is set when it
        exits for any reason; a crash is kept in ``ingest_error``.
        """
        if self._thread is not None:
            raise RuntimeError("background ingest already started")
        if step_blocks < 1:
            raise ValueError("step_blocks must be >= 1")

        def drive() -> None:
            try:
                self.run(to_block, step_blocks)
            except BaseException as error:  # noqa: BLE001 - re-raised by join
                self.ingest_error = error
            finally:
                self.done.set()

        self._thread = threading.Thread(
            target=drive, name="serve-ingest", daemon=True
        )
        self._thread.start()
        return self._thread

    def stop(self, timeout: Optional[float] = None) -> None:
        """Ask the ingest loop to exit and join it.

        Unlike :meth:`join`, a crash that happened before the stop is
        still surfaced -- the stored ``ingest_error`` is re-raised.
        """
        self._stop.set()
        self.join(timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for background ingest to finish; True when it did.

        Re-raises the exception that killed the ingest thread, if any --
        a crashed ingest must never look like a clean completion.
        """
        if self._thread is not None:
            self._thread.join(timeout)
            if self.ingest_error is not None:
                raise self.ingest_error
            return not self._thread.is_alive()
        return True

    # -- the wire front end ------------------------------------------------
    def serve_wire(
        self, host: str = "127.0.0.1", port: int = 0, **server_kwargs
    ) -> "WireServer":
        """Start the TCP front end over this service's query API.

        Returns the running :class:`~repro.serve.wire.server.WireServer`
        (``server.address`` carries the concrete port when 0 was asked).
        The server shares this service's versioned read model, so wire
        clients get the same snapshot-isolation guarantees as in-process
        readers; :meth:`shutdown` closes it gracefully.
        """
        if self.wire is not None:
            raise RuntimeError("wire server already started")
        from repro.serve.wire.server import WireServer

        server_kwargs.setdefault("registry", self.registry)
        server_kwargs.setdefault("metrics_snapshot", self.metrics_snapshot)
        server_kwargs.setdefault("health_snapshot", self.health_snapshot)
        self.wire = WireServer(self.query, host, port, **server_kwargs).start()
        return self.wire

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop of the whole service: listener, readers, ingest.

        Ordering matters: the wire listener stops accepting first, then
        in-flight requests are drained and connections closed, and only
        then is background ingest stopped and joined -- so every request
        that was accepted is answered from a live, publishing service.
        A crashed ingest thread is still surfaced (:meth:`stop`
        re-raises), but only after the wire side is down.
        """
        wire_timeout = 10.0 if timeout is None else timeout
        if self.wire is not None:
            self.wire.close(timeout=wire_timeout)
        self.stop(timeout)

    # -- passthroughs ------------------------------------------------------
    def result(self) -> PipelineResult:
        """The batch-identical pipeline result as of the processed block."""
        return self.monitor.result()
