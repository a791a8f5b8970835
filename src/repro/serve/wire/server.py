"""The wire server: every QueryService endpoint over threaded TCP.

:class:`WireServer` is a :class:`socketserver.ThreadingTCPServer` that
speaks the length-prefixed JSON framing of :mod:`repro.serve.wire.framing`.
One handler thread per connection runs a request/response loop; the
dispatch table maps verbs onto the in-process
:class:`~repro.serve.query.QueryService`, so the wire surface is exactly
the in-process surface -- same snapshot isolation, same answers
(:mod:`repro.serve.wire.parity` is the checkable form of that claim).

Three protocol decisions worth knowing:

* **Version pinning is explicit and per-connection.**  The ``version``
  verb pins the current :class:`~repro.serve.model.ServeVersion` and
  returns its number; subsequent requests carrying ``"version": N`` are
  answered from that exact immutable snapshot, however many ticks or
  reorg revisions land meanwhile.  Pins live in a bounded per-connection
  LRU (oldest evicted first); querying an evicted or never-pinned number
  is a typed ``unknown-version`` error, never a silently different
  snapshot.
* **Subscriptions replay, then stream, exactly once.**  ``subscribe``
  with ``since_seq`` first replays the append-only alert log from that
  cursor, then hands over to live pushes -- the two phases are stitched
  by alert sequence number, so the stream never skips and never repeats
  even while ingest is publishing concurrently.
* **Slow subscribers get a typed error, not an unbounded buffer.**
  Live alerts are fanned out through a bounded per-connection queue; a
  consumer that cannot keep up is sent one final
  ``subscriber-overflow`` event carrying the last sequence number it
  was actually sent, then disconnected.  Reconnecting with that cursor
  resumes exactly where delivery stopped.

Failure containment is the other half of the contract: a malformed
frame, an unknown verb, bad parameters or a handler bug yield a typed
error response (or a clean close when the byte stream itself is
unusable) on *that* connection only -- other connections, the listener
and the ingest thread are never affected.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.activity import DetectionMethod
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.serve.model import ServeVersion
from repro.serve.query import QueryService
from repro.serve.wire import codec
from repro.serve.wire.framing import (
    ConnectionClosed,
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecodeError,
    FrameTooLargeError,
    TruncatedFrameError,
    read_frame,
    write_frame,
)

#: How many alerts a subscription pusher replays per log read.
REPLAY_BATCH = 256

#: Default bound of the live-alert queue between the fan-out and one
#: subscribed connection; beyond it the subscriber is overflowed.
DEFAULT_SUBSCRIBER_QUEUE = 1024

#: Default size of the per-connection pinned-version LRU.
DEFAULT_MAX_PINS = 32

#: How many pinned versions the server-wide registry remembers (the
#: parity harness resolves pinned numbers back to version objects
#: through it).
PIN_REGISTRY_LIMIT = 512


class RequestError(Exception):
    """A typed request failure sent back as an error response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _require(params: Dict[str, Any], name: str, kind, kind_name: str):
    value = params.get(name)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise RequestError(
            "bad-request", f"parameter {name!r} must be a {kind_name}"
        )
    return value


def _optional(params: Dict[str, Any], name: str, kind, kind_name: str):
    value = params.get(name)
    if value is None:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise RequestError(
            "bad-request", f"parameter {name!r} must be a {kind_name} or null"
        )
    return value


class _Subscriber:
    """Live-delivery state of one subscribed connection."""

    def __init__(self, since_seq: int, queue_size: int) -> None:
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self.position = since_seq
        self.overflowed = False
        self.stopping = threading.Event()
        self.thread: Optional[threading.Thread] = None


class WireConnectionHandler(socketserver.StreamRequestHandler):
    """One connection's request loop; never lets a peer kill the server."""

    server: "WireServer"

    def setup(self) -> None:
        super().setup()
        self.send_lock = threading.Lock()
        self.busy = threading.Event()
        self.closed = threading.Event()
        self._pins: "OrderedDict[int, ServeVersion]" = OrderedDict()
        self._subscriber: Optional[_Subscriber] = None
        self.thread = threading.current_thread()
        self.server._register_connection(self)

    def finish(self) -> None:
        self._teardown_subscription()
        self.server._unregister_connection(self)
        self.closed.set()
        super().finish()

    # -- the request loop --------------------------------------------------
    def handle(self) -> None:
        while not self.server.closing.is_set():
            try:
                request = read_frame(self.rfile, self.server.max_frame_bytes)
            except ConnectionClosed:
                break
            except FrameTooLargeError as error:
                # The declared bytes were never read; the stream position
                # is unusable.  Typed error, then close.
                self._send_error(None, error.code, error.message)
                self.server._count("frame_errors")
                break
            except TruncatedFrameError:
                self.server._count("frame_errors")
                break
            except FrameDecodeError as error:
                # Framing was intact, only the payload was garbage: the
                # stream is still synchronized, so the connection lives.
                self._send_error(None, error.code, error.message)
                self.server._count("frame_errors")
                continue
            except (OSError, ValueError):
                break
            if not self._serve_one(request):
                break

    def _serve_one(self, request: Dict[str, Any]) -> bool:
        """Dispatch one request; False when the connection must close."""
        request_id = request.get("id")
        if request_id is not None and not isinstance(request_id, (int, str)):
            request_id = None
        # A client-injected trace id is echoed verbatim on the response
        # frame (success or error) so a caller can correlate requests
        # across its own systems; absent in, absent out.
        trace = request.get("trace")
        if not isinstance(trace, str) or not trace:
            trace = None
        # Known verbs are labeled verbatim; everything else is clamped
        # to "unknown" so a fuzzing peer cannot mint unbounded label
        # cardinality in the per-verb metric families.
        verb = request.get("verb")
        verb_label = verb if isinstance(verb, str) and verb in self.VERBS else "unknown"
        self.busy.set()
        started = time.perf_counter()
        try:
            self.server._count("requests")
            self.server.metric_requests.labels(verb=verb_label).inc()
            try:
                result = self._dispatch(request)
            except RequestError as error:
                self.server._count("request_errors")
                return self._send_error(
                    request_id, error.code, error.message, trace=trace
                )
            except Exception as error:  # noqa: BLE001 - a handler bug must
                # surface as a typed response on this connection, not as a
                # dead server thread.
                self.server._count("internal_errors")
                return self._send_error(
                    request_id,
                    "internal-error",
                    f"{type(error).__name__}: {error}",
                    trace=trace,
                )
            payload = {"id": request_id, "ok": True, "result": result}
            if trace is not None:
                payload["trace"] = trace
            sent = self._send(payload)
            # A subscribe verb flips the connection into streaming mode
            # only after its acknowledgement is on the wire, so the ok
            # response always precedes the first pushed event.
            if sent and self._subscriber is not None and self._subscriber.thread is None:
                self._start_pusher()
            return sent
        finally:
            self.server.metric_latency.labels(verb=verb_label).observe(
                time.perf_counter() - started
            )
            self.busy.clear()

    # -- sending -----------------------------------------------------------
    def _send(self, payload: Dict[str, Any]) -> bool:
        try:
            with self.send_lock:
                write_frame(self.wfile, payload)
            return True
        except (OSError, ValueError):
            return False

    def _send_error(
        self, request_id, code: str, message: str, trace: Optional[str] = None
    ) -> bool:
        payload: Dict[str, Any] = {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
        if trace is not None:
            payload["trace"] = trace
        return self._send(payload)

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, request: Dict[str, Any]):
        verb = request.get("verb")
        if not isinstance(verb, str):
            raise RequestError("bad-request", "request must carry a string 'verb'")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise RequestError("bad-request", "'params' must be an object")
        handler = self.VERBS.get(verb)
        if handler is None:
            raise RequestError("unknown-verb", f"unknown verb {verb!r}")
        return handler(self, params)

    def _resolve_pin(self, params: Dict[str, Any]) -> Optional[ServeVersion]:
        """The pinned version named by the request, or None when unpinned.

        Verbs that can answer from the *current* state pass the None
        straight through to the :class:`QueryService`: that is the
        branch served by the dirty-token-keyed aggregate cache, so an
        unpinned wire aggregate stays as cheap as an unpinned
        in-process one.
        """
        number = _optional(params, "version", int, "integer")
        if number is None:
            return None
        pinned = self._pins.get(number)
        if pinned is None:
            raise RequestError(
                "unknown-version",
                f"version {number} is not pinned on this connection "
                f"(pin with the 'version' verb; pins are evicted "
                f"oldest-first beyond {self.server.max_pins})",
            )
        self._pins.move_to_end(number)
        return pinned

    def _resolve_version(self, params: Dict[str, Any]) -> ServeVersion:
        """Like :meth:`_resolve_pin` but always a concrete snapshot."""
        pinned = self._resolve_pin(params)
        return self.server.query.version() if pinned is None else pinned

    def _pin(self, version: ServeVersion) -> None:
        self._pins[version.version] = version
        self._pins.move_to_end(version.version)
        while len(self._pins) > self.server.max_pins:
            self._pins.popitem(last=False)
        self.server._remember_pin(version)

    # -- verbs -------------------------------------------------------------
    def _verb_ping(self, params: Dict[str, Any]):
        return {"pong": True, "protocol": codec.PROTOCOL_VERSION}

    def _verb_version(self, params: Dict[str, Any]):
        version = self.server.query.version()
        self._pin(version)
        return codec.encode_version_info(version)

    def _verb_release(self, params: Dict[str, Any]):
        number = _require(params, "version", int, "integer")
        return {"released": self._pins.pop(number, None) is not None}

    def _verb_token_order(self, params: Dict[str, Any]):
        version = self._resolve_version(params)
        return {
            "version": version.version,
            "tokens": [codec.encode_nft(nft) for nft in version.token_order],
        }

    def _verb_accounts(self, params: Dict[str, Any]):
        version = self._resolve_version(params)
        return {
            "version": version.version,
            "accounts": sorted(version.account_profiles),
        }

    def _verb_token_status(self, params: Dict[str, Any]):
        version = self._resolve_pin(params)
        contract = _require(params, "contract", str, "string")
        token_id = _require(params, "token_id", int, "integer")
        status = self.server.query.token_status(
            contract, token_id, version=version
        )
        return codec.encode_token_status(status)

    def _verb_account_profile(self, params: Dict[str, Any]):
        version = self._resolve_pin(params)
        address = _require(params, "address", str, "string")
        return codec.encode_account_profile(
            self.server.query.account_profile(address, version=version)
        )

    def _verb_list_confirmed(self, params: Dict[str, Any]):
        version = self._resolve_pin(params)
        method_name = _optional(params, "method", str, "string")
        method = None
        if method_name is not None:
            try:
                method = DetectionMethod(method_name)
            except ValueError:
                raise RequestError(
                    "bad-request", f"unknown detection method {method_name!r}"
                ) from None
        venue = _optional(params, "venue", str, "string")
        since_block = _optional(params, "since_block", int, "integer")
        limit = _optional(params, "limit", int, "integer")
        limit = 50 if limit is None else limit
        if limit < 1:
            raise RequestError("bad-request", "'limit' must be >= 1")
        raw_cursor = params.get("cursor")
        try:
            cursor = codec.decode_page_cursor(raw_cursor)
        except (TypeError, ValueError, KeyError):
            raise RequestError(
                "bad-request", f"malformed pagination cursor {raw_cursor!r}"
            ) from None
        page = self.server.query.list_confirmed(
            method=method,
            venue=venue,
            since_block=since_block,
            limit=limit,
            cursor=cursor,
            version=version,
        )
        return codec.encode_page(page)

    def _verb_collections(self, params: Dict[str, Any]):
        version = self._resolve_version(params)
        return {
            "version": version.version,
            "collections": list(self.server.query.collections(version=version)),
        }

    def _verb_venues(self, params: Dict[str, Any]):
        version = self._resolve_version(params)
        return {
            "version": version.version,
            "venues": list(self.server.query.venues(version=version)),
        }

    def _verb_collection_rollup(self, params: Dict[str, Any]):
        # An unpinned rollup goes through version=None so the aggregate
        # cache serves it, exactly like the in-process API.
        version = self._resolve_pin(params)
        contract = _require(params, "contract", str, "string")
        return codec.encode_collection_rollup(
            self.server.query.collection_rollup(contract, version=version)
        )

    def _verb_marketplace_rollup(self, params: Dict[str, Any]):
        version = self._resolve_pin(params)
        venue = _require(params, "venue", str, "string")
        return codec.encode_marketplace_rollup(
            self.server.query.marketplace_rollup(venue, version=version)
        )

    def _verb_funnel_stats(self, params: Dict[str, Any]):
        version = self._resolve_pin(params)
        return codec.encode_funnel(
            self.server.query.funnel_stats(version=version)
        )

    def _verb_alerts(self, params: Dict[str, Any]):
        since_seq = _optional(params, "since_seq", int, "integer")
        since_seq = -1 if since_seq is None else since_seq
        limit = _optional(params, "limit", int, "integer")
        if limit is not None and limit < 1:
            raise RequestError("bad-request", "'limit' must be >= 1")
        batch = self.server.index.alerts_since(since_seq, limit)
        return {
            "alerts": [codec.encode_alert(alert) for alert in batch],
            "last_seq": self.server.index.last_seq,
        }

    def _verb_stats(self, params: Dict[str, Any]):
        # The flat socket counters keep their historical top-level keys;
        # the full cross-layer registry snapshot (per-verb latency
        # histograms, tick-stage timings, cache ratios, reorg counters)
        # rides alongside under "metrics".
        stats: Dict[str, Any] = dict(self.server.stats())
        stats["metrics"] = self.server.metrics_snapshot()
        return stats

    def _verb_health(self, params: Dict[str, Any]):
        # The owning ServeService supplies the full readiness picture
        # (ingest liveness, publish lag, SLO budgets); a bare wire
        # server still answers with its own socket-layer view so the
        # probe CLI works against any node.
        provider = self.server.health_snapshot
        if provider is not None:
            return provider()
        return {"status": "ok", "wire": self.server.health_stats()}

    def _verb_trace(self, params: Dict[str, Any]):
        """Everything the node remembers about one trace id: the tick's
        spans (from the span ring) and the alert seqs it published."""
        trace = _require(params, "trace", str, "string")
        spans = [
            record.as_dict()
            for record in self.server.registry.recent_spans()
            if record.trace == trace
        ]
        # Alerts sharing a trace are one tick's contiguous block of the
        # append-only log, so a reverse scan can stop at the first
        # non-matching alert after the block.
        alert_seqs: List[int] = []
        log = self.server.index.alerts_since(-1)
        for alert in reversed(log):
            if alert.trace == trace:
                alert_seqs.append(alert.seq)
            elif alert_seqs:
                break
        alert_seqs.reverse()
        return {
            "trace": trace,
            "spans": spans,
            "alert_seqs": alert_seqs,
            "found": bool(spans or alert_seqs),
            "marks": dict(self.server.registry.latency.marks(trace)),
        }

    def _verb_subscribe(self, params: Dict[str, Any]):
        if self._subscriber is not None:
            raise RequestError(
                "already-subscribed", "this connection is already streaming"
            )
        since_seq = _optional(params, "since_seq", int, "integer")
        since_seq = -1 if since_seq is None else since_seq
        last_seq = self.server.index.last_seq
        if since_seq > last_seq:
            # A cursor from some other server (or a typo) would make the
            # seq-stitched delivery silently drop everything until the
            # log catches up to the bogus position; refuse it instead.
            raise RequestError(
                "cursor-above-horizon",
                f"since_seq {since_seq} is beyond the newest alert "
                f"({last_seq}); resubscribe with a cursor the server "
                f"actually issued",
            )
        subscriber = _Subscriber(since_seq, self.server.subscriber_queue_size)
        # Register for live fan-out *before* the replay starts so no
        # alert can fall between the phases; duplicates are dropped by
        # sequence number in the pusher.
        self._subscriber = subscriber
        self.server._register_subscriber(subscriber)
        return {"subscribed": True, "since_seq": since_seq}

    def _verb_unsubscribe(self, params: Dict[str, Any]):
        if self._subscriber is None:
            return {"unsubscribed": False}
        self._teardown_subscription()
        return {"unsubscribed": True}

    VERBS: Dict[str, Callable] = {
        "ping": _verb_ping,
        "version": _verb_version,
        "release": _verb_release,
        "token_order": _verb_token_order,
        "accounts": _verb_accounts,
        "token_status": _verb_token_status,
        "account_profile": _verb_account_profile,
        "list_confirmed": _verb_list_confirmed,
        "collections": _verb_collections,
        "venues": _verb_venues,
        "collection_rollup": _verb_collection_rollup,
        "marketplace_rollup": _verb_marketplace_rollup,
        "funnel_stats": _verb_funnel_stats,
        "alerts": _verb_alerts,
        "stats": _verb_stats,
        "health": _verb_health,
        "trace": _verb_trace,
        "subscribe": _verb_subscribe,
        "unsubscribe": _verb_unsubscribe,
    }

    # -- subscription delivery ---------------------------------------------
    def _start_pusher(self) -> None:
        subscriber = self._subscriber
        if subscriber is None:
            return
        subscriber.thread = threading.Thread(
            target=self._push_alerts,
            args=(subscriber,),
            name="wire-subscription",
            daemon=True,
        )
        subscriber.thread.start()

    def _push_alerts(self, subscriber: _Subscriber) -> None:
        """Replay from the cursor, then stream live -- exactly once."""
        index = self.server.index
        try:
            # Phase 1: catch up from the append-only log.  Live alerts
            # published meanwhile land in the queue too; the sequence
            # check below deduplicates the overlap.
            while not subscriber.stopping.is_set():
                batch = index.alerts_since(subscriber.position, REPLAY_BATCH)
                if not batch:
                    break
                for alert in batch:
                    if not self._push_alert_frame(alert):
                        return
                    subscriber.position = alert.seq
            # Phase 2: live queue.
            while not subscriber.stopping.is_set():
                if subscriber.overflowed and subscriber.queue.empty():
                    break
                try:
                    alert = subscriber.queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                if alert is None or alert.seq <= subscriber.position:
                    continue
                if not self._push_alert_frame(alert):
                    return
                subscriber.position = alert.seq
            if subscriber.overflowed and not subscriber.stopping.is_set():
                # One typed goodbye carrying the resume cursor, then the
                # connection is closed: the queue stays bounded, no silent gaps.
                self.server._count("overflows")
                self._send_event(
                    {
                        "event": "error",
                        "error": {
                            "code": "subscriber-overflow",
                            "message": (
                                "subscriber too slow; resubscribe with "
                                f"since_seq={subscriber.position} to resume"
                            ),
                        },
                        "last_seq": subscriber.position,
                    }
                )
                self._shutdown_socket()
        finally:
            self.server._unregister_subscriber(subscriber)

    def _send_event(self, payload: Dict[str, Any]) -> bool:
        return self._send(payload)

    def _push_alert_frame(self, alert) -> bool:
        """Write one alert event; server-stamps the tick's trace id on
        the frame and closes the latency ledger after the write."""
        payload: Dict[str, Any] = {
            "event": "alert",
            "alert": codec.encode_alert(alert),
        }
        if alert.trace:
            payload["trace"] = alert.trace
        if not self._send_event(payload):
            return False
        # The end of the measured pipeline: the frame reached the
        # subscriber's socket.  Re-observes deliver/total per frame.
        self.server.registry.latency.mark(alert.trace, "socket_write")
        return True

    def _teardown_subscription(self) -> None:
        subscriber = self._subscriber
        if subscriber is None:
            return
        self._subscriber = None
        subscriber.stopping.set()
        self.server._unregister_subscriber(subscriber)
        if (
            subscriber.thread is not None
            and subscriber.thread is not threading.current_thread()
        ):
            subscriber.thread.join(timeout=5)

    def _shutdown_socket(self) -> None:
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class WireServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end over one :class:`QueryService`."""

    daemon_threads = True
    allow_reuse_address = True
    block_on_close = False

    def __init__(
        self,
        query: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        subscriber_queue_size: int = DEFAULT_SUBSCRIBER_QUEUE,
        max_pins: int = DEFAULT_MAX_PINS,
        registry: Optional[MetricsRegistry] = None,
        metrics_snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
        health_snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.query = query
        self.index = query.index
        self.registry = (
            registry
            if registry is not None
            else getattr(query.index, "registry", None) or NULL_REGISTRY
        )
        #: Cross-layer snapshot hook for the ``stats`` verb; the owning
        #: ServeService passes its own so wire clients see every layer,
        #: not just the wire's instruments.
        self._metrics_snapshot = metrics_snapshot or self.registry.snapshot
        #: Readiness hook for the ``health`` verb; the owning
        #: ServeService passes :meth:`ServeService.health_snapshot`.
        #: None on a bare server -- the verb then answers from
        #: :meth:`health_stats` alone.
        self.health_snapshot = health_snapshot
        self.metric_requests = self.registry.counter(
            "wire_requests_total", "Wire requests dispatched, labeled by verb.",
            labels=("verb",),
        )
        self.metric_latency = self.registry.histogram(
            "wire_request_seconds",
            "Wire request handling latency, labeled by verb.",
            labels=("verb",),
        )
        self.registry.register_collector(self._collect_metrics)
        self.max_frame_bytes = max_frame_bytes
        self.subscriber_queue_size = subscriber_queue_size
        self.max_pins = max_pins
        self.closing = threading.Event()
        self._lock = threading.Lock()
        self._connections: List[WireConnectionHandler] = []
        self._subscribers: List[_Subscriber] = []
        self._fanout_position = self.index.last_seq
        self._counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "request_errors": 0,
            "internal_errors": 0,
            "frame_errors": 0,
            "overflows": 0,
        }
        self._pin_registry: "OrderedDict[int, ServeVersion]" = OrderedDict()
        self._serve_thread: Optional[threading.Thread] = None
        super().__init__((host, port), WireConnectionHandler)
        # Live alerts flow to subscribers on the publishing (ingest)
        # thread; the index isolates subscriber exceptions, so a wire
        # failure can never abort a tick.
        self.index.subscribe_versions(self._fan_out)

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- port is concrete even when 0 was asked."""
        return self.server_address[0], self.server_address[1]

    def start(self) -> "WireServer":
        """Serve connections on a background daemon thread."""
        if self._serve_thread is not None:
            raise RuntimeError("wire server already started")
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="wire-accept",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, close.

        In-flight requests get their responses; idle and subscribed
        connections are then disconnected; finally every handler thread
        is joined.  Safe to call more than once.
        """
        if self.closing.is_set():
            return
        self.closing.set()
        if self._serve_thread is not None:
            self.shutdown()  # stops serve_forever
            self._serve_thread.join(timeout=timeout)
        self.server_close()  # closes the listener socket
        with self._lock:
            connections = list(self._connections)
        deadline = threading.Event()
        for connection in connections:
            # Drain: let the response of an in-flight request reach the
            # wire before the socket is torn down.
            waited = 0.0
            while connection.busy.is_set() and waited < timeout:
                deadline.wait(0.01)
                waited += 0.01
            connection._teardown_subscription()
            connection._shutdown_socket()
        for connection in connections:
            if connection.thread is not threading.current_thread():
                connection.thread.join(timeout=timeout)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["active_connections"] = len(self._connections)
            snapshot["active_subscribers"] = len(self._subscribers)
        return snapshot

    def subscriber_queue_pressure(self) -> float:
        """Worst-case fullness of any live subscriber queue (0..1).

        The health surface's early-warning signal: a subscriber at 1.0
        is about to be overflowed and disconnected.
        """
        with self._lock:
            subscribers = list(self._subscribers)
        pressure = 0.0
        for subscriber in subscribers:
            size = subscriber.queue.maxsize or 1
            pressure = max(pressure, subscriber.queue.qsize() / size)
        return pressure

    def health_stats(self) -> Dict[str, Any]:
        """The wire slice of the health surface."""
        stats = self.stats()
        return {
            "active_connections": stats["active_connections"],
            "active_subscribers": stats["active_subscribers"],
            "requests": stats["requests"],
            "request_errors": stats["request_errors"],
            "internal_errors": stats["internal_errors"],
            "frame_errors": stats["frame_errors"],
            "overflows": stats["overflows"],
            "subscriber_queue_pressure": self.subscriber_queue_pressure(),
        }

    def _collect_metrics(self) -> Dict[str, Dict[str, float]]:
        """Registry collector: the socket-layer counters and live levels.

        These already exist in ``_counters`` (asserted by the wire test
        batteries), so the registry polls them at snapshot time instead
        of double-counting on the hot path.
        """
        stats = self.stats()
        return {
            "counters": {
                "wire_connections_total": stats["connections"],
                "wire_request_errors_total": stats["request_errors"],
                "wire_internal_errors_total": stats["internal_errors"],
                "wire_frame_errors_total": stats["frame_errors"],
                "wire_subscriber_overflows_total": stats["overflows"],
            },
            "gauges": {
                "wire_active_connections": stats["active_connections"],
                "wire_active_subscribers": stats["active_subscribers"],
            },
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The cross-layer metrics view the ``stats`` verb returns."""
        return self._metrics_snapshot()

    def lookup_version(self, number: int) -> Optional[ServeVersion]:
        """Resolve a pinned version number back to its snapshot.

        The server remembers recently pinned versions so an in-process
        harness (the parity checks, the benchmarks) can compare wire
        answers at version ``N`` against in-process answers from the
        very same immutable object.
        """
        with self._lock:
            return self._pin_registry.get(number)

    # -- internals ---------------------------------------------------------
    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def _remember_pin(self, version: ServeVersion) -> None:
        with self._lock:
            self._pin_registry[version.version] = version
            while len(self._pin_registry) > PIN_REGISTRY_LIMIT:
                self._pin_registry.popitem(last=False)

    def _register_connection(self, connection: WireConnectionHandler) -> None:
        with self._lock:
            self._connections.append(connection)
            self._counters["connections"] += 1

    def _unregister_connection(self, connection: WireConnectionHandler) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def _register_subscriber(self, subscriber: _Subscriber) -> None:
        with self._lock:
            self._subscribers.append(subscriber)

    def _unregister_subscriber(self, subscriber: _Subscriber) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _fan_out(self, version: ServeVersion) -> None:
        """Push this tick's alerts to every live subscriber queue."""
        batch = self.index.alerts_since(self._fanout_position)
        if not batch:
            return
        self._fanout_position = batch[-1].seq
        ledger = self.registry.latency
        marked: set = set()
        for alert in batch:
            if alert.trace and alert.trace not in marked:
                marked.add(alert.trace)
                ledger.mark(alert.trace, "fanout_enqueue")
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            if subscriber.overflowed:
                continue
            for alert in batch:
                try:
                    subscriber.queue.put_nowait(alert)
                except queue.Full:
                    # Stop feeding this subscriber: what is queued stays a
                    # contiguous prefix, everything after it is dropped
                    # and the pusher sends the typed overflow goodbye.
                    subscriber.overflowed = True
                    break

    def handle_error(self, request, client_address) -> None:
        # A handler-thread crash is already surfaced as an internal-error
        # response where possible; never let socketserver print a
        # traceback over the serving output or kill the acceptor.
        self._count("internal_errors")
