"""Client side of the wire protocol.

Three layers, each one step closer to the in-process API:

* :class:`WireClient` -- one TCP connection speaking the framing
  protocol: synchronous ``request(verb, **params)`` plus
  ``subscribe()``, which flips the connection into streaming mode and
  returns an :class:`AlertStream`.
* :class:`AlertStream` -- a background reader draining pushed alert
  events into a local queue, decoding them back into real
  :class:`~repro.stream.alerts.Alert` objects.  A typed
  ``subscriber-overflow`` goodbye from the server is surfaced as
  :attr:`AlertStream.overflow_seq` (the resume cursor), not an
  exception.
* :class:`RemoteQueryService` -- a facade exposing the read surface of
  the in-process :class:`~repro.serve.query.QueryService` over the
  wire, including replay cursors, so workload drivers written against
  the in-process API (the load generator, the soak tests) run over TCP
  unchanged.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.chain.types import NFTKey
from repro.core.activity import DetectionMethod
from repro.serve.wire import codec
from repro.serve.wire.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    WireError,
    read_frame,
    write_frame,
)
from repro.stream.alerts import Alert


class WireRequestError(Exception):
    """The server answered ``ok: false``; carries the typed error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class WireClient:
    """One connection to a :class:`~repro.serve.wire.server.WireServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._next_id = 0
        #: Counts successful connects, so per-connection client state
        #: (:class:`RemoteQueryService`'s version cache) can tell a
        #: reconnect from the connection it was filled on.
        self.connection_id = 0
        self._streaming = False
        self._lock = threading.Lock()
        #: The ``trace`` echoed on the most recent response (None when
        #: the request carried no trace id).
        self.last_trace: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------
    def connect(self) -> "WireClient":
        if self._sock is not None:
            return self
        sock = socket.create_connection((self.host, self.port), self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self.connection_id += 1
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        return self

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        # Shut the socket down *before* closing the buffered files: a
        # reader thread blocked inside rfile holds its lock, and
        # shutdown is what unblocks it (close would deadlock until the
        # socket timeout instead).
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        sock.close()

    def __enter__(self) -> "WireClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- request/response --------------------------------------------------
    def request(
        self, verb: str, trace_id: Optional[str] = None, **params: Any
    ) -> Any:
        """One synchronous round trip; returns the ``result`` payload.

        ``trace_id`` rides the request frame's top-level ``trace`` field
        (not a verb parameter); the server echoes it on the response and
        :attr:`last_trace` captures the echo.
        """
        if self._sock is None:
            self.connect()
        if self._streaming:
            raise RuntimeError(
                "connection is in streaming mode; open a new WireClient "
                "for request/response traffic"
            )
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            payload = {
                "id": request_id,
                "verb": verb,
                "params": {
                    key: value for key, value in params.items() if value is not None
                },
            }
            if trace_id:
                payload["trace"] = trace_id
            write_frame(self._wfile, payload)
            response = read_frame(self._rfile, self.max_frame_bytes)
            self.last_trace = response.get("trace")
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise WireRequestError(
            error.get("code", "unknown"), error.get("message", "unknown error")
        )

    # -- convenience verbs -------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def version(self) -> Dict[str, Any]:
        """Pin the server's current version; returns its scalar summary."""
        return self.request("version")

    def release(self, version: int) -> bool:
        return bool(self.request("release", version=version)["released"])

    def token_order(
        self, version: Optional[int] = None, offset: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("token_order", version=version, offset=offset)

    def accounts(self, version: Optional[int] = None) -> Dict[str, Any]:
        return self.request("accounts", version=version)

    def token_status(
        self, contract: str, token_id: int, version: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request(
            "token_status", contract=contract, token_id=token_id, version=version
        )

    def account_profile(
        self, address: str, version: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("account_profile", address=address, version=version)

    def list_confirmed(self, **params: Any) -> Dict[str, Any]:
        return self.request("list_confirmed", **params)

    def collections(self, version: Optional[int] = None) -> List[str]:
        return self.request("collections", version=version)["collections"]

    def venues(self, version: Optional[int] = None) -> List[str]:
        return self.request("venues", version=version)["venues"]

    def collection_rollup(
        self, contract: str, version: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("collection_rollup", contract=contract, version=version)

    def marketplace_rollup(
        self, venue: str, version: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("marketplace_rollup", venue=venue, version=version)

    def funnel_stats(self, version: Optional[int] = None) -> Dict[str, Any]:
        return self.request("funnel_stats", version=version)

    def alerts(
        self, since_seq: int = -1, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("alerts", since_seq=since_seq, limit=limit)

    def stats(self) -> Dict[str, int]:
        return self.request("stats")

    def health(self) -> Dict[str, Any]:
        """The node's readiness snapshot (the ``health`` verb)."""
        return self.request("health")

    def trace_lookup(self, trace: str) -> Dict[str, Any]:
        """Spans, alert seqs and latency marks recorded for a trace id."""
        return self.request("trace", trace=trace)

    # -- streaming ---------------------------------------------------------
    def subscribe(self, since_seq: int = -1) -> "AlertStream":
        """Switch this connection into streaming mode.

        The server replays every alert after ``since_seq`` and then
        pushes live ones; the returned stream owns the connection from
        here on (``request`` raises).
        """
        self.request("subscribe", since_seq=since_seq)
        self._streaming = True
        return AlertStream(self)


class AlertStream:
    """Background consumer of one subscribed connection."""

    def __init__(self, client: WireClient) -> None:
        self._client = client
        self._queue: "queue.Queue" = queue.Queue()
        self.closed = threading.Event()
        #: Resume cursor from the server's overflow goodbye (None unless
        #: the server disconnected this subscriber for falling behind).
        self.overflow_seq: Optional[int] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="wire-alert-stream", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(
                    self._client._rfile, self._client.max_frame_bytes
                )
                event = frame.get("event")
                if event == "alert":
                    self._queue.put(codec.decode_alert(frame["alert"]))
                elif event == "error":
                    error = frame.get("error") or {}
                    if error.get("code") == "subscriber-overflow":
                        self.overflow_seq = frame.get("last_seq")
                    break
                # Anything else (e.g. a stray response) is ignored.
        except (WireError, OSError, ValueError):
            pass
        finally:
            self.closed.set()

    def poll(self) -> Tuple[Alert, ...]:
        """Drain every alert received so far without blocking."""
        drained: List[Alert] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return tuple(drained)

    def next(self, timeout: Optional[float] = None) -> Optional[Alert]:
        """Block up to ``timeout`` for the next alert; None on timeout."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self, timeout: float = 5.0) -> None:
        self._client.close()
        self._reader.join(timeout=timeout)


class RemoteVersion:
    """A pinned server version, as a client-side handle.

    Quacks enough like a :class:`~repro.serve.model.ServeVersion` for
    the read workloads: the version number, the store's token ordering
    and the implicated-account listing at that version.
    """

    def __init__(
        self,
        info: Dict[str, Any],
        token_order: Tuple[NFTKey, ...],
        account_profiles: Tuple[str, ...],
    ) -> None:
        self.info = info
        self.version: int = info["version"]
        self.block: int = info["block"]
        self.last_seq: int = info["last_seq"]
        self.confirmed_activity_count: int = info["confirmed_activity_count"]
        self.token_order = token_order
        self.account_profiles = account_profiles


def _version_number(version) -> Optional[int]:
    if version is None:
        return None
    if isinstance(version, RemoteVersion):
        return version.version
    if isinstance(version, int):
        return version
    return version.version  # a ServeVersion-shaped object


class RemoteReplayCursor:
    """The wire twin of :class:`~repro.serve.query.AlertReplayCursor`.

    Runs over its own subscribed connection; :meth:`poll` drains what
    the server has pushed so far, decoded into real alerts, and
    advances :attr:`position`.
    """

    def __init__(self, host: str, port: int, since_seq: int = -1) -> None:
        self.position = since_seq
        self._client = WireClient(host, port).connect()
        self._stream = self._client.subscribe(since_seq)
        #: Alerts drained from the stream but held back by a poll limit;
        #: always consumed before fresh stream output so order holds.
        self._pending: List[Alert] = []

    def poll(self, limit: Optional[int] = None) -> Tuple[Alert, ...]:
        batch = self._pending + list(self._stream.poll())
        if limit is not None and len(batch) > limit:
            self._pending = batch[limit:]
            batch = batch[:limit]
        else:
            self._pending = []
        if batch:
            self.position = batch[-1].seq
        return tuple(batch)

    @property
    def overflowed(self) -> bool:
        return self._stream.overflow_seq is not None

    def close(self) -> None:
        self._stream.close()


class RemoteQueryService:
    """The in-process query API, served over the wire.

    Drop-in for the read surface of
    :class:`~repro.serve.query.QueryService`: point lookups, listings,
    aggregates and replay cursors -- which is exactly what
    :class:`~repro.serve.load.LoadGenerator` exercises, so the same
    mixed workload can be pointed at a socket instead of a Python
    object.  Point answers come back as decoded JSON payloads; listing
    pages keep their ``records`` / ``next_cursor`` shape.

    ``version()`` pins server-side and caches the version's token
    ordering and account listing client-side, refreshing them by
    change: the token order is re-read only from where the cached one
    ends while the server's ``token_order_epoch`` holds (in full when
    it moves), and the account listing only when ``accounts_epoch``
    moves.  Epochs restart with a server, so the cache is dropped on
    reconnect.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.client = WireClient(host, port, timeout=timeout).connect()
        self._cached_version: Optional[RemoteVersion] = None
        #: The :attr:`WireClient.connection_id` the cache was filled on.
        self._cached_connection = self.client.connection_id
        self._cursors: List[RemoteReplayCursor] = []

    # -- versions ----------------------------------------------------------
    def version(self) -> RemoteVersion:
        info = self.client.version()
        if self._cached_connection != self.client.connection_id:
            self._cached_version = None
            self._cached_connection = self.client.connection_id
        cached = self._cached_version
        if cached is not None and cached.version == info["version"]:
            return cached
        number = info["version"]
        if cached is not None and (
            cached.info["accounts_epoch"] == info["accounts_epoch"]
        ):
            accounts = cached.account_profiles
        else:
            accounts = tuple(self.client.accounts(version=number)["accounts"])
        fresh = RemoteVersion(info, self._token_order(cached, info), accounts)
        self._cached_version = fresh
        return fresh

    def _token_order(
        self, cached: Optional[RemoteVersion], info: Dict[str, Any]
    ) -> Tuple[NFTKey, ...]:
        """The token order at ``info``'s version: the cached tuple, the
        cached tuple plus the fetched suffix, or a full fetch."""
        held: Tuple[NFTKey, ...] = ()
        if cached is not None and (
            cached.info["token_order_epoch"] == info["token_order_epoch"]
        ):
            # Within one epoch the order only grows at its end.
            held = cached.token_order
        if len(held) == info["store"]["token_count"]:
            return held
        suffix = self.client.token_order(version=info["version"], offset=len(held))
        return held + tuple(codec.decode_nft(item) for item in suffix["tokens"])

    # -- point lookups -----------------------------------------------------
    def token_status(
        self,
        nft: Union[NFTKey, str],
        token_id: Optional[int] = None,
        version=None,
    ) -> Dict[str, Any]:
        if isinstance(nft, NFTKey):
            contract, token_id = nft.contract, nft.token_id
        else:
            contract = nft
            if token_id is None:
                raise ValueError("token_id is required with a contract address")
        return self.client.token_status(
            contract, token_id, version=_version_number(version)
        )

    def account_profile(self, address: str, version=None) -> Dict[str, Any]:
        return self.client.account_profile(
            address, version=_version_number(version)
        )

    # -- listings ----------------------------------------------------------
    def list_confirmed(
        self,
        method=None,
        venue: Optional[str] = None,
        since_block: Optional[int] = None,
        limit: int = 50,
        cursor=None,
        version=None,
    ):
        if isinstance(method, DetectionMethod):
            method = method.value
        page = self.client.list_confirmed(
            method=method,
            venue=venue,
            since_block=since_block,
            limit=limit,
            cursor=codec.encode_page_cursor(cursor),
            version=_version_number(version),
        )
        return RemotePage(page)

    # -- aggregates --------------------------------------------------------
    def funnel_stats(self, version=None) -> Dict[str, Any]:
        return self.client.funnel_stats(version=_version_number(version))

    def collection_rollup(self, contract: str, version=None) -> Dict[str, Any]:
        return self.client.collection_rollup(
            contract, version=_version_number(version)
        )

    def marketplace_rollup(self, venue: str, version=None) -> Dict[str, Any]:
        return self.client.marketplace_rollup(
            venue, version=_version_number(version)
        )

    def collections(self, version=None) -> Tuple[str, ...]:
        return tuple(self.client.collections(version=_version_number(version)))

    def venues(self, version=None) -> Tuple[str, ...]:
        return tuple(self.client.venues(version=_version_number(version)))

    # -- subscriptions -----------------------------------------------------
    def replay(self, since_seq: int = -1) -> RemoteReplayCursor:
        cursor = RemoteReplayCursor(self.host, self.port, since_seq)
        self._cursors.append(cursor)
        return cursor

    def close(self) -> None:
        for cursor in self._cursors:
            cursor.close()
        self.client.close()


class RemotePage:
    """One wire page, with the cursor decoded for round-tripping."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload
        self.records: Tuple[Dict[str, Any], ...] = tuple(payload["records"])
        self.next_cursor = codec.decode_page_cursor(payload["next_cursor"])
        self.total_matched: int = payload["total_matched"]
        self.version: int = payload["version"]
