"""Wire protocol for the serving layer: the network boundary of the API.

PR 4 made detection *queryable in-process*; this package makes it a
*service*: a stdlib-only, length-prefixed JSON framing protocol over
TCP exposing every :class:`~repro.serve.query.QueryService` endpoint --
point lookups, paginated listings, cached aggregates, funnel
statistics, explicit version pinning -- plus a streaming ``subscribe``
verb that replays the alert log from any sequence cursor and then
pushes live confirmations and retractions with slow-client
backpressure.

Layers (bytes up):

* :mod:`~repro.serve.wire.framing` -- 4-byte big-endian length prefix +
  UTF-8 JSON object; the recoverable/unrecoverable error taxonomy;
  splicing of pre-encoded JSON text into a frame.
* :mod:`~repro.serve.wire.codec` -- deterministic JSON encodings of the
  read model (and alert decoding for stream consumers); each record and
  alert is encoded to frame text once.
* :mod:`~repro.serve.wire.server` -- :class:`WireServer`, a threaded
  ``socketserver`` front end with per-connection version pins, bounded
  subscriber queues and graceful draining shutdown.
* :mod:`~repro.serve.wire.client` -- :class:`WireClient` /
  :class:`AlertStream` / :class:`RemoteQueryService`, the latter a
  drop-in for the in-process read surface so identical workloads run
  over TCP.
* :mod:`~repro.serve.wire.parity` -- the wire acceptance bar: at a
  pinned version, every wire answer equals the encoding of the
  in-process answer, mid-reorg-storm included.
"""

from repro.serve.wire.client import (
    AlertStream,
    RemotePage,
    RemoteQueryService,
    RemoteReplayCursor,
    RemoteVersion,
    WireClient,
    WireRequestError,
)
from repro.serve.wire.codec import PROTOCOL_VERSION
from repro.serve.wire.framing import (
    ConnectionClosed,
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecodeError,
    FrameTooLargeError,
    TruncatedFrameError,
    WireError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.wire.parity import wire_parity_mismatches
from repro.serve.wire.server import WireServer

__all__ = [
    "AlertStream",
    "ConnectionClosed",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecodeError",
    "FrameTooLargeError",
    "PROTOCOL_VERSION",
    "RemotePage",
    "RemoteQueryService",
    "RemoteReplayCursor",
    "RemoteVersion",
    "TruncatedFrameError",
    "WireClient",
    "WireError",
    "WireRequestError",
    "WireServer",
    "encode_frame",
    "read_frame",
    "wire_parity_mismatches",
    "write_frame",
]
