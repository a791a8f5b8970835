"""Length-prefixed JSON framing: the byte layer of the wire protocol.

One frame is a 4-byte big-endian unsigned length ``N`` followed by
exactly ``N`` bytes of UTF-8 JSON encoding a single JSON object.  That
is the entire byte-level contract -- both directions, requests and
responses and pushed events alike -- so a reader is always either at a
frame boundary or inside a frame whose remaining size it knows.

The error taxonomy matters more than the happy path, because the server
must map every way a peer can violate the contract onto a *recoverable*
or *unrecoverable* outcome:

* :class:`FrameTooLargeError` -- the peer declared a length above the
  negotiated maximum.  The declared bytes were never read, so the stream
  position is unusable: respond with a typed error, then close.
* :class:`FrameDecodeError` -- the length was honest and fully read, but
  the payload is not valid UTF-8 JSON or not a JSON object.  The stream
  is still at a frame boundary: respond with a typed error and keep the
  connection.
* :class:`TruncatedFrameError` -- the peer disconnected mid-frame.
  Nothing can be sent back; close quietly.
* :class:`ConnectionClosed` -- clean EOF exactly at a frame boundary:
  the normal end of a connection, not an error.

A payload may hold :class:`RawJSON` fragments: JSON text encoded once
and spliced into every frame that carries it (the server's cached
record and alert encodings).  The frame is byte-identical to the one
the decoded values would give.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO, Callable, Dict, List, Optional

#: Frames above this many payload bytes are rejected unless the caller
#: raises the limit.  Generous for the serving answers (a full confirmed
#: listing with activities attached) while bounding a hostile prefix.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix.
_LENGTH = struct.Struct(">I")


class WireError(Exception):
    """Base of every wire-protocol failure; carries a stable code."""

    code = "wire-error"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class ConnectionClosed(WireError):
    """Clean EOF at a frame boundary (the peer simply hung up)."""

    code = "connection-closed"


class TruncatedFrameError(WireError):
    """The peer disconnected in the middle of a frame."""

    code = "truncated-frame"


class FrameTooLargeError(WireError):
    """The peer declared a frame larger than the negotiated maximum."""

    code = "frame-too-large"

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(
            f"declared frame of {declared} bytes exceeds the {limit}-byte limit"
        )
        self.declared = declared
        self.limit = limit


class FrameDecodeError(WireError):
    """A well-framed payload that is not a JSON object."""

    code = "bad-json"


def dumps(value: Any, default: Optional[Callable[[Any], Any]] = None) -> str:
    """The canonical frame text of one JSON value."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True, default=default)


class RawJSON:
    """One JSON value already encoded as frame text.

    ``text`` must be ``dumps(value)`` of a JSON value (see :func:`dumps`);
    :func:`encode_frame` splices it in verbatim.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


#: What a fragment stands in as while the rest of the frame is encoded.
#: The JSON encoder escapes the NUL, so the placeholder shows up in the
#: text as ``_MARK``; a user string can spell it too, which the count
#: check in :func:`_splice` catches.
_PLACEHOLDER = "\x00wire-fragment"
_MARK = dumps(_PLACEHOLDER)


def _splice(body: str, fragments: List[str]) -> Optional[str]:
    """``body`` with each placeholder replaced by its fragment's text, in
    order; None when some other string in the frame spells the mark.

    The encoder emits fragments in output order, so the k-th mark is the
    k-th fragment.  The mark's only quotes are its first and last
    characters and a closed JSON string is followed by ``,``, ``:``,
    ``]`` or ``}``, so no two marks overlap: exactly ``len(fragments)``
    of them means every one is a placeholder.
    """
    pieces = body.split(_MARK)
    if len(pieces) != len(fragments) + 1:
        return None
    out = [pieces[0]]
    for text, piece in zip(fragments, pieces[1:]):
        out.append(text)
        out.append(piece)
    return "".join(out)


def _fragment_text(value: Any) -> str:
    if isinstance(value, RawJSON):
        return value.text
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one JSON object into a complete frame (prefix + body).

    :class:`RawJSON` values anywhere in ``payload`` are spliced in as
    their text; a payload without them is encoded in one pass.
    """
    fragments: List[str] = []

    def placeholder(value: Any) -> str:
        fragments.append(_fragment_text(value))
        return _PLACEHOLDER

    text = dumps(payload, placeholder)
    if fragments:
        spliced = _splice(text, fragments)
        if spliced is None:
            # A user string spelled the mark: decode the fragments instead.
            spliced = dumps(payload, lambda value: json.loads(_fragment_text(value)))
        text = spliced
    body = text.encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def write_frame(stream: BinaryIO, payload: Dict[str, Any]) -> None:
    """Write one frame and flush it."""
    stream.write(encode_frame(payload))
    stream.flush()


def _read_exact(stream: BinaryIO, count: int, midframe: bool) -> bytes:
    """Read exactly ``count`` bytes or raise the appropriate EOF error."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if midframe or chunks:
                raise TruncatedFrameError(
                    f"peer disconnected {count - remaining} bytes into a "
                    f"{count}-byte read"
                )
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    stream: BinaryIO, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Read one frame; return its decoded JSON object.

    Raises the :class:`WireError` subclass matching how the peer broke
    the contract -- see the module docstring for which ones leave the
    stream usable.
    """
    prefix = _read_exact(stream, _LENGTH.size, midframe=False)
    (length,) = _LENGTH.unpack(prefix)
    if length > max_bytes:
        raise FrameTooLargeError(length, max_bytes)
    body = _read_exact(stream, length, midframe=True) if length else b""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameDecodeError(f"payload is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FrameDecodeError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload
