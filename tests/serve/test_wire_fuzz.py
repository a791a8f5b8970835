"""Protocol fuzzing: hostile bytes must never take the server down.

The containment contract under test (ISSUE 5 satellite): truncated
frames, oversized length prefixes, invalid JSON, unknown verbs,
malformed parameters and mid-frame disconnects each yield a typed error
response (or a clean close when the byte stream is unrecoverable) --
and never kill the server, never poison other connections.  Every test
ends by proving the server still answers a well-formed request.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading

import pytest

from repro.serve.wire import WireClient, WireRequestError, read_frame, write_frame
from repro.serve.wire.framing import DEFAULT_MAX_FRAME_BYTES


def raw_connection(server):
    host, port = server.address
    sock = socket.create_connection((host, port), 10)
    sock.settimeout(10)
    return sock


def send_raw(sock, payload: bytes) -> None:
    sock.sendall(payload)


def frame_bytes(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def read_response(sock) -> dict:
    return read_frame(sock.makefile("rb"))


def assert_server_alive(server) -> None:
    """The ultimate check of every fuzz case: a clean request still works."""
    with WireClient(*server.address) as client:
        assert client.ping()["pong"] is True


class TestFrameLevelAttacks:
    def test_truncated_frame_then_disconnect(self, settled_wire):
        _, server = settled_wire
        sock = raw_connection(server)
        send_raw(sock, struct.pack(">I", 100) + b"only ten b")
        sock.close()
        assert_server_alive(server)

    def test_partial_length_prefix_then_disconnect(self, settled_wire):
        _, server = settled_wire
        sock = raw_connection(server)
        send_raw(sock, b"\x00\x00")
        sock.close()
        assert_server_alive(server)

    def test_oversized_length_prefix_gets_typed_error_then_close(
        self, settled_wire
    ):
        _, server = settled_wire
        sock = raw_connection(server)
        send_raw(sock, struct.pack(">I", DEFAULT_MAX_FRAME_BYTES + 1))
        rfile = sock.makefile("rb")
        response = read_frame(rfile)
        assert response["ok"] is False
        assert response["error"]["code"] == "frame-too-large"
        # The stream position is unrecoverable: the server closes.
        assert rfile.read(1) == b""
        sock.close()
        assert_server_alive(server)

    def test_invalid_json_gets_typed_error_and_connection_survives(
        self, settled_wire
    ):
        _, server = settled_wire
        sock = raw_connection(server)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        send_raw(sock, frame_bytes(b"{nope nope nope"))
        response = read_frame(rfile)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        # Framing stayed in sync: the same connection still answers.
        write_frame(wfile, {"id": 5, "verb": "ping"})
        response = read_frame(rfile)
        assert response["ok"] is True and response["id"] == 5
        sock.close()

    def test_non_object_payload_is_bad_json(self, settled_wire):
        _, server = settled_wire
        sock = raw_connection(server)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        for payload in (b"[1,2,3]", b'"hello"', b"42", b"null", b""):
            send_raw(sock, frame_bytes(payload))
            response = read_frame(rfile)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-json"
        write_frame(wfile, {"id": 1, "verb": "ping"})
        assert read_frame(rfile)["ok"] is True
        sock.close()

    def test_mid_frame_disconnect_with_abort(self, settled_wire):
        _, server = settled_wire
        for _ in range(5):
            sock = raw_connection(server)
            send_raw(sock, struct.pack(">I", 5000) + b"x" * 100)
            # RST instead of FIN: the rudest possible goodbye.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
        assert_server_alive(server)


class TestRequestLevelAttacks:
    @pytest.fixture()
    def client(self, settled_wire):
        _, server = settled_wire
        with WireClient(*server.address) as client:
            yield client

    def assert_code(self, client, code, verb, **params):
        with pytest.raises(WireRequestError) as excinfo:
            client.request(verb, **params)
        assert excinfo.value.code == code, excinfo.value

    def test_unknown_verb(self, client):
        self.assert_code(client, "unknown-verb", "drop_all_tables")

    def test_missing_verb(self, settled_wire):
        _, server = settled_wire
        sock = raw_connection(server)
        rfile = sock.makefile("rb")
        send_raw(sock, frame_bytes(json.dumps({"id": 1}).encode()))
        response = read_frame(rfile)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        sock.close()

    def test_non_object_params(self, settled_wire):
        _, server = settled_wire
        sock = raw_connection(server)
        rfile = sock.makefile("rb")
        request = {"id": 1, "verb": "ping", "params": [1, 2]}
        send_raw(sock, frame_bytes(json.dumps(request).encode()))
        assert read_frame(rfile)["error"]["code"] == "bad-request"
        sock.close()

    def test_missing_and_mistyped_parameters(self, client):
        self.assert_code(client, "bad-request", "token_status")
        self.assert_code(
            client, "bad-request", "token_status", contract=7, token_id=1
        )
        self.assert_code(
            client, "bad-request", "token_status", contract="0xabc", token_id="one"
        )
        self.assert_code(
            client, "bad-request", "token_status", contract="0xabc", token_id=True
        )
        self.assert_code(client, "bad-request", "account_profile")
        self.assert_code(client, "bad-request", "collection_rollup")
        self.assert_code(client, "bad-request", "marketplace_rollup", venue=3.5)

    def test_bad_listing_parameters(self, client):
        self.assert_code(client, "bad-request", "list_confirmed", limit=0)
        self.assert_code(client, "bad-request", "list_confirmed", limit=-3)
        self.assert_code(client, "bad-request", "list_confirmed", limit="ten")
        self.assert_code(
            client, "bad-request", "list_confirmed", method="mind-reading"
        )
        self.assert_code(
            client, "bad-request", "list_confirmed", cursor=["bogus"]
        )
        self.assert_code(
            client, "bad-request", "list_confirmed", cursor={"seq": 1}
        )

    def test_bad_version_references(self, client):
        self.assert_code(client, "bad-request", "funnel_stats", version="seven")
        self.assert_code(client, "unknown-version", "funnel_stats", version=12345)
        self.assert_code(client, "bad-request", "release")

    def test_bad_token_order_offsets(self, client):
        """Negative and non-integer offsets are typed errors; an offset
        past the end is an empty suffix; the connection survives all."""
        for offset in (-1, -(2**70), 1.5, "3", True, [2]):
            self.assert_code(client, "bad-request", "token_order", offset=offset)
        size = client.token_order()["size"]
        assert size > 0
        for offset in (size, size + 1, 2**70):
            answer = client.token_order(offset=offset)
            assert answer["tokens"] == []
            assert answer["size"] == size
        assert client.ping()["pong"] is True

    def test_internal_errors_are_typed_not_fatal(self, client, monkeypatch):
        """A handler bug surfaces as internal-error on that request only."""
        from repro.serve.wire.server import WireConnectionHandler

        def explode(self, params):
            raise RuntimeError("synthetic handler bug")

        monkeypatch.setitem(WireConnectionHandler.VERBS, "funnel_stats", explode)
        self.assert_code(client, "internal-error", "funnel_stats")
        # Same connection, same server: everything else still answers.
        assert client.ping()["pong"] is True


class TestGarbageStorm:
    def test_random_garbage_never_poisons_valid_clients(self, settled_wire):
        """Seeded storm of garbage connections beside a correct client."""
        service, server = settled_wire
        rng = random.Random(20230313)
        errors: list = []
        stop = threading.Event()

        def well_behaved_reader():
            try:
                with WireClient(*server.address) as client:
                    while not stop.is_set():
                        version = client.version()
                        funnel = client.funnel_stats(version=version["version"])
                        if funnel["version"] != version["version"]:
                            errors.append("funnel answered at the wrong version")
                        client.release(version["version"])
            except Exception as error:  # noqa: BLE001 - recorded for assert
                errors.append(repr(error))

        reader = threading.Thread(target=well_behaved_reader, daemon=True)
        reader.start()
        try:
            for round_number in range(60):
                sock = raw_connection(server)
                shape = rng.random()
                if shape < 0.3:
                    # Pure noise, no framing at all.
                    sock.sendall(rng.randbytes(rng.randint(1, 300)))
                elif shape < 0.5:
                    # Honest frame, garbage payload.
                    sock.sendall(frame_bytes(rng.randbytes(rng.randint(0, 200))))
                elif shape < 0.7:
                    # Honest frame, random JSON of the wrong shape.
                    document = rng.choice(
                        [
                            [1, 2, 3],
                            {"verb": rng.randbytes(4).hex()},
                            {"verb": "token_status", "params": {"contract": None}},
                            {"params": {"x": 1}},
                            {"verb": ["subscribe"]},
                        ]
                    )
                    sock.sendall(frame_bytes(json.dumps(document).encode()))
                elif shape < 0.85:
                    # Truncated frame: declare more than is sent.
                    declared = rng.randint(10, 5000)
                    sock.sendall(
                        struct.pack(">I", declared)
                        + rng.randbytes(rng.randint(0, declared - 1))
                    )
                else:
                    # Oversized declaration.
                    sock.sendall(
                        struct.pack(">I", DEFAULT_MAX_FRAME_BYTES + rng.randint(1, 1000))
                    )
                sock.close()
        finally:
            stop.set()
            reader.join(timeout=30)
        assert errors == []
        assert_server_alive(server)
        # The storm was actually observed by the server, not ignored.
        with WireClient(*server.address) as client:
            assert client.stats()["frame_errors"] > 0
