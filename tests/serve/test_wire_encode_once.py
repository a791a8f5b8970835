"""Records and alerts go on the wire as text encoded once.

The server writes each frozen record and alert into its response frames
as cached JSON text (``codec.record_fragment`` / ``codec.alert_fragment``)
that ``encode_frame`` splices in.  What must hold:

* a frame holding fragments is byte-identical to ``encode_frame`` of
  the plain payload, wherever the fragments sit and whatever the
  strings beside them spell -- the splice placeholder included;
* the cache is keyed by identity: a record equal to a cached one but
  carrying other evidence goes out with its own evidence;
* at every pinned version of a reorg storm, the wire's record-bearing
  answers are the bytes of the reference ``codec.encode_*`` of the
  in-process answers;
* subscribers of one server get byte-identical alert frames, and an
  alert is encoded once however many subscribers and requests carry it.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import socket
import struct
import sys
import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.activity import DetectionEvidence, WashTradingActivity
from repro.serve import ServeService
from repro.serve.query import ConfirmedPage
from repro.serve.wire import WireClient, codec, encode_frame, read_frame, write_frame
from repro.serve.wire.framing import _MARK, _PLACEHOLDER, RawJSON, dumps
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from tests.serve.storm import CheckedMonitor, follow_storm

_LENGTH = struct.Struct(">I")


class RawWire:
    """One connection that returns response frames as raw bytes."""

    def __init__(self, server) -> None:
        self.sock = socket.create_connection(server.address, 10)
        self.sock.settimeout(10)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        self.next_id = 0

    def send(self, verb: str, trace=None, **params) -> int:
        self.next_id += 1
        request = {"id": self.next_id, "verb": verb, "params": params}
        if trace is not None:
            request["trace"] = trace
        write_frame(self.wfile, request)
        return self.next_id

    def frame(self) -> bytes:
        prefix = self.rfile.read(_LENGTH.size)
        (length,) = _LENGTH.unpack(prefix)
        return prefix + self.rfile.read(length)

    def call(self, verb: str, trace=None, **params):
        """``(request id, raw response frame)``."""
        request_id = self.send(verb, trace, **params)
        return request_id, self.frame()

    def close(self) -> None:
        self.rfile.close()
        self.wfile.close()
        self.sock.close()


def decoded(frame: bytes):
    return read_frame(io.BytesIO(frame))


def answer(request_id, result) -> bytes:
    """The reference response frame for a successful request."""
    return encode_frame({"id": request_id, "ok": True, "result": result})


# -- frame composition ------------------------------------------------------

#: Strings that spell the placeholder or its encoding, alone or inside
#: other text, so the colliding case is generated, not just sampled.
_SPELLINGS = [_PLACEHOLDER, f'"{_PLACEHOLDER}"', _MARK, "\x00", "\\u0000"]
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(_SPELLINGS),
    st.tuples(st.text(max_size=4), st.sampled_from(_SPELLINGS)).map("".join),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    texts,
)


def as_fragment(pair):
    """Send a value as pre-encoded text: ``(plain, fragment)``."""
    plain, _ = pair
    return plain, RawJSON(dumps(plain))


def split_list(items):
    return [plain for plain, _ in items], [composed for _, composed in items]


def split_dict(entries):
    return (
        {key: plain for key, (plain, _) in entries.items()},
        {key: composed for key, (_, composed) in entries.items()},
    )


def containers(children):
    item = st.one_of(children, children.map(as_fragment))
    return st.one_of(
        st.lists(item, max_size=4).map(split_list),
        st.dictionaries(texts, item, max_size=4).map(split_dict),
    )


#: ``(plain, composed)`` JSON trees: ``composed`` holds fragments at any
#: depth, ``plain`` the values they encode.
trees = st.recursive(scalars.map(lambda value: (value, value)), containers, max_leaves=24)
payloads = st.dictionaries(
    texts, st.one_of(trees, trees.map(as_fragment)), max_size=5
).map(split_dict)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_composed_frame_equals_the_plain_encoding(pair):
    plain, composed = pair
    frame = encode_frame(composed)
    assert frame == encode_frame(plain)
    assert decoded(frame) == plain


def test_a_string_spelling_the_placeholder_is_never_substituted():
    fragment = RawJSON(dumps({"value": [1, "é"]}))
    for spelling in _SPELLINGS:
        composed = {"trace": spelling, "records": [fragment], spelling: fragment}
        plain = {"trace": spelling, "records": [{"value": [1, "é"]}],
                 spelling: {"value": [1, "é"]}}
        frame = encode_frame(composed)
        assert frame == encode_frame(plain)
        assert decoded(frame)["trace"] == spelling


def test_an_echoed_trace_spelling_the_placeholder_comes_back_verbatim(settled_wire):
    service, server = settled_wire
    wire = RawWire(server)
    try:
        for trace in (_PLACEHOLDER, f"x{_PLACEHOLDER}y"):
            request_id, frame = wire.call("list_confirmed", trace=trace, limit=3)
            page = service.query.list_confirmed(limit=3)
            assert page.records
            assert frame == encode_frame(
                {"id": request_id, "ok": True, "result": codec.encode_page(page),
                 "trace": trace}
            )
    finally:
        wire.close()


# -- cache soundness --------------------------------------------------------


def drifted(record):
    """An equal record whose activity carries other evidence."""
    activity = WashTradingActivity(
        component=record.activity.component,
        evidence=[
            DetectionEvidence(item.method, {"drifted": "yes"})
            for item in record.activity.evidence
        ],
    )
    return dataclasses.replace(record, activity=activity)


def test_an_equal_record_with_drifted_evidence_is_sent_with_its_own(
    settled_wire, monkeypatch
):
    service, server = settled_wire
    query = service.query
    record = query.version().confirmed[0]
    original = codec.record_fragment(record).text
    copy = drifted(record)
    assert copy == record and hash(copy) == hash(record)
    assert codec.record_fragment(copy).text == dumps(codec.encode_record(copy))
    assert codec.record_fragment(copy).text != original
    assert codec.record_fragment(record).text == original

    # Over the wire, with the in-process answers holding the drifted copy.
    status = dataclasses.replace(query.token_status(record.nft), records=(copy,))
    page = ConfirmedPage(records=(copy,), next_cursor=None, total_matched=1, version=0)
    account = sorted(record.accounts)[0]
    profile = dataclasses.replace(query.account_profile(account), records=(copy,))
    monkeypatch.setattr(query, "token_status", lambda *args, **kwargs: status)
    monkeypatch.setattr(query, "list_confirmed", lambda **kwargs: page)
    monkeypatch.setattr(query, "account_profile", lambda *args, **kwargs: profile)
    wire = RawWire(server)
    try:
        nft = record.nft
        request_id, frame = wire.call(
            "token_status", contract=nft.contract, token_id=nft.token_id
        )
        assert frame == answer(request_id, codec.encode_token_status(status))
        request_id, frame = wire.call("list_confirmed")
        assert frame == answer(request_id, codec.encode_page(page))
        request_id, frame = wire.call("account_profile", address=account)
        assert frame == answer(request_id, codec.encode_account_profile(profile))
        evidence = decoded(frame)["result"]["records"][0]["activity"]["evidence"]
        assert evidence and all("drifted" in item["details"] for item in evidence)
    finally:
        wire.close()


def test_record_answers_equal_the_reference_at_every_pinned_version():
    """Clean tokens keep their records (and cached texts) across
    versions, dirty ones get fresh records; every pinned version of a
    reorg storm is checked byte for byte against the reference."""
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    server = service.serve_wire()
    wire = RawWire(server)
    query = service.query
    checked = Counter()

    def check_pinned():
        _, frame = wire.call("version")
        number = decoded(frame)["result"]["version"]
        pinned = server.lookup_version(number)
        cursor = None
        while True:
            request_id, frame = wire.call(
                "list_confirmed", limit=8, version=number,
                cursor=codec.encode_page_cursor(cursor),
            )
            page = query.list_confirmed(limit=8, cursor=cursor, version=pinned)
            assert frame == answer(request_id, codec.encode_page(page))
            checked["list_confirmed"] += 1
            cursor = page.next_cursor
            if cursor is None:
                break
        for nft in [*pinned.token_status, *pinned.token_order[:3]]:
            request_id, frame = wire.call(
                "token_status", contract=nft.contract, token_id=nft.token_id,
                version=number,
            )
            status = query.token_status(nft, version=pinned)
            assert frame == answer(request_id, codec.encode_token_status(status))
            checked["token_status"] += 1
        for account in pinned.account_profiles:
            request_id, frame = wire.call(
                "account_profile", address=account, version=number
            )
            profile = query.account_profile(account, version=pinned)
            assert frame == answer(request_id, codec.encode_account_profile(profile))
            checked["account_profile"] += 1
        wire.call("release", version=number)

    try:
        monitor = CheckedMonitor(service.monitor, check_pinned)
        assert follow_storm(world, monitor, random.Random(5)) > 0
        assert min(checked.values()) > 100, checked
    finally:
        wire.close()
        service.shutdown()


def test_readers_racing_to_fill_the_cache_all_get_the_reference():
    """More connection threads than cores page through a fresh server
    with a short switch interval, so fills interleave."""
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world)
    service.run()
    server = service.serve_wire()
    cursors, expected = [None], []
    while True:
        page = service.query.list_confirmed(limit=4, cursor=cursors[-1])
        expected.append(answer(len(cursors), codec.encode_page(page)))
        if page.next_cursor is None:
            break
        cursors.append(page.next_cursor)
    results = {}

    def read(slot):
        wire = RawWire(server)
        try:
            results[slot] = [
                wire.call(
                    "list_confirmed", limit=4, cursor=codec.encode_page_cursor(cursor)
                )[1]
                for cursor in cursors
            ]
        finally:
            wire.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(slot,)) for slot in range(6)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
        assert not any(reader.is_alive() for reader in readers)
    finally:
        sys.setswitchinterval(interval)
        service.shutdown()
    assert len(expected) > 1
    assert results == {slot: expected for slot in range(6)}


# -- alert fan-out ----------------------------------------------------------


def subscribe(server, since_seq: int) -> RawWire:
    wire = RawWire(server)
    wire.send("subscribe", since_seq=since_seq)
    assert decoded(wire.frame())["ok"]
    return wire


def push_frame(alert, encode_alert) -> bytes:
    """The reference push frame of one alert."""
    payload = {"event": "alert", "alert": encode_alert(alert)}
    if alert.trace:
        payload["trace"] = alert.trace
    return encode_frame(payload)


def test_subscribers_share_one_encoding_per_alert(monkeypatch):
    world = build_default_world(SimulationConfig.tiny())
    held = world.chain.reorg(40, [])
    service = ServeService.for_world(world)
    server = service.serve_wire()
    reference = codec.encode_alert
    encodes = Counter()

    def counting(alert):
        encodes[id(alert)] += 1
        return reference(alert)

    monkeypatch.setattr(codec, "encode_alert", counting)
    subscribers = []
    try:
        service.run()
        logged = list(service.monitor.alerts)
        assert logged
        # Replay: each subscriber catches up from the log after the one
        # before it has everything, so the count is exact.
        received = []
        for _ in range(3):
            subscribers.append(subscribe(server, -1))
            received.append([subscribers[-1].frame() for _ in logged])
        expected = [push_frame(alert, reference) for alert in logged]
        assert received == [expected] * 3
        assert encodes == Counter({id(alert): 1 for alert in logged})

        # Live: the three pushers race for the held blocks' alerts.
        chain = world.chain
        chain.reorg(1, [chain.blocks[-1], *held])
        service.run()
        live = service.monitor.alerts[len(logged):]
        assert live
        frames = [[None] * len(live) for _ in subscribers]

        def drain(slot, wire):
            for position in range(len(live)):
                frames[slot][position] = wire.frame()

        readers = [
            threading.Thread(target=drain, args=(slot, wire))
            for slot, wire in enumerate(subscribers)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
        assert frames == [[push_frame(alert, reference) for alert in live]] * 3
        assert all(1 <= encodes[id(alert)] <= len(subscribers) for alert in live)

        # The alerts verb reuses the same texts.
        before = sum(encodes.values())
        with WireClient(*server.address) as client:
            first = client.alerts(since_seq=-1)
            assert client.alerts(since_seq=-1) == first
        assert sum(encodes.values()) == before
        assert first["alerts"] == [
            json.loads(dumps(reference(alert))) for alert in service.monitor.alerts
        ]
    finally:
        for wire in subscribers:
            wire.close()
        service.shutdown()
