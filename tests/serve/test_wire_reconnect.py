"""Reconnect/replay and backpressure: the subscription contract.

Two satellites of ISSUE 5 live here:

* a subscriber that disconnects mid-stream and resubscribes from its
  last ``seq`` receives every confirmation and retraction exactly once,
  in order, across the reconnect -- while ingest keeps ticking and the
  chain keeps reorganizing in between;
* a subscriber that cannot keep up is not left lagging without bound:
  the server sends one typed ``subscriber-overflow`` event carrying the
  last delivered ``seq`` and closes, and resubscribing from that cursor
  resumes with no gap and no duplicate.

Replaying a backlog is not lag: only alerts published after the
subscribe count against the bound.  And an idle pusher sleeps on a
wake flag that teardown sets, so unsubscribing never waits on a poll.
"""

from __future__ import annotations

import random
import socket
import time
from collections import Counter

from repro.serve import ServeService, WireClient, record_key
from repro.serve.wire import read_frame, write_frame
from repro.serve.wire import server as server_module
from repro.serve.wire.server import WireServer
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.stream import AlertKind

from tests.serve.storm import drive_ticks, storm_tick


def collect_until(stream, target_seq, deadline_seconds=30):
    """Drain a stream until an alert with ``seq >= target_seq`` arrives."""
    collected = []
    deadline = time.perf_counter() + deadline_seconds
    while True:
        alert = stream.next(timeout=0.2)
        if alert is not None:
            collected.append(alert)
            if alert.seq >= target_seq:
                return collected
        assert time.perf_counter() < deadline, (
            f"stream stalled before seq {target_seq}; got "
            f"{collected[-1].seq if collected else 'nothing'}"
        )


def test_resubscribe_from_last_seq_is_exactly_once_in_order():
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    server = service.serve_wire()
    host, port = server.address
    rng = random.Random(77)

    try:
        # Segment 1: subscribe from the very beginning, consume while
        # ingest ticks and the chain reorganizes, then vanish mid-stream.
        first_client = WireClient(host, port).connect()
        first_stream = first_client.subscribe(-1)
        drive_ticks(world, service, rng, ticks=8)
        midpoint_seq = service.index.last_seq
        assert midpoint_seq >= 0
        received = collect_until(first_stream, midpoint_seq)
        first_stream.close()  # the disconnect: no unsubscribe, no goodbye

        # The world moves on while the subscriber is gone.
        drive_ticks(world, service, rng, ticks=8)

        # Segment 2: resubscribe from exactly the last seq applied.
        resume_from = received[-1].seq
        second_client = WireClient(host, port).connect()
        second_stream = second_client.subscribe(resume_from)
        drive_ticks(world, service, rng, ticks=4)
        service.advance()  # settle the final revision
        final_seq = service.index.last_seq
        received.extend(collect_until(second_stream, final_seq))
        second_stream.close()

        # Exactly once, in order, across the reconnect.
        seqs = [alert.seq for alert in received]
        assert seqs == list(range(final_seq + 1))

        # And the folded stream reconstructs the served truth --
        # confirmations minus retractions, evidence drift included.
        mirror: Counter = Counter()
        retractions = 0
        for alert in received:
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                mirror[record_key(alert.activity)] += 1
            elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
                mirror[record_key(alert.activity)] -= 1
                retractions += 1
                assert mirror[record_key(alert.activity)] >= 0, (
                    "retraction without a matching confirmation"
                )
        final = service.query.version()
        assert +mirror == Counter(record.key for record in final.confirmed)
        assert retractions > 0, "the run never exercised a retraction"
        assert final.confirmed_activity_count > 0
    finally:
        service.shutdown()


def test_slow_subscriber_gets_typed_overflow_and_resumes_cleanly():
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    # A deliberately tiny live queue so backpressure trips quickly; the
    # default server stays untouched on its own port.
    server = WireServer(service.query, subscriber_queue_size=4).start()
    host, port = server.address
    rng = random.Random(99)

    try:
        client = WireClient(host, port).connect()
        stream = client.subscribe(service.index.last_seq)

        # Find the server-side connection and freeze its delivery by
        # holding the send lock -- a subscriber that stopped reading,
        # made deterministic.
        handler = None
        deadline = time.perf_counter() + 10
        while handler is None and time.perf_counter() < deadline:
            with server._lock:
                for connection in server._connections:
                    if connection._subscriber is not None:
                        handler = connection
                        break
            time.sleep(0.01)
        assert handler is not None
        subscriber = handler._subscriber

        with handler.send_lock:
            # Ingest outruns the frozen subscriber: once more than 4
            # alerts published since it subscribed are unsent, the
            # fan-out marks it overflowed instead of letting it lag on.
            deadline = time.perf_counter() + 30
            while not subscriber.overflowed:
                assert time.perf_counter() < deadline, "overflow never tripped"
                storm_tick(world, service, rng)
            assert subscriber.lag(service.index.last_seq) > 4

        # Released: the pusher writes the batch it already read, sends
        # the typed goodbye and closes the connection.
        assert stream.closed.wait(timeout=30)
        assert stream.overflow_seq is not None
        delivered = stream.poll()
        if delivered:
            assert delivered[-1].seq == stream.overflow_seq
        assert server.stats()["overflows"] == 1

        # Resuming from the advertised cursor covers the rest exactly
        # once: no gap at the overflow point, no duplicates.
        service.advance()
        resume = WireClient(host, port).connect()
        resumed_stream = resume.subscribe(stream.overflow_seq)
        tail = collect_until(resumed_stream, service.index.last_seq)
        resumed_stream.close()
        seqs = [alert.seq for alert in delivered] + [alert.seq for alert in tail]
        assert seqs == list(
            range(delivered[0].seq if delivered else tail[0].seq, service.index.last_seq + 1)
        )
    finally:
        server.close()
        service.shutdown()


def test_replaying_a_backlog_longer_than_the_bound_is_not_overflow(
    settled_wire, monkeypatch
):
    service, _ = settled_wire
    # Small log reads, so the replay spans several of them.
    monkeypatch.setattr(server_module, "REPLAY_BATCH", 8)
    server = WireServer(service.query, subscriber_queue_size=4).start()
    try:
        last_seq = service.index.last_seq
        assert last_seq + 1 > 4 * 8, "the log must outgrow bound and batch"
        stream = WireClient(*server.address).connect().subscribe(-1)
        received = collect_until(stream, last_seq)
        assert [alert.seq for alert in received] == list(range(last_seq + 1))
        assert stream.next(timeout=0.2) is None
        assert not stream.closed.is_set() and stream.overflow_seq is None
        assert server.stats()["overflows"] == 0
        assert server.subscriber_queue_pressure() == 0.0
        stream.close()
    finally:
        server.close()


def test_only_alerts_published_after_subscribing_count_as_lag():
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world)
    service.advance(world.node.block_number // 2)
    server = WireServer(service.query, subscriber_queue_size=4)
    try:
        # A subscriber from -1 with no pusher: it sends nothing, so the
        # whole published log stays unsent.
        horizon = service.index.last_seq
        assert horizon + 1 > 4
        subscriber = server_module._Subscriber(-1, horizon=horizon)
        server._register_subscriber(subscriber)
        while service.index.last_seq == horizon:
            service.advance(service.monitor.processed_block + 1)
        published = service.index.last_seq - horizon
        assert 0 < published <= 4, "pick a tick that stays inside the bound"
        assert subscriber.lag(service.index.last_seq) == published
        assert not subscriber.overflowed and subscriber.wake.is_set()
        assert server.subscriber_queue_pressure() == published / 4
    finally:
        server.close()
        service.shutdown()


def test_unsubscribe_joins_an_idle_pusher_at_once(settled_wire):
    service, server = settled_wire
    sock = socket.create_connection(server.address, 10)
    sock.settimeout(10)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    try:
        # Subscribed at the head of a settled log: nothing to send, so
        # the pusher sleeps until a version or teardown wakes it.
        since = service.index.last_seq
        write_frame(wfile, {"id": 1, "verb": "subscribe", "params": {"since_seq": since}})
        assert read_frame(rfile)["result"]["subscribed"]
        pusher = None
        deadline = time.perf_counter() + 10
        while pusher is None and time.perf_counter() < deadline:
            with server._lock:
                for connection in server._connections:
                    subscriber = connection._subscriber
                    if (
                        connection.client_address == sock.getsockname()
                        and subscriber is not None
                    ):
                        pusher = subscriber.thread
            time.sleep(0.01)
        assert pusher is not None and pusher.is_alive()

        started = time.perf_counter()
        write_frame(wfile, {"id": 2, "verb": "unsubscribe"})
        assert read_frame(rfile)["result"]["unsubscribed"]
        pusher.join(timeout=1.0)
        assert not pusher.is_alive()
        assert time.perf_counter() - started < 1.0
    finally:
        sock.close()
