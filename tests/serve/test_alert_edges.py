"""Edge semantics of the ``alerts_since`` replay primitive.

The replay contract is exclusive-start (``seq`` is the last alert the
consumer already applied), so three boundaries matter and are easy to
get wrong off-by-one: a cursor sitting exactly at the log head (the
common steady state -- must return nothing and stay put), a cursor past
the head (a consumer that outlived a server restart -- must return
nothing rather than raise or wrap), and degenerate limits (the
in-process API treats ``limit=0`` as "nothing", while the wire verb
rejects non-positive limits up front, before the index is consulted).
Pinned in-process against the index, and through the socket.  The log
is read only up to the published version, so a tick's alerts are never
readable before the version that folds them in.
"""

from __future__ import annotations

import pytest

from repro.serve import ServeService
from repro.serve.wire import WireClient, WireRequestError


@pytest.fixture(scope="module")
def settled_index(tiny_world):
    """A fully ingested index."""
    service = ServeService.for_world(tiny_world)
    service.run()
    return service.index


class TestInProcessEdges:
    def test_cursor_at_head_returns_nothing(self, settled_index):
        head = settled_index.last_seq
        assert head >= 0, "ingest must have published alerts"
        assert settled_index.alerts_since(head) == ()
        assert settled_index.alerts_since(head, limit=5) == ()

    def test_cursor_one_below_head_returns_exactly_the_head(self, settled_index):
        head = settled_index.last_seq
        batch = settled_index.alerts_since(head - 1)
        assert len(batch) == 1
        assert batch[0].seq == head

    def test_cursor_past_head_returns_nothing(self, settled_index):
        head = settled_index.last_seq
        assert settled_index.alerts_since(head + 1) == ()
        assert settled_index.alerts_since(head + 1000, limit=10) == ()

    def test_limit_zero_is_an_empty_batch(self, settled_index):
        assert settled_index.alerts_since(-1, limit=0) == ()

    def test_full_replay_is_gapless_from_any_negative_cursor(
        self, settled_index
    ):
        everything = settled_index.alerts_since(-1)
        assert [alert.seq for alert in everything] == list(
            range(settled_index.last_seq + 1)
        )
        # Any more-negative cursor clamps to the same full history.
        assert settled_index.alerts_since(-50) == everything

    def test_replay_cursor_poll_at_head_keeps_position(self, settled_index):
        from repro.serve import AlertReplayCursor

        cursor = AlertReplayCursor(settled_index, settled_index.last_seq)
        assert cursor.lag == 0
        assert cursor.poll() == ()
        assert cursor.position == settled_index.last_seq


class TestPublishedPrefix:
    def test_reads_never_run_ahead_of_the_published_version(self, tiny_world):
        """While a tick's version is being built, the replay primitive
        serves only what the current version folds in: the tick's new
        alerts become readable with the swap that publishes them."""
        service = ServeService.for_world(tiny_world)
        index = service.index
        build = index._build_version
        checked = []

        def guarded(snapshot):
            published = index.current.last_seq
            assert index.last_seq == published
            assert all(alert.seq <= published for alert in index.alerts_since(-1))
            checked.append(bool(snapshot.alerts))
            return build(snapshot)

        index._build_version = guarded
        service.run(step_blocks=10)
        assert not index.subscriber_errors
        assert len(checked) == service.monitor.tick_count
        assert any(checked), "some tick must publish alerts"
        assert index.last_seq == len(service.monitor.alerts) - 1


class TestWireEdges:
    def test_cursor_at_and_past_head(self, settled_wire):
        service, server = settled_wire
        head = service.index.last_seq
        with WireClient(*server.address) as client:
            at_head = client.alerts(since_seq=head)
            assert at_head["alerts"] == []
            assert at_head["last_seq"] == head
            past = client.alerts(since_seq=head + 1000)
            assert past["alerts"] == []
            assert past["last_seq"] == head

    def test_limit_zero_is_rejected_before_the_index(self, settled_wire):
        _, server = settled_wire
        with WireClient(*server.address) as client:
            with pytest.raises(WireRequestError) as excinfo:
                client.alerts(since_seq=-1, limit=0)
            assert excinfo.value.code == "bad-request"
            with pytest.raises(WireRequestError):
                client.alerts(since_seq=-1, limit=-3)
            # The connection survives the rejection: the next well-formed
            # request answers normally.
            assert client.alerts(since_seq=-1, limit=1)["alerts"]

    def test_limited_replay_pages_to_the_head(self, settled_wire):
        service, server = settled_wire
        head = service.index.last_seq
        with WireClient(*server.address) as client:
            seqs = []
            cursor = -1
            while True:
                batch = client.alerts(since_seq=cursor, limit=3)["alerts"]
                if not batch:
                    break
                seqs.extend(alert["seq"] for alert in batch)
                cursor = batch[-1]["seq"]
            assert seqs == list(range(head + 1))
