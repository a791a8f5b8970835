"""End-to-end trace propagation (the ISSUE 9 tentpole).

One deterministic trace id is minted per monitor tick and must flow the
whole pipeline: cursor ingest spans, the tick span, the serve index
publish, the wire fan-out, and every alert the tick raised -- under
reorg storms included, where the revision burst (REORG_DETECTED plus
its retractions) must share the causing tick's id.  The ``trace`` wire
verb then reconciles an alert frame back to the tick's spans and
latency marks, and request frames can inject a client trace that the
server echoes.

Trace minting is registry-independent (a pure function of tick counter
and cursor position), so alerts carry identical ids with observability
on or off -- the serving-parity battery in ``test_obs_parity.py`` locks
the byte-level equivalence; this file locks the linkage itself.
"""

from __future__ import annotations

import random
import re

from repro.obs import MetricsRegistry, mint_trace
from repro.obs.latency import STAGES
from repro.serve import ServeService
from repro.serve.wire import WireClient
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import apply_random_reorg
from repro.stream import AlertKind, StreamingMonitor

TRACE_RE = re.compile(r"^t\d{6}-[0-9a-f]{8}$")


def fresh_world():
    return build_default_world(SimulationConfig.tiny())


def storm_snapshots(world, service, rng, ticks=40):
    """Drive the service against a churning head; return the snapshots."""
    snapshots = []
    service.monitor.subscribe_snapshots(snapshots.append)
    for tick in range(ticks):
        if service.monitor.processed_block >= world.node.block_number:
            apply_random_reorg(
                world.chain, rng.randint(1, 10), rng, drop_probability=0.35
            )
        service.advance(
            min(
                world.node.block_number,
                service.monitor.processed_block + rng.randint(10, 60),
            )
        )
        if tick % 3 == 2:
            apply_random_reorg(
                world.chain, rng.randint(1, 8), rng, drop_probability=0.3
            )
    return snapshots


class TestTraceMinting:
    def test_deterministic_and_well_formed(self):
        assert mint_trace(7, 123) == mint_trace(7, 123)
        assert mint_trace(7, 123) != mint_trace(8, 123)
        assert mint_trace(7, 123) != mint_trace(7, 124)
        assert TRACE_RE.match(mint_trace(7, 123))

    def test_predict_trace_matches_the_next_tick(self):
        world = fresh_world()
        monitor = StreamingMonitor.for_world(world)
        predicted = monitor.predict_trace()
        snapshot = monitor.advance(50)
        assert snapshot.trace == predicted
        assert monitor.current_trace == predicted

    def test_traces_identical_with_and_without_registry(self):
        bare = StreamingMonitor.for_world(fresh_world())
        instrumented = StreamingMonitor.for_world(
            fresh_world(), registry=MetricsRegistry()
        )
        for _ in range(4):
            assert bare.advance(
                bare.processed_block + 40
            ).trace == instrumented.advance(instrumented.processed_block + 40).trace
        assert [a.trace for a in bare.alerts] == [
            a.trace for a in instrumented.alerts
        ]


class TestReorgStormPropagation:
    def test_every_alert_carries_its_ticks_trace(self):
        world = fresh_world()
        registry = MetricsRegistry()
        monitor = StreamingMonitor.for_world(world, registry=registry)
        service = ServeService(monitor, registry=registry)
        rng = random.Random(97)
        snapshots = storm_snapshots(world, service, rng)
        service.shutdown()

        retractions = 0
        reorg_ticks = 0
        assert len({s.trace for s in snapshots}) == len(snapshots)
        for snapshot in snapshots:
            assert TRACE_RE.match(snapshot.trace), snapshot.trace
            for alert in snapshot.alerts:
                # The linkage bar: the alert's trace IS the tick's trace.
                assert alert.trace == snapshot.trace, alert.kind
            if snapshot.reorg_depth > 0:
                reorg_ticks += 1
                # The revision burst shares the causing tick's id: the
                # REORG_DETECTED opener and any retraction it caused are
                # correlated by trace alone.
                kinds = [alert.kind for alert in snapshot.alerts]
                if kinds:
                    assert kinds[0] is AlertKind.REORG_DETECTED
            retractions += sum(
                1
                for alert in snapshot.alerts
                if alert.kind is AlertKind.ACTIVITY_RETRACTED
            )
        assert reorg_ticks > 0, "the storm never reorganized -- test is vacuous"
        assert retractions > 0, "the storm never retracted -- test is vacuous"

        # Every retraction in the log can be traced back to exactly one
        # snapshot, and that snapshot either rolled blocks back or
        # published the retraction beside its reorg alert.
        by_trace = {snapshot.trace: snapshot for snapshot in snapshots}
        for alert in monitor.alerts:
            if alert.kind is not AlertKind.ACTIVITY_RETRACTED:
                continue
            snapshot = by_trace[alert.trace]
            assert alert in snapshot.alerts

    def test_span_ring_reconciles_with_snapshot_traces(self):
        world = fresh_world()
        registry = MetricsRegistry()
        monitor = StreamingMonitor.for_world(world, registry=registry)
        service = ServeService(monitor, registry=registry)
        snapshots = storm_snapshots(world, service, random.Random(13), ticks=10)
        service.shutdown()

        spans_by_trace = {}
        for record in registry.recent_spans():
            spans_by_trace.setdefault(record.trace, []).append(record.name)
        # The ring is bounded; the last few ticks must be fully present,
        # each with its ingest and tick spans tagged by the tick's trace.
        for snapshot in snapshots[-3:]:
            names = spans_by_trace.get(snapshot.trace, [])
            assert "tick" in names, (snapshot.trace, names)
            assert "ingest" in names, (snapshot.trace, names)


class TestWireEndToEnd:
    def test_one_trace_links_spans_alerts_and_latency(self):
        """Ingest with a live subscriber: the pushed frame's trace id
        resolves through the ``trace`` verb to the tick's spans, alert
        seqs and the full five-stage latency path."""
        world = fresh_world()
        registry = MetricsRegistry()
        monitor = StreamingMonitor.for_world(world, registry=registry)
        service = ServeService(monitor, registry=registry)
        server = service.serve_wire()
        try:
            with WireClient(*server.address) as subscriber_client:
                stream = subscriber_client.subscribe(-1)
                while service.monitor.processed_block < world.node.block_number:
                    service.advance(service.monitor.processed_block + 50)
                received = []
                while True:
                    alert = stream.next(timeout=5.0)
                    if alert is None:
                        break
                    received.append(alert)
                    if len(received) >= len(monitor.alerts):
                        break
            assert received, "subscriber saw no alerts"
            assert [a.seq for a in received] == list(range(len(received)))
            # Pushed frames carry the tick's trace, byte-for-byte the
            # same id the in-process alert holds.
            for pushed, held in zip(received, monitor.alerts):
                assert pushed.trace == held.trace

            probe = received[-1]
            assert TRACE_RE.match(probe.trace)
            with WireClient(*server.address) as client:
                lookup = client.trace_lookup(probe.trace)
                missing = client.trace_lookup("t999999-00000000")
            assert lookup["found"] is True
            # The verb's alert seqs are exactly the log's alerts with
            # that trace.
            assert lookup["alert_seqs"] == [
                alert.seq
                for alert in monitor.alerts
                if alert.trace == probe.trace
            ]
            assert probe.seq in lookup["alert_seqs"]
            # The tick's spans came back from the ring...
            span_names = [span["span"] for span in lookup["spans"]]
            assert "tick" in span_names
            assert all(
                span.get("trace") == probe.trace for span in lookup["spans"]
            )
            # ...and the ledger saw the early pipeline marks.
            assert "tick_start" in lookup["marks"]
            assert "publish" in lookup["marks"]
            assert missing["found"] is False

            # With a subscriber attached the whole latency taxonomy is
            # exercised: schedule/detect/fanout/deliver/total all have
            # observations (the acceptance bar for the ledger).
            histograms = registry.snapshot()["histograms"]
            for stage in STAGES:
                stats = histograms[f'alert_latency_seconds{{stage="{stage}"}}']
                assert stats["count"] > 0, stage
                assert stats["sum"] >= 0.0
        finally:
            service.shutdown()

    def test_request_frames_echo_injected_trace(self, tiny_world):
        service = ServeService.for_world(tiny_world)
        service.run()
        server = service.serve_wire()
        try:
            self._check_trace_echo(server)
        finally:
            service.shutdown()

    def _check_trace_echo(self, server):
        with WireClient(*server.address) as client:
            client.request("ping", trace_id="client-trace-1")
            assert client.last_trace == "client-trace-1"
            # Requests without a trace get none invented.
            client.ping()
            assert client.last_trace is None
            # Errors echo the trace too, so a client can correlate its
            # failures.
            from repro.serve.wire import WireRequestError

            try:
                client.request("no-such-verb", trace_id="client-trace-2")
            except WireRequestError:
                pass
            assert client.last_trace == "client-trace-2"
