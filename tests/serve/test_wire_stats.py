"""The ``stats`` wire verb: the live introspection surface over TCP.

Three bars.  The payload keeps its original top-level socket counters
(older clients read those) while the full registry snapshot rides under
``metrics``; per-verb request counters and latency histograms track the
requests a client actually made; and -- the accounting acceptance bar
-- after a reorg storm the counters must *reconcile exactly* with the
ground truth next to them: reorg and retraction counters equal the
matching alert counts, per-kind alert counters equal the monitor's
alert log, and the published-version counter equals the index's own
tally.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ServeService
from repro.serve.wire import WireClient, WireRequestError
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.stream.alerts import AlertKind
from tests.serve.storm import drive_ticks


@pytest.fixture(scope="module")
def instrumented_wire():
    """A wire server over an instrumented, fully ingested tiny world."""
    registry = MetricsRegistry()
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, registry=registry)
    service.run()
    server = service.serve_wire()
    yield registry, service, server
    service.shutdown()


@pytest.fixture()
def client(instrumented_wire):
    _, _, server = instrumented_wire
    with WireClient(*server.address) as connected:
        yield connected


class TestStatsVerb:
    def test_payload_keeps_socket_counters_and_adds_metrics(self, client):
        stats = client.stats()
        # The pre-obs surface older clients read.
        for key in ("requests", "connections", "frame_errors", "overflows"):
            assert key in stats
        # The registry snapshot rides alongside.
        metrics = stats["metrics"]
        assert set(metrics) >= {"counters", "gauges", "histograms"}

    def test_ingest_metrics_visible_over_the_wire(self, client):
        metrics = client.stats()["metrics"]
        counters = metrics["counters"]
        assert counters["cursor_blocks_ingested_total"] > 0
        assert counters["cursor_transfers_ingested_total"] > 0
        assert counters["monitor_ticks_total"] > 0
        assert counters["serve_versions_published_total"] > 0
        assert metrics["histograms"]['span_seconds{span="tick"}']["count"] > 0

    def test_per_verb_counters_and_latency_track_requests(self, client):
        def verb_count(stats, verb):
            return stats["metrics"]["counters"].get(
                f'wire_requests_total{{verb="{verb}"}}', 0
            )

        before = client.stats()
        for _ in range(3):
            client.ping()
        after = client.stats()
        assert verb_count(after, "ping") == verb_count(before, "ping") + 3
        # The stats verb counts itself too.
        assert verb_count(after, "stats") == verb_count(before, "stats") + 1
        latency = after["metrics"]["histograms"][
            'wire_request_seconds{verb="ping"}'
        ]
        assert latency["count"] == verb_count(after, "ping")
        assert latency["sum"] >= 0.0

    def test_unknown_verbs_clamp_to_one_label(self, client):
        with pytest.raises(WireRequestError):
            client.request("definitely-not-a-verb")
        with pytest.raises(WireRequestError):
            client.request("another-invention")
        counters = client.stats()["metrics"]["counters"]
        assert counters['wire_requests_total{verb="unknown"}'] >= 2
        invented = [
            name
            for name in counters
            if "definitely-not-a-verb" in name or "another-invention" in name
        ]
        assert invented == [], "fuzzable input must not mint metric names"

    def test_cache_counters_ride_along(self, client):
        client.funnel_stats()
        client.funnel_stats()
        metrics = client.stats()["metrics"]
        assert metrics["counters"]["serve_cache_hits_total"] >= 1
        assert "serve_cache_hit_ratio" in metrics["gauges"]

    def test_socket_gauges_come_from_collectors(self, client):
        metrics = client.stats()["metrics"]
        assert metrics["gauges"]["wire_active_connections"] >= 1
        assert metrics["counters"]["wire_connections_total"] >= 1

    def test_in_process_snapshot_matches_wire_view(self, instrumented_wire):
        registry, service, server = instrumented_wire
        with WireClient(*server.address) as connected:
            wire_counters = connected.stats()["metrics"]["counters"]
        local_counters = service.metrics_snapshot()["counters"]
        # Ingest-side counters are settled; they must agree exactly.
        for name in (
            "cursor_blocks_ingested_total",
            "monitor_ticks_total",
            "serve_versions_published_total",
        ):
            assert wire_counters[name] == local_counters[name]


class TestStatsUnderReorgStorm:
    @pytest.fixture(scope="class")
    def stormed(self):
        registry = MetricsRegistry()
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(
            world, max_reorg_depth=64, registry=registry
        )
        # Tick against a churning head so reorgs land in the journal
        # window and are actually *detected*, not just absorbed.
        drive_ticks(world, service, random.Random(7), ticks=40, reorg_every=3)
        server = service.serve_wire()
        with WireClient(*server.address) as connected:
            stats = connected.stats()
        yield registry, service, stats
        service.shutdown()

    def test_storm_actually_stormed(self, stormed):
        _, service, _ = stormed
        kinds = Counter(alert.kind for alert in service.monitor.alerts)
        assert kinds[AlertKind.REORG_DETECTED] > 0
        assert kinds[AlertKind.ACTIVITY_RETRACTED] > 0

    def test_reorg_counter_matches_reorg_alerts(self, stormed):
        _, service, stats = stormed
        counters = stats["metrics"]["counters"]
        reorg_alerts = sum(
            1
            for alert in service.monitor.alerts
            if alert.kind is AlertKind.REORG_DETECTED
        )
        assert counters["cursor_reorgs_total"] == reorg_alerts

    def test_retraction_counter_matches_retraction_alerts(self, stormed):
        _, service, stats = stormed
        counters = stats["metrics"]["counters"]
        retractions = sum(
            1
            for alert in service.monitor.alerts
            if alert.kind is AlertKind.ACTIVITY_RETRACTED
        )
        assert counters["scheduler_retractions_total"] == retractions

    def test_per_kind_alert_counters_match_the_log(self, stormed):
        _, service, stats = stormed
        counters = stats["metrics"]["counters"]
        kinds = Counter(alert.kind.value for alert in service.monitor.alerts)
        for kind in AlertKind:
            name = f'monitor_alerts_total{{kind="{kind.value}"}}'
            assert counters[name] == kinds.get(kind.value, 0), name

    def test_versions_counter_matches_the_index(self, stormed):
        _, service, stats = stormed
        counters = stats["metrics"]["counters"]
        assert (
            counters["serve_versions_published_total"]
            == service.index.versions_published
        )

    def test_reorg_depth_histogram_saw_every_reorg(self, stormed):
        _, service, stats = stormed
        depths = stats["metrics"]["histograms"]["cursor_reorg_depth_blocks"]
        reorg_alerts = [
            alert
            for alert in service.monitor.alerts
            if alert.kind is AlertKind.REORG_DETECTED
        ]
        assert depths["count"] == len(reorg_alerts)
        assert depths["max"] == max(a.reorg_depth for a in reorg_alerts)
