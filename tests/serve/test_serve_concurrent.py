"""Concurrency proofs for the serving layer.

One ingest thread ticks the monitor while reader threads hammer the
query API.  The contract under test: every answer comes from one
immutable version (no torn reads, ever), versions observed by a reader
never move backwards, and a version pinned mid-flight stays bit-stable
however many ticks land afterwards.
"""

from __future__ import annotations

import threading

from repro.obs import MetricsRegistry
from repro.serve import ServeService
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig


def check_internal_consistency(version) -> list:
    """Cross-field invariants that tear if a version mixed two ticks."""
    problems = []
    if frozenset(version.token_status) != {
        record.nft for record in version.confirmed
    }:
        problems.append(f"v{version.version}: flagged set != confirmed tokens")
    per_token = sum(
        status.activity_count for status in version.token_status.values()
    )
    if per_token != version.confirmed_activity_count:
        problems.append(
            f"v{version.version}: token statuses hold {per_token} records, "
            f"listing holds {version.confirmed_activity_count}"
        )
    for record in version.confirmed:
        if record not in version.token_status[record.nft].records:
            problems.append(
                f"v{version.version}: {record.key} missing from its token"
            )
            break
        for account in record.accounts:
            profile = version.account_profiles.get(account)
            if profile is None or record not in profile.records:
                problems.append(
                    f"v{version.version}: {account} missing record "
                    f"{record.key}"
                )
                break
    return problems


class TestConcurrentReads:
    def test_readers_see_monotone_consistent_versions(self):
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)
        problems: list = []
        reader_count = 4

        def reader(slot: int) -> None:
            last = -1
            local: list = []
            while not service.done.is_set() or last < 0:
                version = service.query.version()
                if version.version < last:
                    local.append(
                        f"reader {slot}: version regressed "
                        f"{last} -> {version.version}"
                    )
                    break
                last = version.version
                local.extend(check_internal_consistency(version))
                if local:
                    break
                # Exercise the query surface against the same version.
                if version.confirmed:
                    record = version.confirmed[0]
                    status = service.query.token_status(
                        record.nft, version=version
                    )
                    if record not in status.records:
                        local.append(f"reader {slot}: point lookup tore")
                        break
                service.query.funnel_stats()
            local.extend(check_internal_consistency(service.query.version()))
            problems.extend(local)

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(reader_count)
        ]
        for thread in threads:
            thread.start()
        service.start_background(step_blocks=7)
        assert service.join(timeout=120)
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert problems == []
        assert service.query.version().confirmed_activity_count > 0

    def test_pinned_version_is_stable_across_background_ingest(self):
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)
        head = world.node.block_number
        pinned = service.advance(head // 3)
        keys = [record.key for record in pinned.confirmed]
        order = pinned.token_order
        service.start_background(step_blocks=11)
        assert service.join(timeout=120)
        assert [record.key for record in pinned.confirmed] == keys
        assert pinned.token_order == order
        final = service.query.version()
        assert final.version > pinned.version
        assert final.block == head

    def test_stop_interrupts_background_ingest(self):
        """The stop flag is checked between ticks: a stop requested
        during the first tick ends ingest right after it."""
        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)
        first_tick = threading.Event()
        release = threading.Event()

        @service.monitor.subscribe_snapshots
        def hold(snapshot):
            first_tick.set()
            release.wait(timeout=120)

        service.start_background(step_blocks=1)
        assert first_tick.wait(timeout=120)
        service.stop(timeout=0)  # sets the flag; the tick is still held
        release.set()
        assert service.join(timeout=120)
        assert service.done.is_set()
        assert service.monitor.tick_count == 1
        assert service.monitor.processed_block < world.node.block_number
        # A second service cannot reuse the thread slot.
        import pytest

        with pytest.raises(RuntimeError):
            service.start_background()

    def test_ingest_crash_is_surfaced_not_swallowed(self):
        """A dying ingest thread must not masquerade as completion."""
        import pytest

        world = build_default_world(SimulationConfig.tiny())
        service = ServeService.for_world(world)

        def explode(*args, **kwargs):
            raise ConnectionError("node fell over")

        service.monitor.node.iter_blocks = explode
        service.start_background(step_blocks=29)
        assert service.done.wait(timeout=120)
        with pytest.raises(ConnectionError):
            service.join(timeout=120)
        assert isinstance(service.ingest_error, ConnectionError)

    def test_background_run_matches_inline_run(self):
        world = build_default_world(SimulationConfig.tiny())
        background = ServeService.for_world(world)
        background.start_background(step_blocks=29)
        assert background.join(timeout=120)
        inline = ServeService.for_world(world)
        inline.run(step_blocks=29)
        left = background.query.version()
        right = inline.query.version()
        assert [r.key for r in left.confirmed] == [r.key for r in right.confirmed]
        assert left.flagged_nfts == right.flagged_nfts
        assert background.query.funnel_stats(version=left) == inline.query.funnel_stats(
            version=right
        )

    def test_inline_run_keeps_the_tick_metrics_of_a_background_run(self):
        """Inline and background runs tick through one path: both time
        every tick, stamp the health liveness watermark and open each
        tick's latency-ledger entry before it runs."""
        world = build_default_world(SimulationConfig.tiny())

        def schedule_count(service):
            histograms = service.registry.snapshot()["histograms"]
            return histograms['alert_latency_seconds{stage="schedule"}']["count"]

        inline = ServeService.for_world(world, registry=MetricsRegistry())
        inline.run()
        background = ServeService.for_world(world, registry=MetricsRegistry())
        background.start_background()
        assert background.join(timeout=120)

        ticks = inline.monitor.tick_count
        assert ticks == background.monitor.tick_count > 1
        assert inline.tick_latency_snapshot().count == ticks
        health = inline.health_snapshot()["ingest"]
        assert health["last_tick_age_seconds"] is not None
        assert schedule_count(inline) == schedule_count(background) == ticks
