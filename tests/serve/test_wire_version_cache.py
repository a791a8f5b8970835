"""The wire client's version cache refreshes by change, and exactly.

:meth:`RemoteQueryService.version` keeps the token order and the
account listing of the version it last pinned.  It re-reads only the
suffix of the token order while the server's ``token_order_epoch``
holds, re-reads all of it when the epoch moves (a token left the
store), and re-reads the account listing only when ``accounts_epoch``
moves.  Under a reorg storm -- where tokens vanish and accounts stop
being implicated -- the cached tuples must equal a full refetch at
every version.
"""

from __future__ import annotations

import random

from repro.obs import MetricsRegistry
from repro.serve import ServeService
from repro.serve.wire import RemoteQueryService
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from tests.serve.storm import CheckedMonitor, follow_storm


class Harness:
    """A serving stack over a tiny world with one remote reader whose
    ``token_order`` offsets are recorded."""

    def __init__(self) -> None:
        self.world = build_default_world(SimulationConfig.tiny())
        self.service = ServeService.for_world(
            self.world, max_reorg_depth=64, registry=MetricsRegistry()
        )
        server = self.service.serve_wire()
        self.lookup_version = server.lookup_version
        self.remote = RemoteQueryService(*server.address)
        self.offsets = []
        fetch = self.remote.client.token_order

        def recording_fetch(version=None, offset=None):
            self.offsets.append(offset)
            return fetch(version=version, offset=offset)

        self.remote.client.token_order = recording_fetch

    def requests(self, verb: str) -> float:
        counters = self.service.registry.snapshot()["counters"]
        return counters.get(f'wire_requests_total{{verb="{verb}"}}', 0)

    def listing_requests(self):
        return self.requests("token_order"), self.requests("accounts")

    def check_current(self):
        """The remote version equals the pinned in-process one."""
        remote = self.remote.version()
        pinned = self.lookup_version(remote.version)
        assert pinned is not None
        assert remote.token_order == pinned.token_order
        assert remote.account_profiles == tuple(sorted(pinned.account_profiles))
        return remote, pinned

    def close(self) -> None:
        self.remote.close()
        self.service.shutdown()


def test_cached_listings_equal_a_full_refetch_at_every_version():
    """Reorgs at the head make tokens vanish (an epoch change) and
    accounts drop out; every tick's version is checked."""
    harness = Harness()
    try:
        epochs = []

        def after_tick():
            _, pinned = harness.check_current()
            epochs.append(pinned.token_order_epoch)

        monitor = CheckedMonitor(harness.service.monitor, after_tick)
        reorgs = follow_storm(harness.world, monitor, random.Random(3))
        assert reorgs > 0
        # Tokens vanished, so the full refetch on an epoch change ran
        # (offset 0 after the first fill); in between, the order was
        # extended by suffix or not re-read at all.
        moved = sum(1 for old, new in zip(epochs, epochs[1:]) if old != new)
        assert moved > 0, "the storm must remove at least one token"
        assert harness.offsets.count(0) >= 1 + moved
        assert any(harness.offsets)
        assert len(harness.offsets) < len(epochs)
    finally:
        harness.close()


def test_unchanged_versions_send_no_listing_requests():
    harness = Harness()
    try:
        harness.service.run()
        first, _ = harness.check_current()
        before = harness.listing_requests()
        # The same version again, and a new version from an idle tick
        # (same epochs, same token count): no listing is re-read.
        harness.check_current()
        harness.service.advance()
        second, _ = harness.check_current()
        assert second.version > first.version
        assert second.token_order is first.token_order
        assert second.account_profiles is first.account_profiles
        assert harness.listing_requests() == before
    finally:
        harness.close()


def test_a_reconnect_starts_from_an_empty_cache():
    harness = Harness()
    try:
        harness.service.run()
        harness.check_current()
        token_order, accounts = harness.listing_requests()
        harness.offsets.clear()
        harness.remote.client.close()
        harness.remote.client.connect()
        harness.check_current()
        assert harness.listing_requests() == (token_order + 1, accounts + 1)
        assert harness.offsets == [0]
    finally:
        harness.close()
