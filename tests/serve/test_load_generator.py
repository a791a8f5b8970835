"""The load generator's draws depend only on its seed and the versions.

``LoadGenerator`` picks account-profile targets from a version's
accounts in sorted order and keeps that order per version object
instead of re-sorting it on every read.  These tests pin that the
queries a seed draws are the ones a generator that re-sorts on every
read draws, across versions that change under it.
"""

from __future__ import annotations

import threading

from repro.serve import ServeService
from repro.serve.load import LoadGenerator
from repro.serve.model import ServeVersion
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig


class ResortingGenerator(LoadGenerator):
    """The generator as it read before: a fresh sort per profile read."""

    def _profiled_accounts(self, version):
        return sorted(version.account_profiles)


class RecordingQuery:
    """A query service that records every call but ``version()``."""

    def __init__(self, query) -> None:
        self._query = query
        self.calls = []

    def version(self):
        return self._query.version()

    def __getattr__(self, name):
        method = getattr(self._query, name)

        def call(*args, **kwargs):
            pinned = {
                key: value.version if isinstance(value, ServeVersion) else value
                for key, value in kwargs.items()
            }
            self.calls.append((name, args, sorted(pinned.items())))
            return method(*args, **kwargs)

        return call


def test_cached_order_draws_the_same_queries_across_versions():
    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world)
    stop = threading.Event()
    cached_query = RecordingQuery(service.query)
    resorted_query = RecordingQuery(service.query)
    cached = LoadGenerator(cached_query, seed=11, stop=stop)
    resorted = ResortingGenerator(resorted_query, seed=11, stop=stop)
    versions = set()

    head = world.node.block_number
    while service.monitor.processed_block < head:
        service.advance(min(head, service.monitor.processed_block + 40))
        versions.add(service.query.version().version)
        for _ in range(60):
            cached.step()
        for _ in range(60):
            resorted.step()

    assert len(versions) > 3
    assert cached_query.calls == resorted_query.calls
    assert sum(name == "account_profile" for name, _, _ in cached_query.calls) > 20
    assert cached.errors == [] and resorted.errors == []
