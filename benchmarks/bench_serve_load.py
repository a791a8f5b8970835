"""Experiment S-serve -- the query/serving subsystem under load.

Three acceptance checks for the serving layer (:mod:`repro.serve`):

* ``test_cached_aggregates_beat_recompute`` drives an identical mixed
  point/aggregate query workload against two services over the same
  world -- one answering through the dirty-token-keyed
  :class:`AggregateCache`, one pinning every aggregate to a version so
  it is recomputed per query -- and asserts the cached
  service wins the wall clock while serving identical answers.  It
  reports sustained queries/sec alongside per-tick ingest latency.
* ``test_served_answers_match_batch_at_every_version`` replays a chain
  with periodic adversarial reorgs and, at *every* published version,
  checks the full query surface against a fresh batch
  ``WashTradingPipeline(engine="columnar")`` build over that canonical
  chain prefix (causally clamped, like the stream parity tests).
* ``test_concurrent_load_sustains_queries`` runs a :class:`LoadGenerator`
  fleet on reader threads while the main thread advances the chain
  through a reorg storm -- versions must stay monotone per reader, a
  replaying consumer must reconcile every retraction, and the final
  state must match a batch build.

With ``--wire``, two more checks cross the network boundary
(:mod:`repro.serve.wire`):

* ``test_wire_load_parity_under_live_ingest`` points the *same*
  :class:`LoadGenerator` fleet at a TCP socket (through
  :class:`~repro.serve.wire.RemoteQueryService`) while ingest rides a
  reorg storm, reports sustained over-the-wire queries/sec, and samples
  full wire parity at pinned versions throughout the storm -- the
  server must stay correct under load, not just answer fast.
* ``test_wire_vs_in_process_throughput`` runs one fixed mixed workload
  both ways over a settled service and reports the socket's overhead
  factor next to both throughputs.

With ``--obs``, ``test_obs_identical_answers_and_overhead`` repeats the
cached workload with a live :class:`~repro.obs.MetricsRegistry` wired
through every layer and prints the instrumented-vs-bare comparison
column -- the answers must be identical (the parity-neutrality bar; the
hard <5% ingest-overhead assertion runs at scale in
``bench_pipeline_scaling``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_load.py -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_load.py --smoke -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_load.py --wire --smoke -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_load.py --obs --smoke -q -s
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter

from repro.chain.node import EthereumNode
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.serve import ServeService, serving_parity_mismatches
from repro.serve.load import LoadGenerator
from repro.simulation.builder import build_default_world
from repro.simulation.reorg import apply_random_reorg

#: Shared monitoring cadence of the cached-vs-recompute comparison.
WINDOW_COUNT = 16


class ClampedNode(EthereumNode):
    """An archive-node view that hides everything past ``upper``.

    ``build_dataset(to_block=B)`` alone leaks whole-chain account
    histories; clamping makes the batch reference causally identical to
    what a monitor at block B could know (see
    ``tests/stream/test_stream_parity.py``).
    """

    def __init__(self, node: EthereumNode, upper: int) -> None:
        super().__init__(node.chain)
        self._upper = upper

    def get_transactions_of(self, address):
        return [
            tx
            for tx in super().get_transactions_of(address)
            if tx.block_number <= self._upper
        ]


def batch_at(world, block):
    """The causally clamped batch reference at one chain prefix."""
    dataset = build_dataset(
        ClampedNode(world.node, block),
        world.marketplace_addresses,
        to_block=block,
    )
    return WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="columnar"
    ).run(dataset)


def tick_boundaries(head: int, windows: int = WINDOW_COUNT):
    return sorted({max(head * (w + 1) // windows, 0) for w in range(windows)})


def query_sweep(
    query, rng, aggregate_repeats: int, point_queries: int, pin: bool = False
) -> int:
    """The per-tick mixed workload of the cache comparison; returns count.

    With ``pin`` every aggregate is pinned to the sweep's version, which
    computes it from that version and skips the aggregate cache.
    """
    served = 0
    version = query.version()
    pinned = {"version": version} if pin else {}
    for _ in range(aggregate_repeats):
        query.funnel_stats(**pinned)
        served += 1
        for contract in query.collections():
            query.collection_rollup(contract, **pinned)
            served += 1
        for venue in query.venues():
            query.marketplace_rollup(venue, **pinned)
            served += 1
    for _ in range(point_queries):
        roll = rng.random()
        if roll < 0.5 and version.token_order:
            query.token_status(rng.choice(version.token_order))
        elif roll < 0.8 and version.account_profiles:
            query.account_profile(rng.choice(sorted(version.account_profiles)))
        else:
            query.list_confirmed(limit=10)
        served += 1
    return served


def test_cached_aggregates_beat_recompute(serve_profile):
    """Identical workload, identical answers -- the cache must win."""
    world = build_default_world(serve_profile["preset"]())
    head = world.node.block_number
    boundaries = tick_boundaries(head)

    results = {}
    for label, pin in (("cached", False), ("recompute", True)):
        service = ServeService.for_world(world)
        rng = random.Random(7)
        query_time = 0.0
        served = 0
        tick_latencies = []
        for upper in boundaries:
            started = time.perf_counter()
            service.advance(upper)
            tick_latencies.append(time.perf_counter() - started)
            started = time.perf_counter()
            served += query_sweep(
                service.query,
                rng,
                serve_profile["aggregate_repeats"],
                serve_profile["point_queries"],
                pin,
            )
            query_time += time.perf_counter() - started
        results[label] = {
            "service": service,
            "query_time": query_time,
            "served": served,
            "ticks": tick_latencies,
        }

    cached, recompute = results["cached"], results["recompute"]
    print(f"\n== serve load: cached vs recompute == head={head} "
          f"ticks={len(boundaries)} queries={cached['served']}")
    for label, run in results.items():
        qps = run["served"] / run["query_time"] if run["query_time"] else float("inf")
        ticks = run["ticks"]
        print(
            f"  {label:<10} query total={run['query_time']:.3f}s "
            f"({qps:>10,.0f} q/s)  tick mean="
            f"{sum(ticks) / len(ticks) * 1e3:6.2f}ms max={max(ticks) * 1e3:6.2f}ms"
        )
    stats = cached["service"].cache.stats
    print(
        f"  cache: {stats.hits} hits / {stats.lookups} lookups "
        f"({stats.hit_rate:.1%}), {stats.invalidated} invalidated"
    )
    print(f"  speedup={recompute['query_time'] / cached['query_time']:.2f}x")

    # Identical answers... (a cached aggregate may carry the older
    # version it was computed at -- still valid, nothing invalidated it
    # since -- so normalize the computed-at version before comparing)
    import dataclasses

    def same_answer(left, right):
        return dataclasses.replace(left, version=0) == dataclasses.replace(
            right, version=0
        )

    cached_query = cached["service"].query
    recompute_query = recompute["service"].query
    assert same_answer(cached_query.funnel_stats(), recompute_query.funnel_stats())
    for contract in cached_query.collections():
        assert same_answer(
            cached_query.collection_rollup(contract),
            recompute_query.collection_rollup(contract),
        )
    assert cached_query.venues() == recompute_query.venues()
    for venue in cached_query.venues():
        assert same_answer(
            cached_query.marketplace_rollup(venue),
            recompute_query.marketplace_rollup(venue),
        )
    assert cached["served"] == recompute["served"]
    assert cached_query.version().confirmed_activity_count > 0
    # ...and the dirty-keyed cache wins the wall clock.
    assert stats.hits > stats.misses
    assert cached["query_time"] < recompute["query_time"]


def test_served_answers_match_batch_at_every_version(serve_profile):
    """Every published version equals a batch build over its prefix."""
    from repro.simulation.config import SimulationConfig

    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    rng = random.Random(20230312)
    checked = 0
    tick = 0
    while True:
        head = world.node.block_number
        if service.monitor.processed_block >= head:
            break
        target = min(head, service.monitor.processed_block + rng.randint(20, 80))
        version = service.advance(target)
        mismatches = serving_parity_mismatches(
            service.query, batch_at(world, service.monitor.processed_block),
            version=version,
        )
        assert mismatches == [], f"version {version.version}: {mismatches}"
        checked += 1
        tick += 1
        if tick % serve_profile["reorg_every"] == 0:
            apply_random_reorg(
                world.chain,
                rng.randint(1, 10),
                rng,
                drop_probability=0.35,
                delay_probability=0.25,
                shorten=1 if tick % (2 * serve_profile["reorg_every"]) == 0 else 0,
            )
    # Settle the last revision, then check the final canonical state.
    version = service.advance()
    mismatches = serving_parity_mismatches(
        service.query,
        batch_at(world, service.monitor.processed_block),
        version=version,
    )
    assert mismatches == []
    print(f"\n== serve parity at every version == {checked + 1} versions checked, "
          f"final block {version.block}, {version.confirmed_activity_count} confirmed")
    assert version.confirmed_activity_count > 0


def test_concurrent_load_sustains_queries(serve_profile):
    """Reader fleet under a live reorg storm: monotone, reconciled, fast."""
    from repro.simulation.config import SimulationConfig

    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    stop = threading.Event()
    generators = [
        LoadGenerator(service.query, seed=100 + i, stop=stop, mirror=(i == 0))
        for i in range(serve_profile["query_threads"])
    ]
    for generator in generators:
        generator.thread.start()

    rng = random.Random(99)
    started = time.perf_counter()
    tick_latencies = []
    tick = 0
    deadline = time.perf_counter() + serve_profile["load_seconds"]
    while time.perf_counter() < deadline:
        head = world.node.block_number
        if service.monitor.processed_block >= head:
            apply_random_reorg(
                world.chain, rng.randint(1, 10), rng, drop_probability=0.35
            )
        target = min(
            world.node.block_number,
            service.monitor.processed_block + rng.randint(10, 60),
        )
        tick_started = time.perf_counter()
        service.advance(target)
        tick_latencies.append(time.perf_counter() - tick_started)
        tick += 1
        if tick % serve_profile["reorg_every"] == 0:
            apply_random_reorg(
                world.chain, rng.randint(1, 8), rng, drop_probability=0.3
            )
    service.advance()  # settle the last revision
    stop.set()
    for generator in generators:
        generator.thread.join(timeout=30)
        assert not generator.thread.is_alive()
    elapsed = time.perf_counter() - started

    for generator in generators:
        assert generator.errors == []
    total = sum(generator.queries for generator in generators)
    qps = total / elapsed if elapsed else float("inf")
    print(
        f"\n== concurrent serve load == {total} queries from "
        f"{len(generators)} readers in {elapsed:.2f}s ({qps:,.0f} q/s), "
        f"{tick} ticks, tick mean="
        f"{sum(tick_latencies) / len(tick_latencies) * 1e3:.2f}ms "
        f"max={max(tick_latencies) * 1e3:.2f}ms"
    )
    assert total > 0

    # The replaying reader reconstructs exactly the served final truth.
    mirror = next(g for g in generators if g.mirror is not None)
    final = service.query.version()
    assert +mirror.mirror == Counter(record.key for record in final.confirmed)

    # And the settled state equals a fresh batch build.
    batch = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, engine="columnar"
    ).run(build_dataset(world.node, world.marketplace_addresses))
    assert serving_parity_mismatches(service.query, batch, version=final) == []


def test_obs_identical_answers_and_overhead(serve_profile, obs_enabled):
    """Same workload instrumented vs bare: same answers, marginal cost.

    Reports the instrumented-vs-bare comparison column (ingest ticks and
    query throughput) plus the end-to-end alert-latency column -- the
    block-seen-to-socket-write p50/p95 a live wire subscriber actually
    experienced -- and asserts the answers are identical; the hard <5%
    ingest-overhead bar lives in ``bench_pipeline_scaling`` where the
    world is large enough for the ratio to be meaningful.
    """
    import dataclasses

    from repro.obs import MetricsRegistry
    from repro.serve.wire import WireClient

    world = build_default_world(serve_profile["preset"]())
    head = world.node.block_number
    boundaries = tick_boundaries(head)

    results = {}
    for label, registry in (("bare", None), ("obs", MetricsRegistry())):
        service = ServeService.for_world(world, registry=registry)
        # Both runs carry one live wire subscriber so the tick loop does
        # identical fan-out work -- and the instrumented run's latency
        # ledger sees the terminal socket_write marks.
        server = service.serve_wire()
        subscriber = WireClient(*server.address).connect()
        stream = subscriber.subscribe(-1)
        rng = random.Random(7)
        query_time = 0.0
        served = 0
        tick_time = 0.0
        for upper in boundaries:
            started = time.perf_counter()
            service.advance(upper)
            tick_time += time.perf_counter() - started
            started = time.perf_counter()
            served += query_sweep(
                service.query,
                rng,
                serve_profile["aggregate_repeats"],
                serve_profile["point_queries"],
            )
            query_time += time.perf_counter() - started
        # Drain the stream so every published alert reached the socket.
        delivered = 0
        expected = len(service.monitor.alerts)
        while delivered < expected:
            alert = stream.next(timeout=10.0)
            assert alert is not None, (
                f"subscriber stalled at {delivered}/{expected} alerts"
            )
            delivered += 1
        subscriber.close()
        results[label] = {
            "service": service,
            "registry": registry,
            "tick_time": tick_time,
            "query_time": query_time,
            "served": served,
            "delivered": delivered,
        }

    bare, obs = results["bare"], results["obs"]
    print(f"\n== serve load: obs vs bare == head={head} "
          f"ticks={len(boundaries)} queries={bare['served']}")
    for label, run in results.items():
        qps = run["served"] / run["query_time"] if run["query_time"] else float("inf")
        print(
            f"  {label:<5} ingest total={run['tick_time']:.3f}s "
            f"query total={run['query_time']:.3f}s ({qps:>10,.0f} q/s)"
        )
    ingest_ratio = obs["tick_time"] / bare["tick_time"] if bare["tick_time"] else 1.0
    print(f"  ingest overhead: {(ingest_ratio - 1) * 100:+.1f}%")

    # Identical answers (normalize the computed-at version, as above).
    def same_answer(left, right):
        return dataclasses.replace(left, version=0) == dataclasses.replace(
            right, version=0
        )

    bare_query = bare["service"].query
    obs_query = obs["service"].query
    assert same_answer(bare_query.funnel_stats(), obs_query.funnel_stats())
    for contract in bare_query.collections():
        assert same_answer(
            bare_query.collection_rollup(contract),
            obs_query.collection_rollup(contract),
        )
    assert bare_query.venues() == obs_query.venues()
    assert bare["served"] == obs["served"]
    assert (
        bare_query.version().confirmed_activity_count
        == obs_query.version().confirmed_activity_count
        > 0
    )

    # The instrumented run really measured itself.
    snapshot = obs["registry"].snapshot()
    assert snapshot["counters"]["monitor_ticks_total"] == len(boundaries)
    assert snapshot["counters"]["serve_cache_hits_total"] > 0
    tick_spans = snapshot["histograms"]['span_seconds{span="tick"}']
    assert tick_spans["count"] == len(boundaries)
    print(
        f"  obs surface: tick p95={tick_spans['p95'] * 1e3:.2f}ms "
        f"cache hit ratio={snapshot['gauges']['serve_cache_hit_ratio']:.1%}"
    )

    # The end-to-end alert-latency column: block-seen to socket-write as
    # the live subscriber experienced it, one observation per delivered
    # frame.  The ledger must close the full path for every frame; the
    # client can count a frame a beat before the server-side pusher
    # records its mark, so give the last observation a moment to land.
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        snapshot = obs["registry"].snapshot()
        total_latency = snapshot["histograms"][
            'alert_latency_seconds{stage="total"}'
        ]
        if total_latency["count"] >= obs["delivered"]:
            break
        time.sleep(0.01)
    assert total_latency["count"] == obs["delivered"] > 0
    print(
        f"  alert e2e (block-seen→socket-write): "
        f"p50={total_latency['p50'] * 1e3:.2f}ms "
        f"p95={total_latency['p95'] * 1e3:.2f}ms "
        f"over {int(total_latency['count'])} delivered frames"
    )

    for run in results.values():
        run["service"].shutdown()


def test_wire_load_parity_under_live_ingest(serve_profile, wire_enabled):
    """TCP reader fleet vs live ingest: fast *and* correct at every pin."""
    from repro.serve import RemoteQueryService, WireClient, wire_parity_mismatches
    from repro.simulation.config import SimulationConfig

    world = build_default_world(SimulationConfig.tiny())
    service = ServeService.for_world(world, max_reorg_depth=64)
    server = service.serve_wire()
    host, port = server.address

    stop = threading.Event()
    remotes = [
        RemoteQueryService(host, port)
        for _ in range(serve_profile["query_threads"])
    ]
    generators = [
        LoadGenerator(remote, seed=300 + slot, stop=stop, mirror=(slot == 0))
        for slot, remote in enumerate(remotes)
    ]
    for generator in generators:
        generator.thread.start()
    parity_client = WireClient(host, port).connect()

    rng = random.Random(4242)
    started = time.perf_counter()
    deadline = started + serve_profile["load_seconds"]
    tick = 0
    sampled = 0
    parity_problems = []
    while time.perf_counter() < deadline:
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
        tick += 1
        if tick % 2 == 0:
            # Full wire parity at a freshly pinned mid-storm version.
            parity_problems.extend(
                wire_parity_mismatches(
                    parity_client, service.query, server.lookup_version
                )
            )
            sampled += 1
    service.advance()  # settle the last revision
    parity_problems.extend(
        wire_parity_mismatches(parity_client, service.query, server.lookup_version)
    )
    sampled += 1

    # Let the replay mirror drain before freezing the readers.
    mirror_cursor = generators[0]._cursor
    drain_deadline = time.perf_counter() + 30
    while mirror_cursor.position < service.index.last_seq:
        assert time.perf_counter() < drain_deadline, "mirror cursor stalled"
        time.sleep(0.02)
    stop.set()
    for generator in generators:
        generator.thread.join(timeout=30)
        assert not generator.thread.is_alive()
    elapsed = time.perf_counter() - started

    total = sum(generator.queries for generator in generators)
    qps = total / elapsed if elapsed else float("inf")
    print(
        f"\n== wire load under live ingest == {total} queries from "
        f"{len(generators)} TCP readers in {elapsed:.2f}s ({qps:,.0f} q/s), "
        f"{tick} ticks, parity sampled at {sampled} pinned versions"
    )
    for generator in generators:
        assert generator.errors == [], generator.errors[:3]
    assert parity_problems == [], parity_problems[:5]
    assert total > 0

    final = service.query.version()
    assert final.confirmed_activity_count > 0
    assert +generators[0].mirror == Counter(
        record.key for record in final.confirmed
    )
    parity_client.close()
    for remote in remotes:
        remote.close()
    service.shutdown()


def test_wire_vs_in_process_throughput(serve_profile, wire_enabled):
    """One fixed mixed workload, both transports; report the overhead."""
    from repro.serve import RemoteQueryService, WireClient, wire_parity_mismatches

    world = build_default_world(serve_profile["preset"]())
    service = ServeService.for_world(world)
    service.run()
    server = service.serve_wire()
    remote = RemoteQueryService(*server.address)

    results = {}
    for label, query in (("in-process", service.query), ("wire", remote)):
        rng = random.Random(11)
        started = time.perf_counter()
        served = query_sweep(
            query,
            rng,
            serve_profile["aggregate_repeats"],
            serve_profile["point_queries"],
        )
        elapsed = time.perf_counter() - started
        results[label] = (served, elapsed)

    print(f"\n== wire vs in-process throughput == head={world.node.block_number}")
    for label, (served, elapsed) in results.items():
        qps = served / elapsed if elapsed else float("inf")
        print(f"  {label:<11} {served} queries in {elapsed:.3f}s ({qps:>10,.0f} q/s)")
    (in_served, in_elapsed) = results["in-process"]
    (wire_served, wire_elapsed) = results["wire"]
    overhead = (wire_elapsed / wire_served) / (in_elapsed / in_served)
    print(f"  per-query overhead factor over TCP: {overhead:.1f}x")

    # Same workload size both ways, and the wire serves the same truth.
    assert wire_served == in_served
    with WireClient(*server.address) as client:
        assert (
            wire_parity_mismatches(client, service.query, server.lookup_version)
            == []
        )
    remote.close()
    service.shutdown()
