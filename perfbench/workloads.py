"""The three workloads: ``batch``, ``replay`` and ``follow``.

Each function sets up several times (for a ``setup_s`` median), runs
closed-loop timed passes until ``seconds`` have elapsed and at least
:data:`MIN_PASSES` ran, and checks every pass's answers.  Every pass
repeats identical work step for step.  Step times are scaled to the
host's quiet speed (:class:`common.PassClock`), and ``pass_s`` sums each
step's median over the passes (:func:`common.median_of_steps`); the
``pass_wall_s`` report line does the same with raw times.  Latency
percentiles pool the raw samples of every pass.  With ``trace`` a live
workload adds MIN_PASSES instrumented passes (a ``MetricsRegistry`` plus
:class:`~common.Probe` timers around public layer calls), alternating
with the first bare ones: the first gives the per-layer figures, and
their scaled per-step medians against the bare passes' give
``obs.overhead_pct``.  Every traced run also breaks one batch pass over
its chain down by layer.

The legacy oracle of every correctness gate runs in a forked child
(:func:`common.in_child`), so ``peak_rss_mb`` leaves it out.

Load comes from this one process: the main thread drives ticks and
queries, and each pass opens at most one TCP connection.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from common import (
    FAST_ENGINES,
    PassClock,
    Probe,
    answer_of,
    batch_layers,
    batch_pass,
    batch_times,
    median_of_steps,
    build_world,
    engine_mismatches,
    freeze_world,
    in_child,
    kernel_warmup,
    legacy_answer,
    legacy_oracle,
    median,
    percentile,
    release_worlds,
    settle,
    timed,
)
from repro.obs import MetricsRegistry
from repro.serve import ServeService, serving_parity_mismatches
from repro.serve.load import LoadGenerator
from repro.serve.wire import RemoteQueryService, WireClient, wire_parity_mismatches
from repro.simulation.reorg import apply_random_reorg

#: Batch world scale: at 1x the detect step is 0.05-0.2 s, below the noise.
BATCH_SCALE = 5
#: Set-ups per run (a 5x world takes ~6.5 s to build); ``setup_s``
#: reports their median.
BATCH_SETUP_REPS = 2
LIVE_SETUP_REPS = 3
#: Timed passes per run, at least; ``pass_s`` takes each step's median.
MIN_PASSES = 3
#: ``replay`` catch-up tick width, in blocks, and ticks between host
#: speed marks (10 ticks are 0.1-0.5 s of work; a mark is ~2 ms).
REPLAY_STEP = 25
MARK_EVERY_TICKS = 10
#: ``follow``: blocks held back and mined in during the pass, tick
#: width range, ticks between reorgs, reorg depth range, and reads made
#: after every tick in process and over the wire.
FOLLOW_BLOCKS = 400
FOLLOW_WIDTH = (2, 8)
FOLLOW_REORG_EVERY = 10
FOLLOW_REORG_DEPTH = (1, 8)
#: The read counts are set so that each part of ``pass_s`` is a visible
#: share of it, and a 2x change in any one part moves ``pass_s`` past
#: its 0.25 bound.  Measured on a 2-vCPU x86 VM with these counts: ticks
#: 0.20-0.27 of ``pass_s``, in-process reads 0.40-0.47, wire reads
#: 0.30-0.37 (every run prints its own ``*_share`` figures).  The cache
#: then hits 0.67 of aggregate lookups.  A 0.82 hit ratio (18,454 hits /
#: 4,064 misses, from a run with readers beside ingest) takes about 70
#: reads per tick (0.72 at 20+6, 0.80 at 60+18), where ticks shrink to
#: 0.14 of ``pass_s`` and a write-side regression would hide.
FOLLOW_LOCAL_READS = 10
FOLLOW_WIRE_READS = 3
QUERY_VERBS = (
    "token_status",
    "account_profile",
    "list_confirmed",
    "funnel_stats",
    "collection_rollup",
    "marketplace_rollup",
)
SPANS = ("refine", "detect", "diff", "fanout")
DELIVERY_TIMEOUT_S = 30.0
T = TypeVar("T")


@dataclass
class Options:
    seconds: float
    trace: bool
    world_seed: int
    query_seed: int
    reorg_seed: int


@dataclass
class Outcome:
    """What a workload measured.  ``*_s`` figures are scaled to the
    quiet host speed (see :class:`common.PassClock`); ``*_wall_s`` ones
    are as measured."""

    setup_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    warmup_s: float = 0.0
    warmup_wall_s: float = 0.0
    pass_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, float] = field(default_factory=dict)

    def check(self, problems: List[str], attempted: int = 1) -> None:
        """Count ``attempted`` gated operations; each problem is a failure."""
        self.attempted += attempted
        self.failures.extend(problems)

    def batch_breakdown(self, world, expected: tuple) -> None:
        """Traced runs only: one batch pass over the workload's chain,
        checked against the oracle's ``expected`` answer and broken down
        by layer."""
        settle()
        done = batch_pass(world)
        self.check(engine_mismatches(done, expected), attempted=len(FAST_ENGINES))
        self.layers.update(batch_layers(done))


def _outcome() -> Outcome:
    out = Outcome()
    out.warmup_s, out.warmup_wall_s = kernel_warmup()
    return out


def _timed_passes(
    opts: Options,
    run_pass: Callable[[], T],
    passes=(),
    traced_pass: Optional[Callable[[], T]] = None,
) -> Tuple[List[T], List[T]]:
    """Run passes until ``seconds`` elapsed and MIN_PASSES ran in all.

    With ``traced_pass``, MIN_PASSES traced passes alternate with the
    first bare ones, so both kinds sample the same stretch of host
    speed.  Returns ``(bare passes, traced passes)``.
    """
    passes, traced = list(passes), []
    deadline = time.perf_counter() + opts.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass())
        if traced_pass is not None and len(traced) < MIN_PASSES:
            traced.append(traced_pass())
    return passes, traced


# -- batch ----------------------------------------------------------------


def batch(opts: Options) -> Outcome:
    """Chain -> build_dataset -> store -> refinement -> detectors ->
    repeated-SCC on the 5x world, once per non-legacy engine per pass."""
    out = _outcome()
    world = expected = None
    builds: List[PassClock] = []
    oracle = (0.0, 0.0)
    passes: List[dict] = []

    def one_pass(keep: bool = False) -> dict:
        settle()
        done = batch_pass(world)
        out.check(engine_mismatches(done, expected), attempted=len(FAST_ENGINES))
        if keep:
            return done
        # Drop the pass's dataset and results before the next one.
        return {key: done[key] for key in ("steps", "raw", "slowness")}

    # Set-ups alternate with timed passes, so the passes sample the
    # host's speed across the whole run rather than one stretch of it.
    for _ in range(BATCH_SETUP_REPS):
        world = None
        release_worlds()
        clock = PassClock()
        world = clock.time("build", build_world, BATCH_SCALE, opts.world_seed)
        clock.mark()
        if expected is None:
            expected, tokens, activities = clock.time(
                "oracle", in_child, lambda: legacy_answer(world)
            )
            oracle = (clock.scaled("oracle")[0], clock.raw("oracle")[0])
            facts = {
                "transactions": world.chain.transaction_count(),
                "tokens": tokens,
                "activities": activities,
            }
        clock.mark()
        builds.append(clock)
        freeze_world()
        passes.append(one_pass())
    out.setup_s = [clock.scaled("build")[0] + oracle[0] for clock in builds]
    out.setup_wall_s = [clock.raw("build")[0] + oracle[1] for clock in builds]
    passes, _ = _timed_passes(opts, one_pass, passes)
    out.pass_s, all_engines_s = batch_times(median_of_steps([p["steps"] for p in passes]))
    raw = [p["raw"] for p in passes]
    out.report.update(
        {
            **facts,
            "batch_s": out.pass_s,
            "pass_wall_s": batch_times(median_of_steps(raw))[0],
            "all_engines_s": all_engines_s,
            "host_slowness": median([p["slowness"] for p in passes]),
            "passes": len(passes),
            "dataset_median_wall_s": median([s[0] for s in raw]),
            **{
                f"{engine}_median_wall_s": median([s[1 + i] for s in raw])
                for i, engine in enumerate(FAST_ENGINES)
            },
        }
    )
    out.layers.update(
        {
            "simulation.build_world_s": median([c.raw("build")[0] for c in builds]),
            "simulation.transactions": facts["transactions"],
            "simulation.tokens": facts["tokens"],
        }
    )
    if opts.trace:
        # The batch path has no tracing to switch on, so no obs overhead.
        out.layers.update(batch_layers(one_pass(keep=True)))
    return out


# -- live-path plumbing ---------------------------------------------------


class LiveTrace:
    """Per-layer bookkeeping for one instrumented live pass.

    Snapshot counters come from a monitor snapshot subscriber; the
    publish interval runs from the return of ``scheduler.process`` to
    the index's version callback, which both index types offer.
    """

    def __init__(self, service: ServeService, probe: Probe) -> None:
        self.service = service
        self.probe = probe
        self.counts = {
            "stream.touched_tokens": 0,
            "stream.dirty_tokens": 0,
            "stream.reorgs": 0,
            "stream.rolled_back_transfers": 0,
            "stream.retractions": 0,
        }
        self.versions = 0
        self.publish_s = 0.0
        self.published_at: Dict[int, float] = {}
        self._processed_at = 0.0
        self._last_seq = service.index.current.last_seq
        monitor = service.monitor
        probe.wrap(monitor.cursor, "advance", "stream.cursor.advance_s")
        probe.wrap(monitor.cursor, "tokens_touching", "stream.cursor.tokens_touching_s")
        probe.wrap(
            monitor.scheduler, "process", "stream.scheduler.process_s", after=self._processed
        )
        monitor.subscribe_snapshots(self._on_snapshot)
        service.index.subscribe_versions(self._on_version)

    def _processed(self) -> None:
        self._processed_at = time.perf_counter()

    def _on_snapshot(self, snapshot) -> None:
        counts = self.counts
        counts["stream.touched_tokens"] += snapshot.touched_token_count
        counts["stream.dirty_tokens"] += snapshot.dirty_token_count
        counts["stream.reorgs"] += 1 if snapshot.reorg_depth else 0
        counts["stream.rolled_back_transfers"] += snapshot.rolled_back_transfer_count
        counts["stream.retractions"] += snapshot.retracted_count

    def _on_version(self, version) -> None:
        now = time.perf_counter()
        self.versions += 1
        self.publish_s += now - self._processed_at
        for seq in range(self._last_seq + 1, version.last_seq + 1):
            self.published_at[seq] = now
        self._last_seq = max(self._last_seq, version.last_seq)

    def layers(self) -> Dict[str, float]:
        service = self.service
        touched = self.counts["stream.touched_tokens"]
        layers: Dict[str, float] = dict(self.counts)
        layers["stream.ticks"] = service.monitor.tick_count
        layers["stream.dirty_per_touched"] = (
            self.counts["stream.dirty_tokens"] / touched if touched else 0.0
        )
        for name in (
            "stream.cursor.advance_s",
            "stream.cursor.tokens_touching_s",
            "stream.scheduler.process_s",
        ):
            layers[name] = self.probe.seconds.get(name, 0.0)
        histograms = service.registry.snapshot()["histograms"]
        for span in SPANS:
            entry = histograms.get(f'span_seconds{{span="{span}"}}')
            layers[f"stream.span.{span}_s"] = entry["sum"] if entry else 0.0
        layers["serve.publish_s"] = self.publish_s
        layers["serve.versions"] = self.versions
        stats = service.cache_stats()
        if stats is not None:
            lookups = stats.hits + stats.misses
            layers.update(
                {
                    "serve.cache.hits": stats.hits,
                    "serve.cache.misses": stats.misses,
                    "serve.cache.invalidated": stats.invalidated,
                    "serve.cache.hit_ratio": stats.hits / lookups if lookups else 0.0,
                }
            )
        return layers


def _tick_report(passes: List[dict]) -> Dict[str, float]:
    ticks = [t for p in passes for t in p["tick_s"]]
    return {
        "tick_p50_ms": 1e3 * percentile(ticks, 50),
        "tick_p95_ms": 1e3 * percentile(ticks, 95),
        "ticks": len(passes[0]["tick_s"]),
        "passes": len(passes),
    }


# -- replay ---------------------------------------------------------------


def _replay_pass(world, probe: Probe) -> dict:
    """Full-chain catch-up in REPLAY_STEP-block ticks with one wire
    subscriber; returns tick times, alert latencies and the answers."""
    settle()
    service = ServeService.for_world(
        world, registry=MetricsRegistry() if probe.enabled else None
    )
    monitor = service.monitor
    live = LiveTrace(service, probe) if probe.enabled else None
    server = service.serve_wire()
    client = WireClient(*server.address).connect()
    stream = client.subscribe(-1)
    received: List[tuple] = []
    stop = threading.Event()

    def receive() -> None:
        while True:
            alert = stream.next(timeout=0.1)
            if alert is not None:
                received.append((alert.seq, time.perf_counter(), alert.trace))
            elif stop.is_set() or stream.closed.is_set():
                return

    receiver = threading.Thread(target=receive, name="bench-subscriber")
    receiver.start()
    tick_started: Dict[str, float] = {}
    clock = PassClock()
    head = world.node.block_number
    try:
        while monitor.cursor.next_block <= head:
            upper = min(monitor.cursor.next_block + REPLAY_STEP - 1, head)
            tick_started[monitor.predict_trace()] = time.perf_counter()
            clock.time("tick", service.advance, upper)
            if len(tick_started) % MARK_EVERY_TICKS == 0:
                clock.mark()
        clock.mark()
        expected = len(monitor.alerts)
        waited = time.perf_counter() + DELIVERY_TIMEOUT_S
        while len(received) < expected and time.perf_counter() < waited:
            time.sleep(0.005)
    finally:
        stop.set()
        receiver.join(timeout=DELIVERY_TIMEOUT_S)
        stream.close()
        service.shutdown(timeout=10.0)
    done = {
        "blocks": head + 1,
        "tick_s": clock.raw("tick"),
        "steps": clock.scaled("tick"),
        "slowness": clock.slowness(),
        "alert_ms": [1e3 * (at - tick_started[trace]) for _, at, trace in received],
        "alerts": expected,
        "delivered": sorted(seq for seq, _, _ in received),
        "answer": answer_of(service.result()),
        "subscriber_errors": monitor.subscriber_errors.total,
    }
    if live is not None:
        layers = live.layers()
        push_ms = [
            1e3 * (at - live.published_at[seq])
            for seq, at, _ in received
            if seq in live.published_at
        ]
        layers["wire.push_p50_ms"] = percentile(push_ms, 50)
        layers["wire.push_p95_ms"] = percentile(push_ms, 95)
        layers["wire.alerts_delivered"] = len(received)
        done["layers"] = layers
    return done


def replay(opts: Options) -> Outcome:
    """Write-only full-chain catch-up of the default world."""
    out = _outcome()
    world = None
    for _ in range(LIVE_SETUP_REPS):
        world = None
        release_worlds()
        world, scaled, raw = timed(lambda: build_world(1, opts.world_seed))
        out.setup_s.append(scaled)
        out.setup_wall_s.append(raw)
    expected, out.layers["simulation.tokens"], _ = in_child(lambda: legacy_answer(world))
    freeze_world()

    passes, traced = _timed_passes(
        opts,
        lambda: _replay_pass(world, Probe(False)),
        traced_pass=(lambda: _replay_pass(world, Probe(True))) if opts.trace else None,
    )
    for done in passes + traced:
        problems = []
        if done["answer"] != expected:
            problems.append("stream result disagrees with the batch oracle")
        if done["delivered"] != list(range(done["alerts"])):
            problems.append(
                f"subscriber got {len(done['delivered'])} of {done['alerts']} alerts"
            )
        if done["subscriber_errors"]:
            problems.append(f"{done['subscriber_errors']} subscriber errors")
        out.check(problems, attempted=len(done["tick_s"]) + done["alerts"])

    out.pass_s = sum(median_of_steps([p["steps"] for p in passes]))
    alert_ms = [a for p in passes for a in p["alert_ms"]]
    out.report.update(_tick_report(passes))
    out.report.update(
        {
            "replay_blocks_per_s": passes[0]["blocks"] / out.pass_s,
            "pass_wall_s": sum(median_of_steps([p["tick_s"] for p in passes])),
            "host_slowness": median([p["slowness"] for p in passes]),
            "alert_p50_ms": percentile(alert_ms, 50),
            "alert_p95_ms": percentile(alert_ms, 95),
            "alerts": passes[0]["alerts"],
            "delivered": len(passes[0]["delivered"]),
        }
    )
    out.layers.update(
        {
            "simulation.build_world_s": median(out.setup_wall_s),
            "simulation.transactions": world.chain.transaction_count(),
            "stream.tick_p50_ms": out.report["tick_p50_ms"],
            "stream.tick_p95_ms": out.report["tick_p95_ms"],
            "stream.blocks_per_s": out.report["replay_blocks_per_s"],
            "wire.alert_p50_ms": out.report["alert_p50_ms"],
            "wire.alert_p95_ms": out.report["alert_p95_ms"],
        }
    )
    if traced:
        out.layers.update(traced[0]["layers"])
        out.batch_breakdown(world, expected)
        traced_s = sum(median_of_steps([p["steps"] for p in traced]))
        out.layers["obs.overhead_pct"] = 100.0 * (traced_s / out.pass_s - 1.0)
    return out


# -- follow ---------------------------------------------------------------


class FollowRig:
    """One head-following service: the default world with its last
    FOLLOW_BLOCKS blocks held back, warmed in one tick to that point,
    serving the wire on one loopback connection."""

    def __init__(self, seed: int, registry: Optional[MetricsRegistry]) -> None:
        started = time.perf_counter()
        self.world = build_world(1, seed)
        self.build_s = time.perf_counter() - started
        self.transactions = self.world.chain.transaction_count()
        self.held = self.world.chain.reorg(FOLLOW_BLOCKS, [])
        self.service = ServeService.for_world(self.world, registry=registry)
        self.service.advance()
        self.server = self.service.serve_wire()
        self.remote = RemoteQueryService(*self.server.address)

    def mine(self, blocks) -> None:
        """Append held blocks at the head (re-installing the head block
        itself, unchanged, is how ``Chain.reorg`` extends a chain)."""
        chain = self.world.chain
        chain.reorg(1, [chain.blocks[-1], *blocks])

    def close(self) -> None:
        self.remote.close()
        self.service.shutdown(timeout=10.0)


def _tick_widths(rng: random.Random) -> List[int]:
    """FOLLOW_BLOCKS cut into ticks of FOLLOW_WIDTH blocks, in seeded
    order.  The multiset of widths is fixed (each width equally often,
    topped up with mean-width ticks), so every seed runs the same
    number of ticks, reads and reorgs."""
    low, high = FOLLOW_WIDTH
    cycle = list(range(low, high + 1))
    widths = cycle * (FOLLOW_BLOCKS // sum(cycle))
    mean = (low + high) // 2
    rest = FOLLOW_BLOCKS - sum(widths)
    widths += [mean] * (rest // mean) + ([rest % mean] if rest % mean else [])
    rng.shuffle(widths)
    return widths


def _follow_pass(rig: FollowRig, opts: Options, probe: Probe) -> dict:
    service, remote = rig.service, rig.remote
    live = LiveTrace(service, probe) if probe.enabled else None
    for verb in QUERY_VERBS:
        probe.wrap(service.query, verb, f"serve.query.{verb}", keep_samples=True)
        probe.wrap(remote, verb, f"wire.query.{verb}", keep_samples=True)
    local = LoadGenerator(service.query, seed=opts.query_seed, stop=threading.Event())
    wire = LoadGenerator(remote, seed=opts.query_seed + 1, stop=threading.Event())
    rng = random.Random(opts.reorg_seed)
    reorgs = 0
    settle()
    clock = PassClock()
    position = 0
    for tick, width in enumerate(_tick_widths(rng), 1):
        rig.mine(rig.held[position : position + width])
        position += width
        clock.time("tick", service.advance)
        for _ in range(FOLLOW_LOCAL_READS):
            clock.time("local", local.step)
        for _ in range(FOLLOW_WIRE_READS):
            clock.time("wire", wire.step)
        clock.mark()
        if tick % FOLLOW_REORG_EVERY == 0:
            apply_random_reorg(rig.world.chain, rng.randint(*FOLLOW_REORG_DEPTH), rng)
            reorgs += 1
    clock.time("tick", service.advance)  # settle a trailing reorg
    clock.mark()
    done = {
        "tick_s": clock.raw("tick"),
        "local_s": clock.raw("local"),
        "wire_s": clock.raw("wire"),
        # Ticks, then in-process reads, then wire reads (see tick_share).
        "steps": clock.scaled("tick") + clock.scaled("local") + clock.scaled("wire"),
        "slowness": clock.slowness(),
        "reorgs": reorgs,
        "read_errors": local.errors + wire.errors,
    }
    if live is not None:
        layers = live.layers()
        overheads = []
        for verb in QUERY_VERBS:
            here = percentile(probe.samples.get(f"serve.query.{verb}", []), 50)
            there = percentile(probe.samples.get(f"wire.query.{verb}", []), 50)
            layers[f"serve.query.{verb}_us"] = 1e6 * here
            if here and there:
                overheads.append(1e6 * (there - here))
        layers["wire.request_overhead_us"] = median(overheads)
        done["layers"] = layers
    return done


def _serving_check(rig: FollowRig):
    """Serving parity against a batch run (legacy oracle) over the chain
    up to the settled head: ``(problems, tokens, oracle answer)``."""
    world = rig.world
    dataset, oracle = legacy_oracle(world, to_block=world.node.block_number)
    problems = serving_parity_mismatches(rig.service.query, oracle)
    return problems, dataset.nft_count, answer_of(oracle)


def _follow_gate(out: Outcome, rig: FollowRig, done: dict) -> tuple:
    """Reads raised no invariant errors, and at the settled head the
    served and wire answers match a batch run over the same chain;
    returns that batch run's answer.  The batch run and the serving
    comparison happen in a child process (see :func:`common.in_child`);
    the wire comparison needs this process's connection."""
    service = rig.service
    served, out.layers["simulation.tokens"], expected = in_child(lambda: _serving_check(rig))
    problems = list(done["read_errors"]) + served
    problems += wire_parity_mismatches(rig.remote.client, service.query, rig.server.lookup_version)
    if service.monitor.subscriber_errors.total:
        problems.append(f"{service.monitor.subscriber_errors.total} subscriber errors")
    out.check(
        problems,
        attempted=len(done["tick_s"]) + len(done["local_s"]) + len(done["wire_s"]),
    )
    return expected


def follow(opts: Options) -> Outcome:
    """Head-following ticks with seeded reorgs and reads beside writes.

    Reorgs rewrite the chain, so every pass sets up a fresh world; each
    pass's set-up is one ``setup_s`` sample.
    """
    out = _outcome()
    builds: List[float] = []
    transactions = 0

    def one_pass(traced: bool = False) -> dict:
        nonlocal transactions, breakdowns
        release_worlds()
        registry = MetricsRegistry() if traced else None
        rig, scaled, raw = timed(lambda: FollowRig(opts.world_seed, registry))
        freeze_world()
        if not traced:
            out.setup_s.append(scaled)
            out.setup_wall_s.append(raw)
            builds.append(rig.build_s)
        transactions = rig.transactions
        try:
            done = _follow_pass(rig, opts, Probe(traced))
            expected = _follow_gate(out, rig, done)
            if traced and not breakdowns:
                out.batch_breakdown(rig.world, expected)
                breakdowns += 1
        finally:
            rig.close()
        return done

    breakdowns = 0
    passes, traced = _timed_passes(
        opts, one_pass, traced_pass=(lambda: one_pass(traced=True)) if opts.trace else None
    )

    step_s = median_of_steps([p["steps"] for p in passes])
    out.pass_s = sum(step_s)
    ticks, local = len(passes[0]["tick_s"]), len(passes[0]["local_s"])
    local_s = [t for p in passes for t in p["local_s"]]
    wire_s = [t for p in passes for t in p["wire_s"]]
    raw = [p["tick_s"] + p["local_s"] + p["wire_s"] for p in passes]
    out.report.update(_tick_report(passes))
    out.report.update(
        {
            "pass_wall_s": sum(median_of_steps(raw)),
            "host_slowness": median([p["slowness"] for p in passes]),
            "query_p50_us": 1e6 * percentile(local_s, 50),
            "query_p95_us": 1e6 * percentile(local_s, 95),
            "query_per_s": len(local_s) / sum(local_s),
            "wire_query_p50_ms": 1e3 * percentile(wire_s, 50),
            "wire_query_p95_ms": 1e3 * percentile(wire_s, 95),
            "reorgs": passes[0]["reorgs"],
            # Where pass_s goes: ticks, in-process reads, wire reads.
            "tick_share": sum(step_s[:ticks]) / out.pass_s,
            "local_read_share": sum(step_s[ticks : ticks + local]) / out.pass_s,
            "wire_read_share": sum(step_s[ticks + local :]) / out.pass_s,
        }
    )
    out.layers.update(
        {
            "simulation.build_world_s": median(builds),
            "simulation.transactions": transactions,
            "stream.tick_p50_ms": out.report["tick_p50_ms"],
            "stream.tick_p95_ms": out.report["tick_p95_ms"],
            "stream.blocks_per_s": FOLLOW_BLOCKS / median([sum(p["tick_s"]) for p in passes]),
            "serve.query_p50_us": out.report["query_p50_us"],
            "serve.query_p95_us": out.report["query_p95_us"],
            "serve.query_per_s": out.report["query_per_s"],
            "wire.query_p50_ms": out.report["wire_query_p50_ms"],
            "wire.query_p95_ms": out.report["wire_query_p95_ms"],
        }
    )
    if traced:
        out.layers.update(traced[0]["layers"])
        traced_s = sum(median_of_steps([p["steps"] for p in traced]))
        out.layers["obs.overhead_pct"] = 100.0 * (traced_s / out.pass_s - 1.0)
    return out


WORKLOADS = {"batch": batch, "replay": replay, "follow": follow}
