"""The scenario runner: build the world, replay it, judge the run.

One :func:`run_scenario` call executes a
:class:`~repro.simulation.scenarios.spec.ScenarioSpec` end to end
against the *full* live stack -- streaming ingest, the serving read
model, the wire tier -- under a
:class:`~repro.simulation.scenarios.clock.SimulatedClock`:

1. the spec's world is built, with its fee shifts and tokenization
   waves staged as builder day hooks;
2. each phase drives the service tick by tick at the phase's step
   width, paced by the accelerated clock, injecting the phase's reorg
   profile between ticks, with the phase's SLOs armed on the monitor;
3. at the end the run settles to head and the three parity bars are
   checked -- stream-vs-batch and serve-vs-batch against the legacy
   oracle's batch build (:mod:`repro.verify`), wire-vs-in-process --
   plus one typed verdict per phase SLO.

A run that misses any bar raises
:class:`~repro.simulation.scenarios.spec.ScenarioFailure` carrying the
full :class:`~repro.simulation.scenarios.spec.ScenarioReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOEngine, latency_objective
from repro.serve.parity import live_parity_mismatches
from repro.serve.service import ServeService
from repro.simulation.reorg import apply_random_reorg
from repro.simulation.scenarios.clock import SimulatedClock
from repro.simulation.scenarios.registry import get_scenario
from repro.simulation.scenarios.spec import (
    ParityCheck,
    PhaseSpec,
    PhaseStats,
    PhaseVerdict,
    ScenarioFailure,
    ScenarioReport,
    ScenarioSpec,
    TokenizationWave,
)
from repro.stream.alerts import AlertKind
from repro.utils.rng import DeterministicRNG

if TYPE_CHECKING:  # pragma: no cover - annotation-only import; a real
    # one would close the builder <-> scenarios package cycle (the
    # builder pulls the wash catalogue from this package at import time)
    from repro.simulation.builder import DayHookContext

__all__ = ["RunOptions", "run_scenario", "build_scenario_world"]

#: ETH given to tokenization-wave holders so batch calls never run dry.
_HOLDER_FUNDING_ETH = 5.0


@dataclass
class RunOptions:
    """Execution knobs orthogonal to the spec itself."""

    #: Clock acceleration override; None uses the spec's default, 0
    #: replays unpaced.
    speed: Optional[float] = None
    seed: Optional[int] = None
    #: Serve the wire tier and check wire parity.
    wire: bool = True
    #: Arm per-phase SLO engines.  Disable for byte-identity studies:
    #: SLO evaluations depend on wall-clock latencies, so their
    #: operator alerts are the one non-deterministic part of a run.
    evaluate_slos: bool = True
    #: Run the end-of-run parity battery.
    verify_parity: bool = True
    #: Called with one line per replay milestone (CLI progress).
    progress: Optional[Callable[[str], None]] = None
    #: Raise ScenarioFailure when the report is not ok.
    raise_on_failure: bool = True


def _build_day_hooks(spec: ScenarioSpec, duration_days: int):
    """Turn the spec's declarative interventions into builder hooks."""
    hooks: List[Tuple[int, Callable[[DayHookContext], None]]] = []
    last_day = max(duration_days - 1, 0)

    for shift in spec.world.fee_shifts:
        day = min(int(duration_days * shift.at_fraction), last_day)

        def fee_hook(ctx: DayHookContext, _shift=shift) -> None:
            ctx.marketplaces.venue(_shift.venue).fee_bps = _shift.fee_bps

        hooks.append((day, fee_hook))

    wave = spec.world.tokenization
    if wave is not None:
        hooks.extend(_tokenization_hooks(wave, duration_days))
    return hooks


def _tokenization_hooks(wave: TokenizationWave, duration_days: int):
    """Daily batch mint/burn churn against the world's ERC-1155 contract.

    Holder accounts and a child RNG are created lazily on the first
    firing so the hook stays a closure over pure spec data until the
    build actually reaches the wave.
    """
    from repro.chain.types import Call

    state: dict = {}

    def fire(ctx: DayHookContext) -> None:
        if ctx.erc1155_address is None:
            return
        rng = state.get("rng")
        if rng is None:
            rng = state["rng"] = ctx.rng.child("tokenization")
            holders = state["holders"] = [
                ctx.kit.new_account("tokenizer") for _ in range(wave.holders)
            ]
            for holder in holders:
                ctx.kit.fund_from_exchange(holder, _HOLDER_FUNDING_ETH, day=ctx.day)
        holders = state["holders"]
        for _ in range(wave.batches_per_day):
            holder = rng.choice(holders)
            kinds = rng.randint(1, wave.token_kinds)
            token_ids = sorted(
                {rng.randint(1, wave.token_kinds * 4) for _ in range(kinds)}
            )
            amounts = [rng.randint(1, wave.max_units) for _ in token_ids]
            timestamp = ctx.kit.clock.next_timestamp(ctx.day)
            ctx.chain.transact(
                sender=holder,
                to=ctx.erc1155_address,
                call=Call(
                    "mintBatch",
                    {"to": holder, "token_ids": token_ids, "amounts": amounts},
                ),
                timestamp=timestamp,
            )
            if rng.random() < 0.6:
                burn_ids = token_ids[: max(len(token_ids) // 2, 1)]
                burn_amounts = [
                    max(amounts[index] // 2, 1)
                    for index in range(len(burn_ids))
                ]
                timestamp = ctx.kit.clock.next_timestamp(ctx.day)
                ctx.chain.transact(
                    sender=holder,
                    to=ctx.erc1155_address,
                    call=Call(
                        "burnBatch",
                        {
                            "sender": holder,
                            "token_ids": burn_ids,
                            "amounts": burn_amounts,
                        },
                    ),
                    timestamp=timestamp,
                )

    first = min(int(duration_days * wave.start_fraction), duration_days - 1)
    last = min(int(duration_days * wave.end_fraction), duration_days - 1)
    return [(day, fire) for day in range(first, last + 1)]


def build_scenario_world(spec: ScenarioSpec, seed: Optional[int] = None):
    """Build the world a spec describes (hooks staged), returning it."""
    from repro.simulation.builder import WorldBuilder

    config = spec.world.build_config(seed=seed)
    hooks = _build_day_hooks(spec, config.duration_days)
    return WorldBuilder(config, day_hooks=hooks).build()


def _phase_bounds(head: int, phases) -> List[Tuple[PhaseSpec, int]]:
    """Cumulative upper block bound per phase (normalized fractions)."""
    total = sum(phase.fraction for phase in phases)
    bounds: List[Tuple[PhaseSpec, int]] = []
    cumulative = 0.0
    for index, phase in enumerate(phases):
        cumulative += phase.fraction
        bound = head if index == len(phases) - 1 else int(
            head * cumulative / total
        )
        bounds.append((phase, max(bound, 1)))
    return bounds


def _slo_engine_for(registry, phase: PhaseSpec) -> Optional[SLOEngine]:
    if not phase.slos:
        return None
    objectives = [
        latency_objective(
            slo.threshold_seconds,
            stage=slo.stage,
            quantile=slo.quantile,
            window=slo.window,
            budget=slo.budget,
            name=(
                f"{phase.name}-{slo.stage}-"
                f"p{int(round(slo.quantile * 100))}"
            ),
        )
        for slo in phase.slos
    ]
    return SLOEngine(registry, objectives)


def _observed_latency(registry, stage: str, quantile: float) -> Optional[float]:
    family = registry.histogram(
        "alert_latency_seconds",
        "Ingest-to-alert latency, broken down by pipeline stage.",
        labels=("stage",),
    )
    child = family.labels(stage=stage)
    if child.count == 0:
        return None
    return child.percentile(quantile)


def _phase_verdicts(
    registry, phase: PhaseSpec, engine: Optional[SLOEngine]
) -> List[PhaseVerdict]:
    if engine is None:
        return []
    state = engine.state()
    verdicts: List[PhaseVerdict] = []
    for objective, slo in zip(engine.objectives, phase.slos):
        budget = state[objective.name]
        observed = _observed_latency(registry, slo.stage, slo.quantile)
        evaluations = int(budget["window"])
        ok = bool(budget["healthy"]) and not bool(budget["breached"])
        note = "" if evaluations else "no observations this phase"
        verdicts.append(
            PhaseVerdict(
                phase=phase.name,
                objective=objective.name,
                stage=slo.stage,
                ok=ok,
                threshold_seconds=slo.threshold_seconds,
                observed_seconds=observed,
                budget_used=float(budget["budget_used"]),
                evaluations=evaluations,
                note=note,
            )
        )
    return verdicts


def _block_timestamp(node, number: int) -> Optional[int]:
    try:
        return node.get_block(number).timestamp
    except (IndexError, AttributeError):
        return None


def _encode_alert_log(alerts) -> bytes:
    """Canonical bytes of the detection-alert stream.

    Operator SLO_BREACH alerts are excluded: they are triggered by
    wall-clock latencies, the one legitimately non-deterministic input
    of a run, so byte-identity is asserted over detections only.
    """
    from repro.serve.wire import codec

    lines = [
        json.dumps(codec.encode_alert(alert), sort_keys=True)
        for alert in alerts
        if alert.kind is not AlertKind.SLO_BREACH
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _encode_funnel(query) -> str:
    from repro.serve.wire import codec

    return json.dumps(codec.encode_funnel(query.funnel_stats()), sort_keys=True)


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    options: Optional[RunOptions] = None,
) -> ScenarioReport:
    """Execute one scenario end to end; return (or raise with) its report."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    options = options or RunOptions()
    say = options.progress or (lambda line: None)

    speed = options.speed if options.speed is not None else spec.default_speed
    seed = (
        options.seed
        if options.seed is not None
        else spec.world.seed
        if spec.world.seed is not None
        else spec.world.build_config().seed
    )

    say(f"building world for {spec.name!r} (seed {seed})...")
    build_started = time.monotonic()
    world = build_scenario_world(spec, seed=seed)
    head = world.node.block_number
    say(
        f"world ready: {head} blocks in "
        f"{time.monotonic() - build_started:.1f}s"
    )

    registry = MetricsRegistry()
    service = ServeService.for_world(world, registry=registry)
    report = ScenarioReport(
        scenario=spec.name,
        seed=seed,
        speed=speed,
        blocks=head,
    )
    run_started = time.monotonic()
    subscriber = None
    stream = None
    try:
        if options.wire:
            from repro.serve.wire import WireClient

            server = service.serve_wire("127.0.0.1", 0)
            host, port = server.address
            subscriber = WireClient(host, port).connect()
            stream = subscriber.subscribe(-1)

        start_timestamp = _block_timestamp(world.node, 0) or 0
        clock = SimulatedClock(start_timestamp, speed=speed)
        reorg_rng = DeterministicRNG(seed).child("scenario-reorgs")

        for phase, bound in _phase_bounds(head, spec.phases):
            engine = (
                _slo_engine_for(registry, phase)
                if options.evaluate_slos
                else None
            )
            service.attach_slo(engine)
            phase_started = time.monotonic()
            alerts_before = len(service.monitor.alerts)
            from_block = service.monitor.processed_block + 1
            ticks = 0
            reorgs = 0
            limit = 10 * (bound + 2) + 100
            for _ in range(limit):
                chain_head = world.node.block_number
                target = min(bound, chain_head)
                if service.monitor.processed_block >= target:
                    break
                upper = min(
                    service.monitor.processed_block + phase.step_blocks,
                    target,
                )
                service.advance(upper)
                ticks += 1
                timestamp = _block_timestamp(
                    world.node, min(upper, world.node.block_number)
                )
                if timestamp is not None:
                    clock.pace(timestamp)
                profile = phase.reorg
                if (
                    profile is not None
                    and world.chain.blocks
                    and reorg_rng.random() < profile.probability
                ):
                    depth = reorg_rng.randint(
                        1, min(profile.max_depth, len(world.chain.blocks))
                    )
                    shorten = reorg_rng.randint(
                        0, min(profile.max_shorten, depth)
                    )
                    apply_random_reorg(
                        world.chain,
                        depth,
                        reorg_rng,
                        drop_probability=profile.drop_probability,
                        delay_probability=profile.delay_probability,
                        shorten=shorten,
                    )
                    reorgs += 1
            else:
                raise RuntimeError(
                    f"phase {phase.name!r} did not converge in {limit} ticks"
                )
            stats = PhaseStats(
                phase=phase.name,
                from_block=from_block,
                to_block=service.monitor.processed_block,
                ticks=ticks,
                alerts=len(service.monitor.alerts) - alerts_before,
                reorgs=reorgs,
                wall_seconds=time.monotonic() - phase_started,
            )
            report.phases.append(stats)
            verdicts = _phase_verdicts(registry, phase, engine)
            report.verdicts.extend(verdicts)
            say(
                f"phase {phase.name}: blocks {stats.from_block}-"
                f"{stats.to_block}, {stats.ticks} ticks, "
                f"{stats.alerts} alerts, {stats.reorgs} reorgs"
                + (
                    ""
                    if all(v.ok for v in verdicts)
                    else " [SLO FAIL]"
                )
            )

        service.attach_slo(None)
        # Settle: a trailing reorg may have left the cursor past a
        # shortened head; one final advance rolls back / re-ingests.
        service.advance()
        if stream is not None:
            report.delivered_wire_alerts = len(stream.poll())

        report.alert_log = _encode_alert_log(service.monitor.alerts)
        report.funnel_stats_json = _encode_funnel(service.query)

        if options.verify_parity:
            say("verifying parity against the legacy oracle...")
            for name, mismatches in live_parity_mismatches(service, world).items():
                report.parity.append(ParityCheck(name, tuple(mismatches)))
    finally:
        if stream is not None:
            stream.close()
        if subscriber is not None:
            subscriber.close()
        service.shutdown()

    report.wall_seconds = time.monotonic() - run_started
    say(report.render())
    if options.raise_on_failure and not report.ok:
        raise ScenarioFailure(report)
    return report
