"""Declarative scenario specifications.

A :class:`ScenarioSpec` is pure frozen data: it composes *world
generation* (a config preset plus overrides plus build-time
interventions such as fee-regime shifts and ERC-1155 tokenization
waves) with an *adversarial replay schedule* (ordered phases, each with
its own tick width, reorg pressure and alert-latency SLOs).  The runner
(:mod:`repro.simulation.scenarios.runner`) interprets a spec; nothing
here executes anything, so specs can be registered, listed, compared
and embedded in tests without side effects.

The replay produces a :class:`ScenarioReport` -- typed per-phase SLO
verdicts, parity checks, determinism digests -- and a failing run
raises :class:`ScenarioFailure` *carrying that report*, never a bare
assert, so callers (CLI, CI, tests) always get the full structured
picture of what broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FeeShift",
    "TokenizationWave",
    "WorldSpec",
    "ReorgProfile",
    "PhaseSLO",
    "PhaseSpec",
    "ScenarioSpec",
    "PhaseVerdict",
    "ParityCheck",
    "PhaseStats",
    "ScenarioReport",
    "ScenarioFailure",
]

#: Stages of the ``alert_latency_seconds`` histogram a phase SLO may
#: target (see :mod:`repro.obs.latency`).
_LATENCY_STAGES = ("schedule", "detect", "fanout", "deliver", "total")

_PRESETS = ("tiny", "small", "default")


@dataclass(frozen=True)
class FeeShift:
    """A marketplace fee-regime change staged mid-history.

    ``at_fraction`` places the shift as a fraction of the simulated
    duration (0.5 = halfway through the history).  The marketplace
    contract reads its fee live at ``buy()`` time, so every sale from
    that day on pays the new rate -- reward farmers included.
    """

    venue: str
    fee_bps: int
    at_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ValueError("at_fraction must be within [0, 1]")
        if self.fee_bps < 0:
            raise ValueError("fee_bps must be >= 0")


@dataclass(frozen=True)
class TokenizationWave:
    """ERC-1155-style batch mint/burn churn staged over part of the build.

    Models a game-item tokenizer: a pool of holders batch-mints mixed
    inventories and batch-burns them back, emitting ``TransferBatch``
    events throughout the wave's day range.  None of it is ERC-721, so
    detection results must be byte-identical with or without the wave --
    the scenario's parity checks prove the scan's discrimination rule.
    """

    holders: int = 5
    token_kinds: int = 6
    max_units: int = 40
    batches_per_day: int = 2
    start_fraction: float = 0.2
    end_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.holders < 1 or self.token_kinds < 1 or self.max_units < 1:
            raise ValueError("holders, token_kinds and max_units must be >= 1")
        if not 0.0 <= self.start_fraction <= self.end_fraction <= 1.0:
            raise ValueError("wave fractions must satisfy 0 <= start <= end <= 1")


@dataclass(frozen=True)
class WorldSpec:
    """Which synthetic world to build, and how to perturb it."""

    preset: str = "tiny"
    seed: Optional[int] = None
    #: ``SimulationConfig`` attribute overrides, e.g. (("duration_days", 20),).
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: ``WashMix`` attribute overrides, e.g. (("looksrare_reward_farms", 9),).
    wash_mix: Tuple[Tuple[str, int], ...] = ()
    fee_shifts: Tuple[FeeShift, ...] = ()
    tokenization: Optional[TokenizationWave] = None

    def __post_init__(self) -> None:
        if self.preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; expected one of {_PRESETS}"
            )

    def build_config(self, seed: Optional[int] = None):
        """Materialize the :class:`SimulationConfig` this spec describes."""
        from repro.simulation.config import SimulationConfig

        factories = {
            "tiny": SimulationConfig.tiny,
            "small": SimulationConfig.small,
            "default": SimulationConfig,
        }
        config = factories[self.preset]()
        for name, value in self.overrides:
            if not hasattr(config, name):
                raise ValueError(f"unknown SimulationConfig override {name!r}")
            setattr(config, name, value)
        for name, value in self.wash_mix:
            if not hasattr(config.wash_mix, name):
                raise ValueError(f"unknown WashMix override {name!r}")
            setattr(config.wash_mix, name, value)
        effective_seed = seed if seed is not None else self.seed
        if effective_seed is not None:
            config.seed = effective_seed
        return config


@dataclass(frozen=True)
class ReorgProfile:
    """Adversarial reorg pressure applied between ticks of a phase."""

    probability: float = 0.35
    max_depth: int = 6
    drop_probability: float = 0.3
    delay_probability: float = 0.25
    max_shorten: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_shorten < 0:
            raise ValueError("max_shorten must be >= 0")


@dataclass(frozen=True)
class PhaseSLO:
    """One per-phase alert-latency objective, evaluated every tick."""

    stage: str = "detect"
    quantile: float = 0.95
    threshold_seconds: float = 5.0
    window: int = 16
    budget: float = 0.25

    def __post_init__(self) -> None:
        if self.stage not in _LATENCY_STAGES:
            raise ValueError(
                f"unknown latency stage {self.stage!r}; "
                f"expected one of {_LATENCY_STAGES}"
            )
        if self.threshold_seconds < 0:
            raise ValueError("threshold_seconds must be >= 0")


@dataclass(frozen=True)
class PhaseSpec:
    """One stretch of the replay: its traffic shape and its bars."""

    name: str
    #: Share of the chain's blocks this phase covers; the runner
    #: normalizes across phases, so fractions need not sum to 1 exactly.
    fraction: float
    step_blocks: int = 25
    reorg: Optional[ReorgProfile] = None
    slos: Tuple[PhaseSLO, ...] = (PhaseSLO(),)

    def __post_init__(self) -> None:
        if self.fraction <= 0:
            raise ValueError("fraction must be > 0")
        if self.step_blocks < 1:
            raise ValueError("step_blocks must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, registrable scenario: world + adversarial schedule."""

    name: str
    description: str
    world: WorldSpec
    phases: Tuple[PhaseSpec, ...]
    #: Default clock acceleration: simulated seconds per wall second.
    #: 0 replays unpaced (as fast as the machine allows).
    default_speed: float = 0.0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must not be empty")
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ValueError("phase names must be unique within a scenario")
        if self.default_speed < 0:
            raise ValueError("default_speed must be >= 0")


# -- replay outcome types ---------------------------------------------------


@dataclass(frozen=True)
class PhaseVerdict:
    """One phase SLO, judged at phase end from the engine's budget state."""

    phase: str
    objective: str
    stage: str
    ok: bool
    threshold_seconds: float
    observed_seconds: Optional[float]
    budget_used: float
    evaluations: int
    note: str = ""

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        observed = (
            "no observations"
            if self.observed_seconds is None
            else f"observed {self.observed_seconds * 1000:.1f}ms"
        )
        return (
            f"[{mark}] {self.phase}/{self.objective}: {observed} vs "
            f"{self.threshold_seconds:g}s bar, budget {self.budget_used:.0%} "
            f"used over {self.evaluations} evaluations"
            + (f" ({self.note})" if self.note else "")
        )


@dataclass(frozen=True)
class ParityCheck:
    """One end-of-run parity comparison and its mismatches ([] = OK)."""

    name: str
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return f"[PASS] parity/{self.name}"
        head = "; ".join(self.mismatches[:3])
        more = len(self.mismatches) - 3
        return f"[FAIL] parity/{self.name}: {head}" + (
            f" (+{more} more)" if more > 0 else ""
        )


@dataclass(frozen=True)
class PhaseStats:
    """What one phase actually did during the replay."""

    phase: str
    from_block: int
    to_block: int
    ticks: int
    alerts: int
    reorgs: int
    wall_seconds: float


@dataclass
class ScenarioReport:
    """Everything one scenario run produced, in one typed object."""

    scenario: str
    seed: int
    speed: float
    blocks: int
    wall_seconds: float = 0.0
    phases: List[PhaseStats] = field(default_factory=list)
    verdicts: List[PhaseVerdict] = field(default_factory=list)
    parity: List[ParityCheck] = field(default_factory=list)
    delivered_wire_alerts: int = 0
    #: Canonical encoding of the detection-alert stream (operator
    #: SLO_BREACH alerts excluded: their latencies are wall-clock).
    alert_log: bytes = b""
    #: Canonical JSON of the funnel statistics at the final version.
    funnel_stats_json: str = ""

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts) and all(
            p.ok for p in self.parity
        )

    def failures(self) -> List[str]:
        out = [v.render() for v in self.verdicts if not v.ok]
        out.extend(p.render() for p in self.parity if not p.ok)
        return out

    def render(self) -> str:
        lines = [
            f"scenario {self.scenario}: "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"(seed {self.seed}, speed {self.speed:g}, "
            f"{self.blocks} blocks, {self.wall_seconds:.1f}s wall)"
        ]
        for stats in self.phases:
            lines.append(
                f"  phase {stats.phase}: blocks {stats.from_block}-"
                f"{stats.to_block}, {stats.ticks} ticks, {stats.alerts} "
                f"alerts, {stats.reorgs} reorgs, {stats.wall_seconds:.1f}s"
            )
        for verdict in self.verdicts:
            lines.append("  " + verdict.render())
        for check in self.parity:
            lines.append("  " + check.render())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "seed": self.seed,
            "speed": self.speed,
            "blocks": self.blocks,
            "wall_seconds": self.wall_seconds,
            "phases": [vars(stats) for stats in self.phases],
            "verdicts": [vars(verdict) for verdict in self.verdicts],
            "parity": [
                {"name": check.name, "mismatches": list(check.mismatches)}
                for check in self.parity
            ],
            "delivered_wire_alerts": self.delivered_wire_alerts,
            "alert_log_lines": self.alert_log.count(b"\n"),
            "funnel_stats": self.funnel_stats_json,
        }


class ScenarioFailure(AssertionError):
    """A scenario run missed a bar; carries the full typed report."""

    def __init__(self, report: ScenarioReport) -> None:
        self.report = report
        summary = "; ".join(report.failures()) or "scenario failed"
        super().__init__(f"scenario {report.scenario} failed: {summary}")
