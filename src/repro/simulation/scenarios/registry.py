"""The scenario registry and the built-in adversarial catalogue.

Each entry is a frozen :class:`~repro.simulation.scenarios.spec.ScenarioSpec`
keyed by name; ``python -m repro scenario NAME`` resolves here, and
tests/benchmarks iterate :func:`scenario_names` to run the standing
gauntlet.  Register project-specific specs with :func:`register` --
duplicate names are rejected so a catalogue entry can never be silently
shadowed.

The built-ins cover the adversarial regimes the paper (La Morgia et
al., ICDCS 2023) and the follow-up marketplace studies single out:
reward-farming waves around incentive shifts, fee-regime changes,
reorg storms under traffic spikes, multi-venue serial traders, and
ERC-1155 batch tokenization churn that detection must ignore.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simulation.scenarios.spec import (
    FeeShift,
    PhaseSLO,
    PhaseSpec,
    ReorgProfile,
    ScenarioSpec,
    TokenizationWave,
    WorldSpec,
)

__all__ = ["SCENARIOS", "register", "get_scenario", "scenario_names"]

SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the registry; returns it (decorator-friendly)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; unknown names list the catalogue."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names()) or "<none>"
        raise ValueError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


#: A relaxed default latency bar: the detect stage (tick start to alert
#: publish) is pure compute and lands in milliseconds on any machine;
#: the 5s bar exists to catch pathological regressions, not to flake CI.
_DETECT_BAR = PhaseSLO(stage="detect", threshold_seconds=5.0)


register(
    ScenarioSpec(
        name="reward-wave",
        description=(
            "Reward-farming waves around a marketplace incentive shift: "
            "LooksRare zeroes its fee mid-history, farms pile in, the fee "
            "snaps back"
        ),
        world=WorldSpec(
            preset="tiny",
            wash_mix=(
                ("looksrare_reward_farms", 6),
                ("rarible_reward_farms", 4),
            ),
            fee_shifts=(
                FeeShift(venue="LooksRare", fee_bps=0, at_fraction=0.35),
                FeeShift(venue="LooksRare", fee_bps=200, at_fraction=0.75),
            ),
        ),
        phases=(
            PhaseSpec(name="warmup", fraction=0.35, step_blocks=30),
            PhaseSpec(name="farm-wave", fraction=0.40, step_blocks=12),
            PhaseSpec(name="settle", fraction=0.25, step_blocks=30),
        ),
        tags=("fast", "fees", "farming"),
    )
)

register(
    ScenarioSpec(
        name="fee-regime-shift",
        description=(
            "Marketplace fee-regime changes mid-history: OpenSea slashes "
            "fees, Foundation abandons its prohibitive 15% -- detection "
            "must stay batch-identical across both regimes"
        ),
        world=WorldSpec(
            preset="tiny",
            fee_shifts=(
                FeeShift(venue="OpenSea", fee_bps=50, at_fraction=0.33),
                FeeShift(venue="Foundation", fee_bps=150, at_fraction=0.66),
            ),
        ),
        phases=(
            PhaseSpec(name="old-regime", fraction=0.33, step_blocks=25),
            PhaseSpec(name="transition", fraction=0.34, step_blocks=25),
            PhaseSpec(name="new-regime", fraction=0.33, step_blocks=25),
        ),
        tags=("fast", "fees"),
    )
)

register(
    ScenarioSpec(
        name="reorg-storm-rush",
        description=(
            "A reorg storm under a traffic spike: tight ticks while the "
            "chain tail is repeatedly orphaned, shortened and re-mined "
            "with dropped/delayed wash evidence"
        ),
        world=WorldSpec(preset="tiny"),
        phases=(
            PhaseSpec(name="calm", fraction=0.35, step_blocks=40),
            PhaseSpec(
                name="storm",
                fraction=0.40,
                step_blocks=8,
                reorg=ReorgProfile(
                    probability=0.45,
                    max_depth=6,
                    drop_probability=0.3,
                    delay_probability=0.25,
                    max_shorten=1,
                ),
            ),
            PhaseSpec(name="recovery", fraction=0.25, step_blocks=25),
        ),
        tags=("fast", "reorg"),
    )
)

register(
    ScenarioSpec(
        name="serial-multi-venue",
        description=(
            "A professional serial-trader pool washing across every venue "
            "at once -- the paper's cross-marketplace operator profile, "
            "concentrated"
        ),
        world=WorldSpec(
            preset="tiny",
            overrides=(
                ("serial_pool_probability", 0.95),
                ("serial_pool_size", 8),
            ),
            wash_mix=(
                ("superrare_washes", 3),
                ("decentraland_washes", 3),
                ("opensea_small_washes", 6),
                ("offmarket_p2p_washes", 5),
            ),
        ),
        phases=(
            PhaseSpec(name="ramp", fraction=0.5, step_blocks=25),
            PhaseSpec(name="crescendo", fraction=0.5, step_blocks=15),
        ),
        tags=("fast", "serial", "multi-venue"),
    )
)

register(
    ScenarioSpec(
        name="tokenization-churn",
        description=(
            "ERC-1155 batch mint/burn tokenization waves (game-item "
            "tokenizer style) churning beside the market -- TransferBatch "
            "volume the ERC-721 scan must not pick up"
        ),
        world=WorldSpec(
            preset="tiny",
            tokenization=TokenizationWave(
                holders=4,
                token_kinds=6,
                max_units=30,
                batches_per_day=3,
                start_fraction=0.15,
                end_fraction=0.85,
            ),
        ),
        phases=(
            PhaseSpec(name="quiet", fraction=0.4, step_blocks=30),
            PhaseSpec(name="churn", fraction=0.6, step_blocks=20),
        ),
        tags=("fast", "erc1155"),
    )
)

register(
    ScenarioSpec(
        name="day-in-the-life",
        description=(
            "The full soak: a compressed day in the life of the live "
            "stack -- quiet ingest, a traffic rush, a reorg storm, "
            "wind-down -- with a fee shift and an ERC-1155 wave staged "
            "into the world, end-to-end SLOs armed"
        ),
        world=WorldSpec(
            preset="tiny",
            fee_shifts=(
                FeeShift(venue="LooksRare", fee_bps=0, at_fraction=0.3),
            ),
            tokenization=TokenizationWave(
                holders=3,
                token_kinds=5,
                max_units=25,
                batches_per_day=2,
                start_fraction=0.25,
                end_fraction=0.75,
            ),
        ),
        phases=(
            PhaseSpec(name="overnight", fraction=0.25, step_blocks=40),
            PhaseSpec(
                name="rush",
                fraction=0.30,
                step_blocks=10,
                slos=(
                    _DETECT_BAR,
                    PhaseSLO(
                        stage="total",
                        threshold_seconds=30.0,
                        window=16,
                        budget=0.5,
                    ),
                ),
            ),
            PhaseSpec(
                name="storm",
                fraction=0.25,
                step_blocks=12,
                reorg=ReorgProfile(probability=0.4, max_depth=5, max_shorten=1),
            ),
            PhaseSpec(name="wind-down", fraction=0.20, step_blocks=30),
        ),
        #: ~2.6M simulated seconds (30 days) replay in about 10s of wall
        #: pacing at this speed; CI raises --speed further.
        default_speed=250_000.0,
        tags=("soak",),
    )
)
