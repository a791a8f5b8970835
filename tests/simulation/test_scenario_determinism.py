"""Determinism audit: same seed, same bytes, twice in a row.

A scenario run is a pile of moving parts -- world generation, day
hooks, tick boundaries, reorg injection, serving, alert
sequencing -- and every one of them must draw from the seeded RNG
lattice only.  These tests pin the whole composition: two runs with the
same seed must produce byte-identical detection alert logs and funnel
statistics.

SLO evaluation is disabled (``evaluate_slos=False``) for the digest
comparisons: SLO verdicts read *wall-clock* latencies, the one
legitimately non-deterministic input of a run, and a breach would
inject an operator alert whose payload depends on machine speed.  The
detection stream itself is wall-clock-free.
"""

from __future__ import annotations

from repro.simulation.scenarios import (
    PhaseSpec,
    ReorgProfile,
    RunOptions,
    ScenarioSpec,
    WorldSpec,
    run_scenario,
)

#: Reorg pressure makes this the strongest determinism probe: dropped
#: and delayed evidence, rollbacks and re-ingest all have to replay
#: identically from the seeded stream.
STORM_SPEC = ScenarioSpec(
    name="determinism-storm",
    description="reorg-heavy spec for the determinism audit",
    world=WorldSpec(preset="tiny"),
    phases=(
        PhaseSpec(name="calm", fraction=0.4, step_blocks=35),
        PhaseSpec(
            name="storm",
            fraction=0.6,
            step_blocks=10,
            reorg=ReorgProfile(
                probability=0.4,
                max_depth=5,
                drop_probability=0.3,
                delay_probability=0.25,
                max_shorten=1,
            ),
        ),
    ),
)


def _digest_options():
    return RunOptions(wire=False, evaluate_slos=False, seed=1234)


def test_same_seed_runs_are_byte_identical():
    first = run_scenario(STORM_SPEC, _digest_options())
    second = run_scenario(STORM_SPEC, _digest_options())
    assert first.alert_log, "the storm spec must produce alerts"
    assert first.alert_log == second.alert_log
    assert first.funnel_stats_json == second.funnel_stats_json
    # The structural outcome matches too, not just the digests.
    assert [vars(stats) | {"wall_seconds": 0} for stats in first.phases] == [
        vars(stats) | {"wall_seconds": 0} for stats in second.phases
    ]


def test_different_seed_changes_the_world():
    baseline = run_scenario(STORM_SPEC, _digest_options())
    other = run_scenario(
        STORM_SPEC, RunOptions(wire=False, evaluate_slos=False, seed=4321)
    )
    assert baseline.alert_log != other.alert_log


def test_slo_engines_do_not_perturb_detection():
    """Arming SLOs adds observation, never behaviour.

    With generous bars nothing breaches, so the detection alert log must
    be byte-identical with and without the engines attached (the log
    already excludes operator SLO_BREACH alerts by construction).
    """
    unarmed = run_scenario(STORM_SPEC, _digest_options())
    armed = run_scenario(
        STORM_SPEC, RunOptions(wire=False, evaluate_slos=True, seed=1234)
    )
    assert unarmed.alert_log == armed.alert_log
    assert unarmed.funnel_stats_json == armed.funnel_stats_json
