"""The declarative scenario engine: specs, clock, runner, typed failure."""

from __future__ import annotations

import pytest

from repro.simulation.scenarios import (
    FeeShift,
    PhaseSLO,
    PhaseSpec,
    ReorgProfile,
    RunOptions,
    ScenarioFailure,
    ScenarioReport,
    ScenarioSpec,
    SimulatedClock,
    WorldSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)


#: A minimal spec used across tests: tiny world, two phases, light reorg
#: pressure, the default relaxed detect-stage SLO.
FAST_SPEC = ScenarioSpec(
    name="engine-test",
    description="two-phase smoke spec for the engine tests",
    world=WorldSpec(preset="tiny"),
    phases=(
        PhaseSpec(name="one", fraction=0.5, step_blocks=40),
        PhaseSpec(
            name="two",
            fraction=0.5,
            step_blocks=20,
            reorg=ReorgProfile(probability=0.3, max_depth=4, max_shorten=1),
        ),
    ),
)

#: Options shared by most runs: no wire tier (saves a server per test)
#: and no exception on failure so reports can be inspected directly.
FAST_OPTIONS = dict(wire=False, raise_on_failure=False)


class TestSpecs:
    def test_registry_has_the_contracted_catalogue(self):
        # The acceptance bar is >= 5 registered scenarios.
        names = scenario_names()
        assert len(names) >= 5
        for name in names:
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.phases

    def test_unknown_scenario_lists_catalogue(self):
        with pytest.raises(ValueError, match="registered:"):
            get_scenario("no-such-scenario")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown preset"):
            WorldSpec(preset="galactic")
        with pytest.raises(ValueError, match="unknown SimulationConfig"):
            WorldSpec(overrides=(("no_such_knob", 1),)).build_config()
        with pytest.raises(ValueError, match="unknown WashMix"):
            WorldSpec(wash_mix=(("no_such_mix", 1),)).build_config()
        with pytest.raises(ValueError, match="unknown latency stage"):
            PhaseSLO(stage="teleport")
        with pytest.raises(ValueError, match="at_fraction"):
            FeeShift(venue="OpenSea", fee_bps=50, at_fraction=1.5)
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(
                name="dup",
                description="",
                world=WorldSpec(),
                phases=(
                    PhaseSpec(name="same", fraction=0.5),
                    PhaseSpec(name="same", fraction=0.5),
                ),
            )


class TestSimulatedClock:
    def test_unpaced_clock_never_sleeps(self):
        slept = []
        clock = SimulatedClock(1000, speed=0.0, sleep=slept.append)
        assert not clock.paced
        assert clock.pace(99999) == 0.0
        assert not slept

    def test_paced_clock_sleeps_toward_target(self):
        wall = [100.0]
        slept = []

        def fake_sleep(seconds):
            slept.append(seconds)
            wall[0] += seconds

        clock = SimulatedClock(
            1000, speed=10.0, sleep=fake_sleep, wall=lambda: wall[0]
        )
        # 50 simulated seconds at 10x => 5 wall seconds, capped at 2/call.
        assert clock.pace(1050) == pytest.approx(2.0)
        assert clock.pace(1050) == pytest.approx(2.0)
        assert clock.pace(1050) == pytest.approx(1.0)
        assert clock.pace(1050) == 0.0  # caught up
        assert clock.total_slept == pytest.approx(5.0)
        assert clock.now() == pytest.approx(1050)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock(0, speed=-1)


class TestRunner:
    def test_fast_spec_passes_with_typed_report(self):
        report = run_scenario(FAST_SPEC, RunOptions(**FAST_OPTIONS))
        assert isinstance(report, ScenarioReport)
        assert report.ok
        assert [stats.phase for stats in report.phases] == ["one", "two"]
        assert report.blocks > 0
        assert report.phases[-1].to_block <= report.blocks
        # One verdict per phase SLO (each phase carries the default one).
        assert {verdict.phase for verdict in report.verdicts} == {"one", "two"}
        for verdict in report.verdicts:
            assert verdict.ok
            assert verdict.evaluations > 0
            assert verdict.observed_seconds is not None
        names = [check.name for check in report.parity]
        assert names == ["stream-vs-batch", "serve-vs-batch"]
        assert all(check.ok for check in report.parity)
        assert report.alert_log.endswith(b"\n")
        assert report.funnel_stats_json

    def test_progress_lines_are_emitted(self):
        lines = []
        report = run_scenario(
            FAST_SPEC, RunOptions(progress=lines.append, **FAST_OPTIONS)
        )
        assert report.ok
        joined = "\n".join(lines)
        assert "phase one" in joined and "phase two" in joined

    def test_report_as_dict_is_json_shaped(self):
        import json

        report = run_scenario(
            FAST_SPEC, RunOptions(verify_parity=False, **FAST_OPTIONS)
        )
        payload = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert payload["scenario"] == "engine-test"
        assert payload["ok"] is True
        assert len(payload["phases"]) == 2

    def test_impossible_slo_fails_with_typed_report(self):
        """Satellite: a broken spec produces a report, not a bare assert.

        A 0-second latency bar is below any achievable detect latency,
        so the run must fail -- and the failure must carry per-phase
        verdicts that identify exactly which objective broke and what
        was observed.
        """
        broken = ScenarioSpec(
            name="engine-test-broken-slo",
            description="deliberately unachievable latency bar",
            world=WorldSpec(preset="tiny"),
            phases=(
                PhaseSpec(
                    name="doomed",
                    fraction=1.0,
                    step_blocks=30,
                    slos=(
                        PhaseSLO(stage="detect", threshold_seconds=0.0),
                    ),
                ),
            ),
        )
        with pytest.raises(ScenarioFailure) as excinfo:
            run_scenario(broken, RunOptions(wire=False))
        report = excinfo.value.report
        assert not report.ok
        failed = [v for v in report.verdicts if not v.ok]
        assert failed, "failure must carry the failing verdicts"
        verdict = failed[0]
        assert verdict.phase == "doomed"
        assert verdict.stage == "detect"
        assert verdict.threshold_seconds == 0.0
        assert verdict.observed_seconds is not None
        assert verdict.observed_seconds > 0.0
        assert "[FAIL]" in verdict.render()
        # Parity still holds -- only the latency bar broke.
        assert all(check.ok for check in report.parity)
        assert report.failures()

    def test_raise_on_failure_false_returns_the_report(self):
        broken = ScenarioSpec(
            name="engine-test-broken-slo-no-raise",
            description="unachievable bar, inspected without raising",
            world=WorldSpec(preset="tiny"),
            phases=(
                PhaseSpec(
                    name="doomed",
                    fraction=1.0,
                    step_blocks=30,
                    slos=(
                        PhaseSLO(stage="detect", threshold_seconds=0.0),
                    ),
                ),
            ),
        )
        report = run_scenario(
            broken, RunOptions(wire=False, raise_on_failure=False)
        )
        assert not report.ok
        assert any(not verdict.ok for verdict in report.verdicts)


#: Every registered scenario but the paced soak -- exactly the ones
#: tagged ``fast``, which the scenario gauntlet benchmark runs: each
#: replays unpaced in well under a second.
UNPACED_SCENARIOS = [
    name for name in scenario_names() if "soak" not in get_scenario(name).tags
]


def test_every_unpaced_scenario_runs_in_the_gauntlet():
    """``benchmarks/bench_scenarios.py`` selects by the ``fast`` tag."""
    assert all("fast" in get_scenario(name).tags for name in UNPACED_SCENARIOS)


@pytest.mark.parametrize("name", UNPACED_SCENARIOS)
def test_registered_scenario_agrees_with_the_oracle(name):
    report = run_scenario(
        name,
        RunOptions(speed=0, wire=False, evaluate_slos=False, raise_on_failure=False),
    )
    assert report.ok
    assert [check.name for check in report.parity] == [
        "stream-vs-batch",
        "serve-vs-batch",
    ]
    assert all(check.mismatches == () for check in report.parity)
