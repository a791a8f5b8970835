"""Scenario gauntlet throughput -- the live stack under adversarial replay.

Runs the fast registered scenarios end to end (ingest + serving + parity
battery, wire tier off to keep the timing about the stack rather than
socket setup) and reports wall time and block throughput per scenario.
This is the standing answer to "how expensive is a scenario run" --
CI's scenario-smoke job budget is calibrated against these numbers.

Usage:

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_rows
from repro.simulation.scenarios import (
    RunOptions,
    get_scenario,
    run_scenario,
    scenario_names,
)


def gauntlet_names():
    """The quick subset: every registered scenario tagged ``fast``."""
    return [
        name for name in scenario_names() if "fast" in get_scenario(name).tags
    ]


def test_fast_scenario_gauntlet(benchmark):
    names = gauntlet_names()
    assert names, "the registry must tag at least one scenario 'fast'"

    def run_gauntlet():
        return [
            run_scenario(name, RunOptions(wire=False)) for name in names
        ]

    reports = benchmark.pedantic(run_gauntlet, rounds=1, iterations=1)

    rows = []
    for report in reports:
        assert report.ok, f"{report.scenario} failed inside the benchmark"
        rate = report.blocks / report.wall_seconds if report.wall_seconds else 0.0
        rows.append(
            (
                report.scenario,
                report.blocks,
                len(report.phases),
                sum(stats.alerts for stats in report.phases),
                sum(stats.reorgs for stats in report.phases),
                f"{report.wall_seconds:.2f}",
                f"{rate:,.0f}",
            )
        )
    print_rows(
        "Scenario gauntlet (wire off, parity on)",
        ["scenario", "blocks", "phases", "alerts", "reorgs", "wall s", "blocks/s"],
        rows,
    )


def test_soak_accelerated_clock(benchmark):
    """The day-in-the-life soak, paced hard enough for a CI smoke slot."""
    spec = get_scenario("day-in-the-life")

    def run_soak():
        return run_scenario(
            spec, RunOptions(speed=2_000_000, wire=True)
        )

    report = benchmark.pedantic(run_soak, rounds=1, iterations=1)
    assert report.ok
    print_rows(
        "Accelerated soak (speed 2,000,000, wire on)",
        ["scenario", "blocks", "wire alerts", "wall s"],
        [
            (
                report.scenario,
                report.blocks,
                report.delivered_wire_alerts,
                f"{report.wall_seconds:.2f}",
            )
        ],
    )
