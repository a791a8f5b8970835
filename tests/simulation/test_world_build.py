"""The world build and the cyclic garbage collector.

``WorldBuilder.build`` pauses the collector while the history runs and,
for a caller that had it on, ends with one full collection.  These tests
read the per-generation collection counts around a build.
"""

from __future__ import annotations

import gc
from typing import List

import pytest

from repro.simulation.builder import WorldBuilder
from repro.simulation.config import SimulationConfig


def collections() -> List[int]:
    return [stats["collections"] for stats in gc.get_stats()]


def added(before: List[int], after: List[int]) -> List[int]:
    return [late - early for early, late in zip(before, after)]


@pytest.fixture()
def collector_state():
    """Put the caller's collector setting back whatever a test does."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_build_runs_one_full_collection_when_the_collector_is_on(collector_state):
    gc.enable()
    gc.collect()  # start from empty young generations
    before = collections()
    world = WorldBuilder(SimulationConfig.tiny()).build()
    after = collections()
    assert world.chain.transaction_count() > 0
    assert added(before, after) == [0, 0, 1]
    assert gc.isenabled()


def test_build_leaves_a_disabled_collector_alone(collector_state):
    gc.disable()
    before = collections()
    WorldBuilder(SimulationConfig.tiny()).build()
    after = collections()
    assert added(before, after) == [0, 0, 0]
    assert not gc.isenabled()


class HookFailed(Exception):
    pass


def failing_hook(context) -> None:
    raise HookFailed(f"day {context.day}")


@pytest.mark.parametrize("enabled", [True, False])
def test_a_raising_build_restores_the_callers_setting(collector_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    builder = WorldBuilder(SimulationConfig.tiny(), day_hooks=[(2, failing_hook)])
    with pytest.raises(HookFailed):
        builder.build()
    assert gc.isenabled() is enabled
