"""Held evidence is never stale.

A live tick re-runs a held candidate's detectors only when its members'
histories changed in a way the detector reads (its history window, or
for common exit a member's outgoing flows), and keeps a candidate-free
token's state without re-detecting it.  These tests check the result
of those skips directly: after every tick of a reorg-storm follow and of
a fine-grained replay, every held candidate's evidence equals the
evidence a plain, non-caching :class:`DetectionContext` over the
cursor's dataset gives from scratch.
"""

from __future__ import annotations

import random

import pytest

from repro.core.detectors.base import DetectionContext
from repro.core.detectors.pipeline import collect_evidence
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.stream import StreamingMonitor
from tests.serve.storm import CheckedMonitor, follow_storm


def assert_evidence_fresh(monitor: StreamingMonitor) -> int:
    """Compare every held candidate's evidence with a from-scratch run;
    returns how many candidates were compared."""
    scheduler = monitor.scheduler
    live = monitor.context
    plain = DetectionContext(
        dataset=monitor.cursor.as_dataset(),
        labels=live.labels,
        is_contract=live.is_contract,
        config=live.config,
    )
    compared = 0
    for nft, state in scheduler.states.items():
        for component, held in zip(state.candidates, state.evidence):
            fresh = collect_evidence(scheduler.detectors, component, plain)
            assert held == fresh, (monitor.processed_block, nft, sorted(component.accounts))
            compared += 1
    return compared


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_follow_storm_keeps_held_evidence_fresh(seed):
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world)
    compared = []
    checked = CheckedMonitor(monitor, lambda: compared.append(assert_evidence_fresh(monitor)))

    assert follow_storm(world, checked, random.Random(seed)) > 0
    assert len(compared) > 10 and max(compared) > 0


def test_fine_replay_keeps_held_evidence_fresh():
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world)
    compared = []
    while monitor.processed_block < world.node.block_number:
        monitor.advance(min(world.node.block_number, monitor.processed_block + 5))
        compared.append(assert_evidence_fresh(monitor))

    assert len(compared) > 10 and max(compared) > 0
