"""Pinned digests of the live path.

Three SHA-256 pins over what the streaming stack produces, so a rewrite
of the cursor's staging, journal or rollback cannot change an answer
unnoticed:

* the alert log of the default seed-42 world replayed in 25-block
  ticks, encoded as the scenario runner encodes it;
* the final dataset of that replay (``DatasetCursor.as_dataset()``),
  with ``account_transactions`` sorted by account, under the batch
  dataset digest;
* the alert log of a reorg storm over the tiny world
  (``tests/serve/storm.follow_storm`` with ``random.Random(7)``), which
  pins ``REORG_DETECTED`` depths and the retractions.

Beside them, the scheduler's work counters of the seed-42 replay are
pinned: they are exact, so a change in how much work a tick does shows
even where timing on a noisy host cannot tell it from noise.

If a change is *meant* to alter one of them, recompute it on the new
code and say in the change why it moved.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.ingest.dataset import NFTDataset
from repro.obs.registry import MetricsRegistry
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.scenarios.runner import _encode_alert_log
from repro.stream import AlertKind, StreamingMonitor
from tests.ingest.test_dataset_digest import dataset_digest
from tests.serve.storm import follow_storm

#: SHA-256 of the alert log of the seed-42 replay in 25-block ticks.
REPLAY_ALERT_LOG_DIGEST = (
    "0c4d92a48ebe4691c9aa90dc471f7f697cd5932f02196ebf2b28b17f370ba81e"
)
#: ``dataset_digest`` of that replay's final ``as_dataset()``.
REPLAY_DATASET_DIGEST = (
    "fd5241fefd8dc7b57159da7e43883440842522742bbbd0cc338374007b6d4398"
)
#: Scheduler counters after that replay.  Detector skips count each
#: history-only re-detection's detector runs that could not see the
#: change (common-exit: no member's outgoing flows grew).
REPLAY_WORK_COUNTS = {
    "scheduler_dirty_tokens_total": 8_322,
    "scheduler_redetected_tokens_total": 4_602,
    "scheduler_detector_skips_total": 17_209,
    "scheduler_confirmations_total": 460,
    "scheduler_retractions_total": 237,
}
#: SHA-256 of the alert log of ``follow_storm`` on the tiny world.
FOLLOW_STORM_ALERT_LOG_DIGEST = (
    "08d7900b3117bd77062a7c6c519cb93b00ee59e44987ea1000d31b33ea3c9906"
)


def alert_log_digest(alerts) -> str:
    return hashlib.sha256(_encode_alert_log(alerts)).hexdigest()


def sorted_accounts(dataset: NFTDataset) -> NFTDataset:
    """The dataset with ``account_transactions`` in account order: the
    cursor inserts accounts in first-involvement order, the batch build
    in scan order, and the digest feeds them in dict order."""
    dataset.account_transactions = dict(
        sorted(dataset.account_transactions.items())
    )
    return dataset


@pytest.fixture(scope="module")
def replayed_monitor() -> StreamingMonitor:
    world = build_default_world(SimulationConfig(seed=42))
    monitor = StreamingMonitor.for_world(world, registry=MetricsRegistry())
    monitor.run(step_blocks=25)
    return monitor


def test_replay_alert_log_is_pinned(replayed_monitor):
    assert alert_log_digest(replayed_monitor.alerts) == REPLAY_ALERT_LOG_DIGEST


def test_replay_dataset_is_pinned(replayed_monitor):
    dataset = sorted_accounts(replayed_monitor.cursor.as_dataset())
    assert dataset_digest(dataset) == REPLAY_DATASET_DIGEST


def test_replay_work_counts_are_pinned(replayed_monitor):
    counters = replayed_monitor.registry.snapshot()["counters"]
    assert {name: counters[name] for name in REPLAY_WORK_COUNTS} == REPLAY_WORK_COUNTS


def test_follow_storm_alert_log_is_pinned():
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world)
    assert follow_storm(world, monitor, random.Random(7)) > 0
    assert any(a.kind is AlertKind.REORG_DETECTED for a in monitor.alerts)
    assert any(a.kind is AlertKind.ACTIVITY_RETRACTED for a in monitor.alerts)
    assert alert_log_digest(monitor.alerts) == FOLLOW_STORM_ALERT_LOG_DIGEST
