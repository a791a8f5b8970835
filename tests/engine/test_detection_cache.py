"""The money-flow cache stays exact across history changes.

:class:`CachingDetectionContext` is the detection context of the
columnar engine and of the streaming scheduler, so its answers are
pinned here against the uncached base :class:`DetectionContext`, the
one the legacy oracle reads.

A :class:`CachingDetectionContext` held across ticks is told, per
changed account, whether its transaction list only grew at the end (a
timestamp) or may have changed anywhere (``None``).  After
:meth:`~CachingDetectionContext.refresh`, every answer must equal the
uncached base context over the changed lists.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.detectors.base import DetectionContext
from repro.engine.executor import TransactionView
from repro.engine.context import CachingDetectionContext
from repro.ingest.dataset import build_dataset


@pytest.fixture(scope="module")
def histories(tiny_world):
    dataset = build_dataset(tiny_world.node, tiny_world.marketplace_addresses)
    busy = sorted(
        dataset.account_transactions,
        key=lambda account: (-len(dataset.account_transactions[account]), account),
    )[:12]
    return tiny_world, {account: dataset.account_transactions[account] for account in busy}


def contexts(world, lists):
    base = DetectionContext(
        dataset=TransactionView(lists), labels=world.labels, is_contract=world.is_contract
    )
    return base, CachingDetectionContext(base)


def answers(context, lists):
    """Every cached query, at a spread of cut-off timestamps."""
    out = []
    for account, transactions in lists.items():
        stamps = sorted({tx.timestamp for tx in transactions})
        cuts = [None] + stamps[:: max(1, len(stamps) // 5)] + [stamps[-1] + 1]
        for cut in cuts:
            for pure in (True, False):
                out.append(context.incoming_flows(account, cut, pure))
                out.append(context.outgoing_flows(account, cut, pure))
        for low in stamps[:: max(1, len(stamps) // 4)]:
            out.append(context.transactions_in_window([account], low, low + 86_400))
    every = [tx.timestamp for transactions in lists.values() for tx in transactions]
    out.append(context.transactions_in_window(list(lists), min(every), max(every)))
    return out


def test_refresh_folds_appends_and_drops_rewrites(histories):
    world, full = histories
    lists = {
        account: list(transactions[: len(transactions) // 2])
        for account, transactions in full.items()
    }
    base, cache = contexts(world, lists)
    assert answers(cache, lists) == answers(base, lists)

    changes = {}
    for index, (account, transactions) in enumerate(full.items()):
        suffix = transactions[len(lists[account]) :]
        if index % 3 == 2:
            # Rewritten: truncated, then regrown differently.
            del lists[account][len(lists[account]) // 2 :]
            lists[account].extend(suffix)
            changes[account] = None
        elif suffix:
            lists[account].extend(suffix)
            changes[account] = min(tx.timestamp for tx in suffix)
    cache.refresh(changes)
    assert answers(cache, lists) == answers(base, lists)
    assert answers(cache, lists) == answers(contexts(world, lists)[1], lists)

    # An appended transaction older than the list's tail: the cached
    # window must stop bisecting, exactly as a rebuild would.
    account = next(iter(full))
    early = lists[account][0]
    lists[account].append(dataclasses.replace(early, hash=early.hash + "-late"))
    cache.refresh({account: early.timestamp})
    assert answers(cache, lists) == answers(base, lists)


def test_forget_drops_only_the_named_accounts(histories):
    world, full = histories
    lists = {account: list(transactions) for account, transactions in full.items()}
    base, cache = contexts(world, lists)
    answers(cache, lists)
    first, *rest = lists
    cache.forget([first])
    assert first not in cache._entries
    assert set(rest) <= set(cache._entries)
    assert answers(cache, lists) == answers(base, lists)


#: Runs with numpy unimportable: the cache must not depend on it.
NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.modules["numpy"] = None

    from repro.core.detectors.pipeline import WashTradingPipeline
    from repro.ingest.dataset import build_dataset
    from repro.serve.parity import activity_fingerprint
    from repro.simulation.builder import build_default_world
    from repro.simulation.config import SimulationConfig
    from repro.stream import StreamingMonitor

    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world)
    monitor.run(step_blocks=25)
    cache = monitor.scheduler._cache
    dataset = build_dataset(world.node, world.marketplace_addresses)

    def answer(engine):
        result = WashTradingPipeline(
            labels=world.labels, is_contract=world.is_contract, engine=engine
        ).run(dataset)
        return (
            result.refinement.stages,
            sorted(map(activity_fingerprint, result.activities)),
        )

    legacy = answer("legacy")
    print(json.dumps({
        "cached_accounts": 0 if cache is None else len(cache._entries),
        "columnar_equals_legacy": answer("columnar") == legacy,
        "activities": len(legacy[1]),
    }))
    """
)


def test_live_and_batch_keep_the_cache_without_numpy():
    """With numpy blocked, a monitor still detects through a non-empty
    money-flow cache and the columnar engine still equals legacy."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["cached_accounts"] > 0
    assert report["columnar_equals_legacy"]
    assert report["activities"] > 0
