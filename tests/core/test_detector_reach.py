"""Each detector's declared history reach is sound.

``Detector.history_may_change(component, change)`` lets the live
scheduler skip a detector when the members' transaction histories
changed only at timestamps ``>= change.since_ts``, and (for common
exit) when no member's outgoing flows grew.  These tests insert a
synthetic value transfer -- one that would fund two members from a
fresh account and, in one variant, send both to a fresh exit -- into
the members' histories at exactly ``since_ts``, on both sides of and
at the component's first and last timestamps, and check that every
detector declaring the change out of reach answers identically.
"""

from __future__ import annotations

from bisect import bisect_right

import pytest

from repro.chain.transaction import Receipt, Transaction
from repro.chain.types import ValueTransfer
from repro.core.activity import DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange
from repro.core.detectors.pipeline import WashTradingPipeline, build_detectors
from repro.engine.executor import TransactionView
from repro.ingest.dataset import build_dataset

FUNDER = "0x" + "fund" * 10
EXIT = "0x" + "e417" * 10
ALL_DETECTORS = build_detectors(list(DetectionMethod))
#: Detectors that read members' histories; the others read none.
HISTORY_READERS = {"zero-risk", "common-funder", "common-exit"}


@pytest.fixture(scope="module")
def tiny_candidates(tiny_world):
    dataset = build_dataset(tiny_world.node, tiny_world.marketplace_addresses)
    result = WashTradingPipeline(
        labels=tiny_world.labels,
        is_contract=tiny_world.is_contract,
        engine="columnar",
    ).run(dataset)
    assert result.activity_count > 0
    return tiny_world, dataset, result.refinement.candidates


def context_over(world, histories) -> DetectionContext:
    return DetectionContext(
        dataset=TransactionView(histories),
        labels=world.labels,
        is_contract=world.is_contract,
    )


def synthetic_transfer(members, timestamp: int, exits: bool = True) -> Transaction:
    """Funding from a fresh account into (up to) two members, and with
    ``exits`` both members paying a fresh exit, in one pure
    value-transfer transaction.  Its block number only orders
    zero-risk's window, whose sum ignores order."""
    pair = sorted(members)[:2]
    movements = tuple(ValueTransfer(FUNDER, member, 10**20) for member in pair)
    if exits:
        movements += tuple(ValueTransfer(member, EXIT, 10**20) for member in pair)
    tx_hash = f"0xsynthetic{timestamp}"
    return Transaction(
        hash=tx_hash,
        block_number=0,
        timestamp=timestamp,
        sender=FUNDER,
        to=pair[0],
        value_wei=10**20,
        gas_used=21_000,
        gas_price_wei=1,
        receipt=Receipt(
            transaction_hash=tx_hash,
            status=1,
            gas_used=21_000,
            value_transfers=movements,
        ),
    )


def with_inserted(histories, members, tx: Transaction):
    """Copies of ``histories`` with ``tx`` placed in each member's list
    in timestamp order (after every transaction at the same timestamp)."""
    changed = dict(histories)
    for member in members:
        transactions = list(histories.get(member, []))
        position = bisect_right([item.timestamp for item in transactions], tx.timestamp)
        transactions.insert(position, tx)
        changed[member] = transactions
    return changed


def since_values(component):
    first, last = component.first_timestamp, component.last_timestamp
    return sorted({first - 1, first, first + 1, last - 1, last, last + 1})


def test_every_detector_declares_a_reach():
    assert {detector.name for detector in ALL_DETECTORS} == {
        method.value for method in DetectionMethod if method is not DetectionMethod.REPEATED_SCC
    }
    for detector in ALL_DETECTORS:
        assert detector.method.value == detector.name


def test_out_of_reach_changes_leave_every_detector_unchanged(tiny_candidates):
    world, dataset, candidates = tiny_candidates
    histories = dataset.account_transactions
    base = context_over(world, histories)
    compared = {detector.name: 0 for detector in ALL_DETECTORS}
    seen_by = {name: 0 for name in HISTORY_READERS}
    for component in candidates:
        before = {
            detector.name: detector.detect(component, base) for detector in ALL_DETECTORS
        }
        for since_ts in since_values(component):
            for exits in (True, False):
                tx = synthetic_transfer(component.accounts, since_ts, exits)
                changed = context_over(
                    world, with_inserted(histories, component.accounts, tx)
                )
                grew = any(
                    changed.outgoing_flows(member) != base.outgoing_flows(member)
                    for member in component.accounts
                )
                assert grew is exits
                change = HistoryChange(since_ts, grew)
                for detector in ALL_DETECTORS:
                    after = detector.detect(component, changed)
                    if detector.history_may_change(component, change):
                        if after != before[detector.name]:
                            seen_by[detector.name] += 1
                        continue
                    assert after == before[detector.name], (detector.name, change)
                    compared[detector.name] += 1
    # Every detector was held to its reach somewhere, and the synthetic
    # transfer is visible to each history reader inside its reach, so
    # the comparisons above are not vacuous.
    assert all(compared.values()), compared
    assert all(seen_by.values()), seen_by


@pytest.mark.parametrize(
    "offset, expected",
    [
        (-1, {"zero-risk": True, "common-funder": True}),
        (0, {"zero-risk": True, "common-funder": False}),
        (1, {"zero-risk": True, "common-funder": False}),
    ],
    ids=["before-first", "at-first", "after-first"],
)
def test_reach_boundaries_at_first_timestamp(tiny_candidates, offset, expected):
    _, _, candidates = tiny_candidates
    component = next(c for c in candidates if c.last_timestamp > c.first_timestamp + 1)
    since_ts = component.first_timestamp + offset
    for grew in (True, False):
        change = HistoryChange(since_ts, grew)
        reach = {d.name: d.history_may_change(component, change) for d in ALL_DETECTORS}
        assert reach == {
            **expected,
            "common-exit": grew,
            "self-trade": False,
            "volume-match": False,
        }


@pytest.mark.parametrize(
    "offset, zero_risk",
    [(-1, True), (0, True), (1, False)],
    ids=["before-last", "at-last", "after-last"],
)
def test_reach_boundaries_at_last_timestamp(tiny_candidates, offset, zero_risk):
    _, _, candidates = tiny_candidates
    component = next(c for c in candidates if c.last_timestamp > c.first_timestamp + 1)
    since_ts = component.last_timestamp + offset
    for grew in (True, False):
        change = HistoryChange(since_ts, grew)
        reach = {d.name: d.history_may_change(component, change) for d in ALL_DETECTORS}
        assert reach == {
            "zero-risk": zero_risk,
            "common-funder": False,
            "common-exit": grew,
            "self-trade": False,
            "volume-match": False,
        }
