"""Unit proofs for the sliding-window volume-matching detector.

The detector confirms a candidate component when some hour/day/week
window contains >= ``volume_match_min_transfers`` transfers, every
involved account's net NFT position over the window is zero, and paid
volume was generated inside it.  Windows are tried smallest-first and
the earliest match of the smallest matching size wins, so the evidence
is deterministic across batch and streaming execution.
"""

from __future__ import annotations

import pytest

from repro.chain.types import NFTKey
from repro.core.activity import CandidateComponent, DetectionMethod
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.volume_match import VolumeMatchDetector
from repro.engine.executor import TransactionView
from repro.ingest.records import NFTTransfer
from repro.services.labels import LabelRegistry

NFT = NFTKey(contract="0x" + "c" * 40, token_id=7)

HOUR = 3600
DAY = 86400
WEEK = 604800

ETH = 10**18


def make_transfer(sender, recipient, ts, price, tag):
    return NFTTransfer(
        nft=NFT,
        sender=sender,
        recipient=recipient,
        tx_hash=f"0xhash{tag}",
        block_number=ts,
        timestamp=ts,
        price_wei=price,
        gas_fee_wei=10,
        tx_sender=sender,
    )


def component(rows):
    """A candidate component from (sender, recipient, ts, price) rows."""
    transfers = tuple(
        make_transfer(sender, recipient, ts, price, tag)
        for tag, (sender, recipient, ts, price) in enumerate(rows)
    )
    accounts = frozenset(t.sender for t in transfers) | frozenset(
        t.recipient for t in transfers
    )
    return CandidateComponent(nft=NFT, accounts=accounts, transfers=transfers)


def make_context(config=None):
    return DetectionContext(
        dataset=TransactionView({}),
        labels=LabelRegistry(),
        is_contract=lambda address: False,
        config=config or DetectionConfig(),
    )


def detect(rows, config=None):
    return VolumeMatchDetector().detect(component(rows), make_context(config))


def test_paid_round_trip_within_an_hour_matches():
    evidence = detect([("0xa", "0xb", 0, ETH), ("0xb", "0xa", 100, ETH)])
    assert evidence is not None
    assert evidence.method is DetectionMethod.VOLUME_MATCH
    assert evidence.details["window_seconds"] == HOUR
    assert evidence.details["start_timestamp"] == 0
    assert evidence.details["end_timestamp"] == 100
    assert evidence.details["transfer_count"] == 2
    assert evidence.details["volume_wei"] == 2 * ETH
    assert evidence.details["accounts"] == ["0xa", "0xb"]


def test_one_way_flow_never_balances():
    assert detect([("0xa", "0xb", 0, ETH), ("0xa", "0xb", 100, ETH)]) is None


def test_unpaid_round_trip_is_not_volume():
    assert detect([("0xa", "0xb", 0, 0), ("0xb", "0xa", 100, 0)]) is None


def test_wider_windows_catch_slower_round_trips():
    evidence = detect([("0xa", "0xb", 0, ETH), ("0xb", "0xa", 2 * DAY, ETH)])
    assert evidence is not None
    assert evidence.details["window_seconds"] == WEEK


def test_round_trip_slower_than_a_week_never_matches():
    assert detect([("0xa", "0xb", 0, ETH), ("0xb", "0xa", 2 * WEEK, ETH)]) is None


def test_balanced_cycle_through_three_accounts_matches():
    evidence = detect(
        [
            ("0xa", "0xb", 0, ETH),
            ("0xb", "0xc", 50, 0),
            ("0xc", "0xa", 100, ETH),
        ]
    )
    assert evidence is not None
    assert evidence.details["accounts"] == ["0xa", "0xb", "0xc"]
    assert evidence.details["transfer_count"] == 3


def test_min_transfers_is_respected():
    config = DetectionConfig(volume_match_min_transfers=3)
    assert detect([("0xa", "0xb", 0, ETH), ("0xb", "0xa", 10, ETH)], config) is None
    evidence = detect(
        [
            ("0xa", "0xb", 0, ETH),
            ("0xb", "0xc", 10, ETH),
            ("0xc", "0xa", 20, ETH),
        ],
        config,
    )
    assert evidence is not None


def test_too_few_transfers_overall_short_circuits():
    assert detect([("0xa", "0xa", 0, ETH)]) is None


def test_self_transfers_are_trivially_balanced():
    evidence = detect([("0xa", "0xa", 0, ETH), ("0xa", "0xa", 10, ETH)])
    assert evidence is not None
    assert evidence.details["accounts"] == ["0xa"]


def test_earliest_smallest_window_wins():
    """Two disjoint balanced bursts: the first, hour-sized one is reported
    even though the whole history also balances over a day."""
    evidence = detect(
        [
            ("0xa", "0xb", 0, ETH),
            ("0xb", "0xa", 100, ETH),
            ("0xa", "0xb", 50000, ETH),
            ("0xb", "0xa", 50100, ETH),
        ]
    )
    assert evidence is not None
    assert evidence.details["window_seconds"] == HOUR
    assert evidence.details["start_timestamp"] == 0
    assert evidence.details["end_timestamp"] == 100


def test_window_eviction_unbalances_split_round_trips():
    """A buy whose matching sell falls outside every window never
    balances: the middle transfer strands each window with an open
    position."""
    assert (
        detect(
            [
                ("0xa", "0xb", 0, ETH),
                ("0xb", "0xa", WEEK + 10, ETH),
                ("0xa", "0xb", 2 * WEEK + 20, ETH),
            ]
        )
        is None
    )


def test_custom_windows_are_honored():
    config = DetectionConfig(volume_match_windows=(60,))
    assert detect([("0xa", "0xb", 0, ETH), ("0xb", "0xa", 100, ETH)], config) is None
    evidence = detect(
        [("0xa", "0xb", 0, ETH), ("0xb", "0xa", 30, ETH)], config
    )
    assert evidence is not None
    assert evidence.details["window_seconds"] == 60
