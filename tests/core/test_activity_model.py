"""Unit tests for the candidate/activity data model."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from tests.core.test_characterization import make_component


class TestCandidateComponent:
    def test_volume_and_counts(self):
        component = make_component([("A", "B"), ("B", "A")], price=10)
        assert component.volume_wei == 20
        assert component.account_count == 2
        assert component.transfer_count == 2
        assert not component.is_zero_volume

    def test_zero_volume_flag(self):
        component = make_component([("A", "B"), ("B", "A")], price=0)
        assert component.is_zero_volume

    def test_lifetime_and_timestamps(self):
        component = make_component([("A", "B"), ("B", "A"), ("A", "B")], base_ts=1000)
        assert component.first_timestamp == 1000
        assert component.last_timestamp == 1000 + 2 * 3600
        assert component.lifetime_seconds == 2 * 3600

    def test_cached_timestamps_are_the_min_and_max_over_transfers(self):
        ordered = make_component([("A", "B"), ("B", "C"), ("C", "A"), ("A", "C")], base_ts=500)
        # Components need not list transfers in time order.
        shuffled = ordered.transfers[2:] + ordered.transfers[:2]
        component = CandidateComponent(
            nft=ordered.nft, accounts=ordered.accounts, transfers=shuffled
        )
        for _ in range(2):
            assert component.first_timestamp == min(t.timestamp for t in shuffled)
            assert component.last_timestamp == max(t.timestamp for t in shuffled)
        assert component.lifetime_seconds == 3 * 3600

    def test_cached_timestamps_do_not_change_identity(self):
        component = make_component([("A", "B"), ("B", "A")], base_ts=1000)
        fresh = make_component([("A", "B"), ("B", "A")], base_ts=1000)
        assert component.last_timestamp == 1000 + 3600
        assert component == fresh and hash(component) == hash(fresh)
        for copied in (copy.deepcopy(component), pickle.loads(pickle.dumps(component))):
            assert copied == component
            assert copied.first_timestamp == 1000
            assert copied.last_timestamp == 1000 + 3600

    def test_self_loop_detection(self):
        assert make_component([("A", "A")]).has_self_loop()
        assert not make_component([("A", "B"), ("B", "A")]).has_self_loop()

    def test_tx_hashes_are_distinct(self):
        component = make_component([("A", "B"), ("B", "A")])
        assert len(component.tx_hashes) == 2

    def test_dominant_marketplace_none_for_offmarket(self):
        assert make_component([("A", "B"), ("B", "A")]).dominant_marketplace() is None


class TestWashTradingActivity:
    def test_methods_and_evidence_lookup(self):
        activity = WashTradingActivity(
            component=make_component([("A", "B"), ("B", "A")]),
            evidence=[
                DetectionEvidence(method=DetectionMethod.COMMON_FUNDER, details={"kind": "external"}),
                DetectionEvidence(method=DetectionMethod.COMMON_EXIT),
            ],
        )
        assert activity.methods == {DetectionMethod.COMMON_FUNDER, DetectionMethod.COMMON_EXIT}
        assert activity.detected_by(DetectionMethod.COMMON_FUNDER)
        assert not activity.detected_by(DetectionMethod.ZERO_RISK)
        assert activity.evidence_for(DetectionMethod.COMMON_FUNDER).details["kind"] == "external"
        assert activity.evidence_for(DetectionMethod.SELF_TRADE) is None

    def test_activity_delegates_to_component(self):
        component = make_component([("A", "B"), ("B", "A")], price=7)
        activity = WashTradingActivity(component=component, evidence=[])
        assert activity.volume_wei == component.volume_wei
        assert activity.accounts == component.accounts
        assert activity.nft == component.nft
        assert activity.lifetime_seconds == component.lifetime_seconds

    def test_transaction_analysis_methods_constant(self):
        methods = DetectionMethod.transaction_analysis_methods()
        assert set(methods) == {
            DetectionMethod.ZERO_RISK,
            DetectionMethod.COMMON_FUNDER,
            DetectionMethod.COMMON_EXIT,
        }
