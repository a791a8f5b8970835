"""(i) Zero-risk position.

Wash trading is by definition a zero-risk manipulation: the colluding
group ends the operation with (essentially) the same aggregate balance
it started with, because the money only circulated among its members.
The detector computes the group's net ETH flow across every transaction
involving a member during the activity window and confirms the component
if that net is zero up to a small tolerance, factoring out gas fees (gas
never appears as a value transfer, so it is excluded by construction).

Marketplace fees are *not* factored out -- a group trading through a
venue leaks the fee on every trade -- which keeps the zero-risk class
small relative to common-funder / common-exit, as in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange


class ZeroRiskDetector:
    """Confirms components whose aggregate ETH position is unchanged."""

    name = "zero-risk"
    method = DetectionMethod.ZERO_RISK

    @staticmethod
    def history_may_change(component: CandidateComponent, change: HistoryChange) -> bool:
        """The window spans the first through the last NFT move."""
        return change.since_ts <= component.last_timestamp

    def detect(
        self, component: CandidateComponent, context: DetectionContext
    ) -> Optional[DetectionEvidence]:
        """Return evidence if the group's net balance change is ~zero."""
        if component.volume_wei <= 0:
            return None
        members = component.accounts
        transactions = context.transactions_in_window(
            members, component.first_timestamp, component.last_timestamp
        )
        net_wei = 0
        for tx in transactions:
            for movement in tx.value_transfers:
                if movement.recipient in members:
                    net_wei += movement.amount_wei
                if movement.sender in members:
                    net_wei -= movement.amount_wei

        config = context.config
        tolerance = max(
            config.zero_risk_absolute_tolerance_wei,
            int(config.zero_risk_relative_tolerance * component.volume_wei),
        )
        if abs(net_wei) > tolerance:
            return None
        return DetectionEvidence(
            method=DetectionMethod.ZERO_RISK,
            details={
                "net_wei": net_wei,
                "tolerance_wei": tolerance,
                "window_transactions": len(transactions),
            },
        )
