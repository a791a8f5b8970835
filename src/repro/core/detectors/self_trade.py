"""(iv) Self-trade.

A transfer whose source and recipient are the same account is wash
trading *de facto*: the same entity traded the NFT with itself, inflating
its volume.  Such components need no further evidence.
"""

from __future__ import annotations

from typing import Optional

from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange


class SelfTradeDetector:
    """Confirms components containing at least one self-transfer."""

    name = "self-trade"
    method = DetectionMethod.SELF_TRADE

    @staticmethod
    def history_may_change(component: CandidateComponent, change: HistoryChange) -> bool:
        """Reads only the component's own transfers."""
        return False

    def detect(
        self, component: CandidateComponent, context: DetectionContext
    ) -> Optional[DetectionEvidence]:
        """Return evidence listing the self-transfers, if any."""
        self_transfers = [
            transfer for transfer in component.transfers if transfer.is_self_transfer
        ]
        if not self_transfers:
            return None
        return DetectionEvidence(
            method=DetectionMethod.SELF_TRADE,
            details={
                "self_transfer_count": len(self_transfers),
                "tx_hashes": [transfer.tx_hash for transfer in self_transfers],
            },
        )
