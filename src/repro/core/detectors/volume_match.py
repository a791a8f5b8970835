"""(vi) Sliding-window volume matching.

A detection method from the related literature rather than the paper's
funnel (von Wachter et al., "NFT Wash Trading: Quantifying suspicious
behaviour in NFT markets", 2022; Chen et al., "The Dark Side of NFTs",
2023): wash activity shows up as windows of time in which a set of
accounts generates trade volume while their *net* NFT position does not
move -- every token bought inside the window is sold back inside it.

Over a refined candidate component this reduces to a closed-loop check:
within a sliding hour/day/week window, every involved account's
in-transfer count of the NFT equals its out-transfer count (self
transfers are trivially balanced) while paid volume was generated.  The
check runs with one incremental two-pointer pass per window size, so it
costs O(windows * transfers) per component regardless of how many
windows match.

The method is **opt-in** (not part of
:meth:`DetectionMethod.paper_methods`), so enabling it never changes the
reproduction's headline numbers unless asked for.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange


class VolumeMatchDetector:
    """Confirms components with a volume-balanced trading window."""

    name = "volume-match"
    method = DetectionMethod.VOLUME_MATCH

    @staticmethod
    def history_may_change(component: CandidateComponent, change: HistoryChange) -> bool:
        """Reads only the component's own transfers."""
        return False

    def detect(
        self, component: CandidateComponent, context: DetectionContext
    ) -> Optional[DetectionEvidence]:
        """Return evidence for the first balanced window, if any.

        Window sizes are tried smallest-first and the earliest balanced
        window of the smallest matching size is reported, so the
        evidence is deterministic for a given component regardless of
        the execution path (batch or streaming).
        """
        config = context.config
        transfers = component.transfers
        if len(transfers) < config.volume_match_min_transfers:
            return None
        # Component transfers are stored in (timestamp, block, tx) order,
        # so timestamps are non-decreasing and a two-pointer pass works.
        timestamps = [transfer.timestamp for transfer in transfers]

        for window_seconds in config.volume_match_windows:
            balance: Dict[str, int] = defaultdict(int)
            nonzero_accounts = 0
            volume_wei = 0
            left = 0
            for right, transfer in enumerate(transfers):
                nonzero_accounts += self._apply(balance, transfer.sender, -1)
                nonzero_accounts += self._apply(balance, transfer.recipient, +1)
                volume_wei += transfer.price_wei
                while timestamps[right] - timestamps[left] >= window_seconds:
                    evicted = transfers[left]
                    nonzero_accounts += self._apply(balance, evicted.sender, +1)
                    nonzero_accounts += self._apply(balance, evicted.recipient, -1)
                    volume_wei -= evicted.price_wei
                    left += 1
                if (
                    nonzero_accounts == 0
                    and right - left + 1 >= config.volume_match_min_transfers
                    and volume_wei > 0
                ):
                    matched = transfers[left : right + 1]
                    return DetectionEvidence(
                        method=DetectionMethod.VOLUME_MATCH,
                        details={
                            "window_seconds": window_seconds,
                            "start_timestamp": timestamps[left],
                            "end_timestamp": timestamps[right],
                            "transfer_count": len(matched),
                            "volume_wei": volume_wei,
                            "accounts": sorted(
                                {t.sender for t in matched}
                                | {t.recipient for t in matched}
                            ),
                        },
                    )
        return None

    @staticmethod
    def _apply(balance: Dict[str, int], account: str, delta: int) -> int:
        """Shift one account's net position; returns the change in the
        number of accounts holding a nonzero position (-1, 0 or +1)."""
        before = balance[account]
        after = before + delta
        balance[account] = after
        if before == 0 and after != 0:
            return 1
        if before != 0 and after == 0:
            return -1
        return 0
