"""(iii) Common exit.

Symmetric to the common funder: after the last transaction that moves
the NFT inside the colluding set, the members send their funds to a
single account.  A **common internal exit** receives funds from at least
one other member and belongs to the component; a **common external
exit** receives funds from at least two members, does not belong to the
component and is not an exchange or DeFi service.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set

from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange


class CommonExitDetector:
    """Confirms components whose members cash out to a common account."""

    name = "common-exit"
    method = DetectionMethod.COMMON_EXIT

    @staticmethod
    def history_may_change(component: CandidateComponent, change: HistoryChange) -> bool:
        """Exits count at any time after the last NFT move, with no end,
        but only through the members' outgoing flows."""
        return change.outflows_grew

    def detect(
        self, component: CandidateComponent, context: DetectionContext
    ) -> Optional[DetectionEvidence]:
        """Return evidence naming the common exit(s), if any."""
        members = component.accounts
        end_ts = component.last_timestamp

        received_from: Dict[str, Set[str]] = defaultdict(set)
        for member in members:
            for flow in context.outgoing_flows(member, after_ts=end_ts):
                exit_account = flow.counterparty
                if exit_account == member:
                    continue
                received_from[exit_account].add(member)

        internal_exits: Dict[str, Set[str]] = {}
        external_exits: Dict[str, Set[str]] = {}
        config = context.config
        for exit_account, senders in received_from.items():
            if exit_account in members:
                others = senders - {exit_account}
                if len(others) >= config.min_internal_exit_members:
                    internal_exits[exit_account] = others
            else:
                if not context.is_acceptable_external_party(exit_account):
                    continue
                if len(senders) >= config.min_external_exit_members:
                    external_exits[exit_account] = senders

        if not internal_exits and not external_exits:
            return None
        kind = "internal" if internal_exits else "external"
        return DetectionEvidence(
            method=DetectionMethod.COMMON_EXIT,
            details={
                "kind": kind,
                "internal_exits": {
                    exit_account: sorted(senders)
                    for exit_account, senders in internal_exits.items()
                },
                "external_exits": {
                    exit_account: sorted(senders)
                    for exit_account, senders in external_exits.items()
                },
            },
        )
