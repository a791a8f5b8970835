"""(ii) Common funder.

Clear evidence of collusion is an account that supplies funds to the
alleged colluders before the manipulation starts.  A *funding
transaction* exclusively transfers ETH or ERC-20 tokens to a member
before the first transaction that moves the NFT inside the colluding
set.  The funder is a **common internal funder** if it belongs to the
component (and funds at least one other member) and a **common external
funder** if it does not (and funds at least two distinct members, and is
not an exchange or DeFi service).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set

from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.core.detectors.base import DetectionContext, HistoryChange


class CommonFunderDetector:
    """Confirms components funded from a common account."""

    name = "common-funder"
    method = DetectionMethod.COMMON_FUNDER

    @staticmethod
    def history_may_change(component: CandidateComponent, change: HistoryChange) -> bool:
        """Funding counts only strictly before the first NFT move."""
        return change.since_ts < component.first_timestamp

    def detect(
        self, component: CandidateComponent, context: DetectionContext
    ) -> Optional[DetectionEvidence]:
        """Return evidence naming the common funder(s), if any."""
        members = component.accounts
        start_ts = component.first_timestamp

        funded_by: Dict[str, Set[str]] = defaultdict(set)
        for member in members:
            for flow in context.incoming_flows(member, before_ts=start_ts):
                funder = flow.counterparty
                if funder == member:
                    continue
                funded_by[funder].add(member)

        internal_funders: Dict[str, Set[str]] = {}
        external_funders: Dict[str, Set[str]] = {}
        config = context.config
        for funder, funded_members in funded_by.items():
            if funder in members:
                others = funded_members - {funder}
                if len(others) >= config.min_internally_funded_members:
                    internal_funders[funder] = others
            else:
                if not context.is_acceptable_external_party(funder):
                    continue
                if len(funded_members) >= config.min_externally_funded_members:
                    external_funders[funder] = funded_members

        if not internal_funders and not external_funders:
            return None
        kind = "internal" if internal_funders else "external"
        return DetectionEvidence(
            method=DetectionMethod.COMMON_FUNDER,
            details={
                "kind": kind,
                "internal_funders": {
                    funder: sorted(funded) for funder, funded in internal_funders.items()
                },
                "external_funders": {
                    funder: sorted(funded) for funder, funded in external_funders.items()
                },
            },
        )
