"""(v) Leveraging previously confirmed wash trading events.

If a set of accounts has already been confirmed as wash trading one NFT,
another strongly connected component made of exactly the same accounts
(on a different NFT) is confirmed as well, even when none of the other
techniques fires for it.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)


def repeated_evidence(component: CandidateComponent) -> DetectionEvidence:
    """The evidence a repeated-SCC confirmation of ``component`` carries."""
    return DetectionEvidence(
        method=DetectionMethod.REPEATED_SCC,
        details={"matched_accounts": sorted(component.accounts)},
    )


def confirm_repeated_components(
    unconfirmed: Iterable[CandidateComponent],
    confirmed_activities: Iterable[WashTradingActivity],
) -> Tuple[List[WashTradingActivity], List[CandidateComponent]]:
    """Confirm candidates whose account set matches a confirmed activity.

    Returns the newly confirmed activities and the candidates that remain
    unconfirmed.  A single pass suffices: newly confirmed components have,
    by construction, an account set already present in the confirmed pool,
    so iterating would not add anything.
    """
    confirmed_account_sets: Set[frozenset[str]] = {
        frozenset(activity.accounts) for activity in confirmed_activities
    }
    newly_confirmed: List[WashTradingActivity] = []
    still_unconfirmed: List[CandidateComponent] = []
    for component in unconfirmed:
        if frozenset(component.accounts) in confirmed_account_sets:
            newly_confirmed.append(
                WashTradingActivity(
                    component=component, evidence=[repeated_evidence(component)]
                )
            )
        else:
            still_unconfirmed.append(component)
    return newly_confirmed, still_unconfirmed
