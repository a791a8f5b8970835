"""Serial wash traders (Sec. V-D).

A serial wash trader is an account participating in two or more
confirmed activities.  The paper reports that a minority of accounts
(27.16%) is responsible for the large majority of activities (72.93%),
that most serial traders hit the same collection repeatedly, and that
serial traders tend to collaborate only with other serial traders.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.activity import WashTradingActivity


@dataclass
class SerialTraderStats:
    """Aggregate statistics about serial wash traders."""

    total_accounts: int
    serial_accounts: int
    activities_total: int
    activities_with_serial: int
    mean_activities_per_serial: float
    max_activities_by_one_account: int
    most_active_account: str
    serial_traders_hitting_same_collection: int
    serial_only_collaborators: int
    activities_all_serial: int
    activities_by_account: Dict[str, int] = field(default_factory=dict)

    @property
    def serial_account_fraction(self) -> float:
        """Share of involved accounts that are serial."""
        if self.total_accounts == 0:
            return 0.0
        return self.serial_accounts / self.total_accounts

    @property
    def serial_activity_fraction(self) -> float:
        """Share of activities involving at least one serial trader."""
        if self.activities_total == 0:
            return 0.0
        return self.activities_with_serial / self.activities_total

    @property
    def same_collection_fraction(self) -> float:
        """Share of serial traders that repeatedly hit one collection."""
        if self.serial_accounts == 0:
            return 0.0
        return self.serial_traders_hitting_same_collection / self.serial_accounts


def serial_trader_stats(activities: Sequence[WashTradingActivity]) -> SerialTraderStats:
    """Compute every serial-trader statistic the paper reports."""
    activity_count_by_account: Counter[str] = Counter()
    collections_by_account: Dict[str, Counter] = defaultdict(Counter)
    for activity in activities:
        for account in activity.accounts:
            activity_count_by_account[account] += 1
            collections_by_account[account][activity.nft.contract] += 1

    serial_accounts = {
        account for account, count in activity_count_by_account.items() if count >= 2
    }

    activities_with_serial = sum(
        1
        for activity in activities
        if any(account in serial_accounts for account in activity.accounts)
    )
    activities_all_serial = sum(
        1
        for activity in activities
        if activity.accounts and all(account in serial_accounts for account in activity.accounts)
    )

    same_collection = sum(
        1
        for account in serial_accounts
        if any(count >= 2 for count in collections_by_account[account].values())
    )

    # A serial trader is a "serial-only collaborator" if, across all its
    # activities, every co-participant is also serial.
    serial_only = 0
    for account in serial_accounts:
        collaborates_only_with_serials = True
        for activity in activities:
            if account not in activity.accounts:
                continue
            others = set(activity.accounts) - {account}
            if any(other not in serial_accounts for other in others):
                collaborates_only_with_serials = False
                break
        if collaborates_only_with_serials:
            serial_only += 1

    if activity_count_by_account:
        most_active_account, max_count = activity_count_by_account.most_common(1)[0]
    else:
        most_active_account, max_count = "", 0

    serial_activity_counts = [
        count for account, count in activity_count_by_account.items() if count >= 2
    ]
    mean_per_serial = (
        sum(serial_activity_counts) / len(serial_activity_counts)
        if serial_activity_counts
        else 0.0
    )

    return SerialTraderStats(
        total_accounts=len(activity_count_by_account),
        serial_accounts=len(serial_accounts),
        activities_total=len(activities),
        activities_with_serial=activities_with_serial,
        mean_activities_per_serial=mean_per_serial,
        max_activities_by_one_account=max_count,
        most_active_account=most_active_account,
        serial_traders_hitting_same_collection=same_collection,
        serial_only_collaborators=serial_only,
        activities_all_serial=activities_all_serial,
        activities_by_account=dict(activity_count_by_account),
    )


def top_collaborating_pairs(
    activities: Sequence[WashTradingActivity], top_n: int = 5
) -> List[Tuple[Tuple[str, str], int]]:
    """The account pairs that performed the most activities together."""
    pair_counts: Counter[Tuple[str, str]] = Counter()
    for activity in activities:
        members = sorted(activity.accounts)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                pair_counts[(first, second)] += 1
    return pair_counts.most_common(top_n)
