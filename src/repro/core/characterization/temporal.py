"""Temporal analysis of wash trading activities (Sec. V-B).

Covers the lifetime CDF (Fig. 4), the delay between acquiring an NFT and
starting to wash it, and the proximity of activities to the creation of
their collection (Fig. 5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.activity import WashTradingActivity
from repro.core.detectors.pipeline import PipelineResult
from repro.ingest.dataset import NFTDataset
from repro.utils.timeutil import SECONDS_PER_DAY


def lifetimes_seconds(activities: Sequence[WashTradingActivity]) -> List[int]:
    """Lifetime (first-to-last wash trade) of every activity, in seconds."""
    return [activity.lifetime_seconds for activity in activities]


def fraction_with_lifetime_within(
    activities: Sequence[WashTradingActivity], days: float
) -> float:
    """Fraction of activities whose lifetime is at most ``days`` days."""
    if not activities:
        return 0.0
    limit = days * SECONDS_PER_DAY
    count = sum(1 for activity in activities if activity.lifetime_seconds <= limit)
    return count / len(activities)


def purchase_to_start_delays(
    result: PipelineResult, dataset: NFTDataset
) -> List[float]:
    """Days between the wash trader acquiring the NFT and the first wash trade.

    The acquisition is the last transfer that brought the NFT *into* the
    colluding set from outside (a purchase or a mint) before the activity
    started; activities whose NFT never entered from outside are skipped.
    """
    delays: List[float] = []
    for activity in result.activities:
        component = activity.component
        acquisition_ts: Optional[int] = None
        for transfer in dataset.transfers_of(activity.nft):
            if transfer.timestamp >= component.first_timestamp:
                break
            entered_set = (
                transfer.recipient in component.accounts
                and transfer.sender not in component.accounts
            )
            if entered_set:
                acquisition_ts = transfer.timestamp
        if acquisition_ts is None:
            continue
        delays.append((component.first_timestamp - acquisition_ts) / SECONDS_PER_DAY)
    return delays


def creation_proximity(
    result: PipelineResult, creation_timestamps: Mapping[str, int]
) -> List[float]:
    """Days between collection creation and each activity's first wash trade.

    ``creation_timestamps`` maps collection contract address to its
    deployment timestamp; activities on unknown collections are skipped.
    """
    proximities: List[float] = []
    for activity in result.activities:
        created = creation_timestamps.get(activity.nft.contract)
        if created is None:
            continue
        proximities.append(
            (activity.component.first_timestamp - created) / SECONDS_PER_DAY
        )
    return proximities


@dataclass
class CollectionTimeline:
    """One row of Fig. 5: a collection's creation date and its wash events."""

    contract: str
    name: str
    creation_timestamp: int
    activity_timestamps: List[int]
    washed_nft_count: int


def top_collections_timeline(
    result: PipelineResult,
    creation_timestamps: Mapping[str, int],
    names: Optional[Mapping[str, str]] = None,
    top_n: int = 10,
) -> List[CollectionTimeline]:
    """The Fig. 5 data: the top collections by washed-NFT count, with the
    creation date and the dates of every wash trading activity."""
    washed_by_collection: Dict[str, set] = defaultdict(set)
    timestamps_by_collection: Dict[str, List[int]] = defaultdict(list)
    for activity in result.activities:
        contract = activity.nft.contract
        washed_by_collection[contract].add(activity.nft)
        timestamps_by_collection[contract].append(activity.component.first_timestamp)

    ranked = sorted(
        washed_by_collection.items(), key=lambda item: len(item[1]), reverse=True
    )[:top_n]
    timeline: List[CollectionTimeline] = []
    for contract, nfts in ranked:
        timeline.append(
            CollectionTimeline(
                contract=contract,
                name=(names or {}).get(contract, contract),
                creation_timestamp=creation_timestamps.get(contract, 0),
                activity_timestamps=sorted(timestamps_by_collection[contract]),
                washed_nft_count=len(nfts),
            )
        )
    return timeline
