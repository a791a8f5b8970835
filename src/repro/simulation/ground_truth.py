"""Ground-truth bookkeeping for planted activities.

Every scenario the generator executes registers what it did: which
accounts colluded, on which NFT, on which venue, with which intent.
Ground truth is what lets tests measure detector precision/recall and
what the ablation benchmarks score against -- the paper has no ground
truth (nobody does for the real chain), which is exactly why it combines
several confirmation techniques.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.chain.types import NFTKey


#: Planted activity kinds.
KIND_REWARD_FARM = "reward-farm"
KIND_RESALE_PUMP = "resale-pump"
KIND_SMALL_WASH = "small-wash"
KIND_SELF_TRADE = "self-trade"
KIND_RARITY_GAME = "rarity-game"
KIND_P2P_WASH = "p2p-wash"
KIND_ZERO_VOLUME = "zero-volume-shuffle"
KIND_SERVICE_NOISE = "service-noise"
KIND_CONTRACT_NOISE = "contract-noise"

#: Kinds that the pipeline is expected to confirm (true positives).
DETECTABLE_KINDS = frozenset(
    {
        KIND_REWARD_FARM,
        KIND_RESALE_PUMP,
        KIND_SMALL_WASH,
        KIND_SELF_TRADE,
        KIND_RARITY_GAME,
        KIND_P2P_WASH,
    }
)

#: Kinds that must be filtered out by refinement (planted negatives).
FILTERED_KINDS = frozenset({KIND_ZERO_VOLUME, KIND_SERVICE_NOISE, KIND_CONTRACT_NOISE})


@dataclass(frozen=True)
class PlannedActivity:
    """One planted scenario instance."""

    kind: str
    nft: NFTKey
    accounts: FrozenSet[str]
    venue: Optional[str]
    start_day: int
    end_day: int
    planned_volume_wei: int = 0
    funder: Optional[str] = None
    exit_account: Optional[str] = None
    expected_detectable: bool = True
    metadata: Dict[str, object] = field(default_factory=dict)

    def __hash__(self) -> int:  # metadata dict is excluded from identity
        return hash((self.kind, self.nft, self.accounts, self.start_day))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlannedActivity):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.nft == other.nft
            and self.accounts == other.accounts
            and self.start_day == other.start_day
        )


@dataclass
class GroundTruth:
    """All planted activities of one world."""

    activities: List[PlannedActivity] = field(default_factory=list)

    def record(self, activity: PlannedActivity) -> None:
        """Register a planted activity."""
        self.activities.append(activity)

    # -- views -----------------------------------------------------------------
    def detectable(self) -> List[PlannedActivity]:
        """Planted activities the pipeline should confirm."""
        return [item for item in self.activities if item.expected_detectable]

    def planted_negatives(self) -> List[PlannedActivity]:
        """Planted structures that refinement should filter out."""
        return [item for item in self.activities if not item.expected_detectable]

    def of_kind(self, kind: str) -> List[PlannedActivity]:
        """Planted activities of one kind."""
        return [item for item in self.activities if item.kind == kind]

    def washed_nfts(self) -> Set[NFTKey]:
        """NFTs targeted by detectable planted activities."""
        return {item.nft for item in self.detectable()}

    # -- scoring against a pipeline run ----------------------------------------------
    def match_against(
        self, detected_nfts: Iterable[NFTKey]
    ) -> "GroundTruthScore":
        """Score a set of detected NFTs against the planted ground truth."""
        detected = set(detected_nfts)
        expected = self.washed_nfts()
        negatives = {item.nft for item in self.planted_negatives()}
        true_positives = detected & expected
        false_negatives = expected - detected
        leaked_negatives = detected & negatives
        return GroundTruthScore(
            expected=len(expected),
            detected=len(detected),
            true_positives=len(true_positives),
            false_negatives=len(false_negatives),
            leaked_planted_negatives=len(leaked_negatives),
        )


@dataclass(frozen=True)
class GroundTruthScore:
    """Recall-style score of a pipeline run against planted activities."""

    expected: int
    detected: int
    true_positives: int
    false_negatives: int
    leaked_planted_negatives: int

    @property
    def recall(self) -> float:
        """Share of planted detectable NFTs that the pipeline confirmed."""
        if self.expected == 0:
            return 0.0
        return self.true_positives / self.expected
