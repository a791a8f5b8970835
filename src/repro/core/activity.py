"""Data model of wash trading candidates and confirmed activities."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.ingest.records import NFTTransfer

#: Identity of one activity across recomputations and revisions:
#: (contract, token id, sorted accounts, sorted tx hashes).
RecordKey = Tuple[str, int, Tuple[str, ...], Tuple[str, ...]]


class DetectionMethod(str, enum.Enum):
    """The paper's five confirmation techniques of Sec. IV-C, plus
    sliding-window volume matching from the related literature."""

    ZERO_RISK = "zero-risk"
    COMMON_FUNDER = "common-funder"
    COMMON_EXIT = "common-exit"
    SELF_TRADE = "self-trade"
    REPEATED_SCC = "repeated-scc"
    #: Sliding-window volume-balance matching (von Wachter et al. 2022,
    #: Chen et al. 2023): an account set whose in/out NFT volume balances
    #: to zero inside an hour/day/week window.  Not part of the paper's
    #: funnel, so it is opt-in -- see :meth:`paper_methods`.
    VOLUME_MATCH = "volume-match"

    #: The three techniques based purely on transaction analysis; these are
    #: the sets compared in the paper's Venn diagram (Fig. 2).
    @classmethod
    def transaction_analysis_methods(cls) -> Tuple["DetectionMethod", ...]:
        return (cls.ZERO_RISK, cls.COMMON_FUNDER, cls.COMMON_EXIT)

    #: The paper's confirmation techniques -- the default method set of
    #: every pipeline entry point, so the reproduction's numbers do not
    #: move as extra detectors are added to the catalog.
    @classmethod
    def paper_methods(cls) -> Tuple["DetectionMethod", ...]:
        return (
            cls.ZERO_RISK,
            cls.COMMON_FUNDER,
            cls.COMMON_EXIT,
            cls.SELF_TRADE,
            cls.REPEATED_SCC,
        )


@dataclass(frozen=True)
class CandidateComponent:
    """A strongly connected component of one NFT's transaction graph.

    This is a wash trading *candidate*: a set of accounts that traded the
    same NFT among themselves in a cycle.  ``transfers`` contains only
    the transfers whose both endpoints belong to the component.
    """

    nft: NFTKey
    accounts: FrozenSet[str]
    transfers: Tuple[NFTTransfer, ...]

    @property
    def account_count(self) -> int:
        """Number of colluding accounts."""
        return len(self.accounts)

    @property
    def transfer_count(self) -> int:
        """Number of intra-component transfers."""
        return len(self.transfers)

    @property
    def volume_wei(self) -> int:
        """Total payment attached to the intra-component transfers."""
        return sum(transfer.price_wei for transfer in self.transfers)

    @property
    def is_zero_volume(self) -> bool:
        """True if no ETH and no ERC-20 value moved in any intra-component transfer."""
        return not any(transfer.has_payment for transfer in self.transfers)

    # Detectors and the live history checks read these on every tick
    # that revisits a candidate; the component is frozen, so each end
    # is computed once.
    @cached_property
    def first_timestamp(self) -> int:
        """Timestamp of the first intra-component transfer."""
        return min(transfer.timestamp for transfer in self.transfers)

    @cached_property
    def last_timestamp(self) -> int:
        """Timestamp of the last intra-component transfer."""
        return max(transfer.timestamp for transfer in self.transfers)

    @property
    def lifetime_seconds(self) -> int:
        """Elapsed time between the first and last intra-component transfer."""
        return self.last_timestamp - self.first_timestamp

    @cached_property
    def key(self) -> RecordKey:
        """The identity of the activity this candidate would confirm."""
        return (
            self.nft.contract,
            self.nft.token_id,
            tuple(sorted(self.accounts)),
            tuple(sorted(transfer.tx_hash for transfer in self.transfers)),
        )

    @property
    def tx_hashes(self) -> Set[str]:
        """Hashes of the transactions carrying the intra-component transfers."""
        return {transfer.tx_hash for transfer in self.transfers}

    @property
    def marketplaces(self) -> Set[str]:
        """Venues on which the intra-component transfers happened."""
        return {
            transfer.marketplace
            for transfer in self.transfers
            if transfer.marketplace is not None
        }

    def dominant_marketplace(self) -> Optional[str]:
        """The venue carrying the most intra-component volume (None if off-market)."""
        volume_by_venue: Dict[str, int] = {}
        count_by_venue: Dict[str, int] = {}
        for transfer in self.transfers:
            if transfer.marketplace is None:
                continue
            volume_by_venue[transfer.marketplace] = (
                volume_by_venue.get(transfer.marketplace, 0) + transfer.price_wei
            )
            count_by_venue[transfer.marketplace] = (
                count_by_venue.get(transfer.marketplace, 0) + 1
            )
        if not volume_by_venue:
            return None
        return max(
            volume_by_venue,
            key=lambda venue: (volume_by_venue[venue], count_by_venue[venue]),
        )

    def has_self_loop(self) -> bool:
        """True if any intra-component transfer is a self-transfer."""
        return any(transfer.is_self_transfer for transfer in self.transfers)


@dataclass
class DetectionEvidence:
    """Evidence produced by one detector for one candidate."""

    method: DetectionMethod
    #: Free-form details: funder/exit addresses, balances, etc.
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class WashTradingActivity:
    """A confirmed wash trading activity: a candidate plus its evidence."""

    component: CandidateComponent
    evidence: List[DetectionEvidence] = field(default_factory=list)

    @property
    def methods(self) -> Set[DetectionMethod]:
        """The confirmation techniques that flagged this activity."""
        return {item.method for item in self.evidence}

    @property
    def nft(self) -> NFTKey:
        """The manipulated NFT."""
        return self.component.nft

    @property
    def accounts(self) -> FrozenSet[str]:
        """The colluding accounts."""
        return self.component.accounts

    @property
    def volume_wei(self) -> int:
        """Artificial volume generated by the activity."""
        return self.component.volume_wei

    @property
    def lifetime_seconds(self) -> int:
        """Elapsed time between the first and last wash trade."""
        return self.component.lifetime_seconds

    def evidence_for(self, method: DetectionMethod) -> Optional[DetectionEvidence]:
        """The evidence record of one method, if that method fired."""
        for item in self.evidence:
            if item.method == method:
                return item
        return None

    def detected_by(self, method: DetectionMethod) -> bool:
        """True if the given method confirmed this activity."""
        return any(item.method == method for item in self.evidence)


def record_key(activity: WashTradingActivity) -> RecordKey:
    """The identity of one activity (:attr:`CandidateComponent.key`)."""
    return activity.component.key
