"""Profitability of reward-system exploitation (Sec. VI-A, Table III).

For every confirmed activity on a reward venue the balance is

    balance = rewards - (NFTM_fees + Transaction_fees)            (Eq. 2)

where *rewards* is the USD value (at claim time) of the tokens obtained
by the participants in their first claim after the activity,
*NFTM_fees* the ETH sent to the venue treasury during the wash trades
and *Transaction_fees* the gas spent on the wash trades and the claims.
Activities whose participants never claim are reported separately and
excluded from the success statistics, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chain.transaction import TX_CHAIN_ORDER, Transaction
from repro.core.activity import WashTradingActivity
from repro.core.detectors.pipeline import PipelineResult
from repro.core.profitability.context import MarketContext
from repro.ingest.dataset import NFTDataset
from repro.utils.currency import wei_to_eth


@dataclass
class RewardOutcome:
    """Gain/loss of one reward-farming activity."""

    activity: WashTradingActivity
    venue: str
    claimed: bool
    rewards_usd: float = 0.0
    nftm_fees_usd: float = 0.0
    transaction_fees_usd: float = 0.0
    volume_eth: float = 0.0
    tokens_claimed: float = 0.0

    @property
    def balance_usd(self) -> float:
        """Eq. 2: rewards minus venue fees minus gas."""
        return self.rewards_usd - (self.nftm_fees_usd + self.transaction_fees_usd)

    @property
    def successful(self) -> bool:
        """True if the activity closed with a positive balance."""
        return self.claimed and self.balance_usd > 0


@dataclass
class RewardProfitability:
    """Table III statistics for one venue."""

    venue: str
    outcomes: List[RewardOutcome] = field(default_factory=list)
    unclaimed_count: int = 0

    @property
    def successful(self) -> List[RewardOutcome]:
        """Outcomes with a positive balance."""
        return [outcome for outcome in self.outcomes if outcome.successful]

    @property
    def failed(self) -> List[RewardOutcome]:
        """Claimed outcomes with a non-positive balance."""
        return [outcome for outcome in self.outcomes if not outcome.successful]

    @property
    def success_rate(self) -> float:
        """Share of claimed activities that closed with a gain."""
        if not self.outcomes:
            return 0.0
        return len(self.successful) / len(self.outcomes)

    # -- Table III rows ---------------------------------------------------------
    def volume_stats_eth(self, successful: bool) -> Dict[str, float]:
        """Min / max / mean activity volume in ETH for one outcome class."""
        group = self.successful if successful else self.failed
        volumes = [outcome.volume_eth for outcome in group]
        if not volumes:
            return {"min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "min": min(volumes),
            "max": max(volumes),
            "mean": sum(volumes) / len(volumes),
        }

    def gain_stats_usd(self, successful: bool) -> Dict[str, float]:
        """Max / mean / total balance in USD for one outcome class."""
        group = self.successful if successful else self.failed
        balances = [outcome.balance_usd for outcome in group]
        if not balances:
            return {"max": 0.0, "mean": 0.0, "total": 0.0}
        extreme = max(balances) if successful else min(balances)
        return {
            "max": extreme,
            "mean": sum(balances) / len(balances),
            "total": sum(balances),
        }


def _claim_transactions(
    dataset: NFTDataset,
    account: str,
    distributor_address: str,
    not_before_ts: int,
) -> List[Transaction]:
    """Transactions from ``account`` to the distributor at or after a timestamp."""
    claims = [
        tx
        for tx in dataset.transactions_of(account)
        if tx.to == distributor_address
        and tx.sender == account
        and tx.timestamp >= not_before_ts
        and tx.succeeded
    ]
    claims.sort(key=TX_CHAIN_ORDER)
    return claims


def _tokens_received(tx: Transaction, token_address: str, account: str) -> int:
    """Reward-token units minted/transferred to ``account`` in one transaction."""
    total = 0
    for log in tx.logs:
        if log.address == token_address and log.is_erc20_transfer and log.topics[2] == account:
            total += int(log.data.get("value", 0))
    return total


def analyze_reward_activity(
    activity: WashTradingActivity,
    venue: str,
    dataset: NFTDataset,
    context: MarketContext,
) -> RewardOutcome:
    """Compute Eq. 2 for one activity on one reward venue."""
    component = activity.component
    oracle = context.oracle
    distributor = context.distributor_addresses[venue]
    token_address = context.reward_token_addresses[venue]
    symbol = context.reward_token_symbols[venue]
    treasury = context.treasury_addresses.get(venue)

    # Gas spent on the wash trades themselves (paid by member senders).
    wash_txs: Dict[str, Transaction] = {}
    for member in component.accounts:
        for tx in dataset.transactions_of(member):
            if tx.hash in component.tx_hashes and tx.hash not in wash_txs:
                wash_txs[tx.hash] = tx

    transaction_fees_usd = 0.0
    nftm_fees_usd = 0.0
    for tx in wash_txs.values():
        if tx.sender in component.accounts:
            transaction_fees_usd += oracle.wei_to_usd(tx.fee_wei, tx.timestamp)
        if treasury is not None:
            to_treasury = sum(
                movement.amount_wei
                for movement in tx.value_transfers
                if movement.recipient == treasury
            )
            nftm_fees_usd += oracle.wei_to_usd(to_treasury, tx.timestamp)

    # Rewards: the first claim of each member after the activity.
    rewards_usd = 0.0
    tokens_claimed_units = 0
    claimed = False
    for member in component.accounts:
        claims = _claim_transactions(
            dataset, member, distributor, not_before_ts=component.first_timestamp
        )
        if not claims:
            continue
        first_claim = claims[0]
        claimed = True
        transaction_fees_usd += oracle.wei_to_usd(first_claim.fee_wei, first_claim.timestamp)
        received = _tokens_received(first_claim, token_address, member)
        tokens_claimed_units += received
        rewards_usd += oracle.token_to_usd(
            symbol, received / 1e18, first_claim.timestamp
        )

    return RewardOutcome(
        activity=activity,
        venue=venue,
        claimed=claimed,
        rewards_usd=rewards_usd,
        nftm_fees_usd=nftm_fees_usd,
        transaction_fees_usd=transaction_fees_usd,
        volume_eth=wei_to_eth(component.volume_wei),
        tokens_claimed=tokens_claimed_units / 1e18,
    )


def analyze_reward_profitability(
    result: PipelineResult,
    dataset: NFTDataset,
    context: MarketContext,
    venues: Optional[Sequence[str]] = None,
) -> Dict[str, RewardProfitability]:
    """Compute Table III for every reward venue."""
    venues = list(venues) if venues is not None else context.reward_venues()
    profitability: Dict[str, RewardProfitability] = {
        venue: RewardProfitability(venue=venue) for venue in venues
    }
    for venue in venues:
        for activity in result.activities_on(venue):
            outcome = analyze_reward_activity(activity, venue, dataset, context)
            if outcome.claimed:
                profitability[venue].outcomes.append(outcome)
            else:
                profitability[venue].unclaimed_count += 1
    return profitability
