"""Shared infrastructure for the confirmation techniques.

Each detector examines one :class:`CandidateComponent` (a refined SCC)
and either returns a :class:`DetectionEvidence` or ``None``.  The
:class:`DetectionContext` gives detectors access to the dataset, the
label registry and a set of money-flow helpers over the standard
transactions collected for the involved accounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Protocol, Set, Tuple

from repro.chain.transaction import TX_CHAIN_ORDER, Transaction
from repro.core.activity import CandidateComponent, DetectionEvidence, DetectionMethod
from repro.ingest.dataset import NFTDataset
from repro.services.labels import LabelRegistry


@dataclass(frozen=True, slots=True)
class MoneyFlow:
    """A single inbound or outbound value movement of one account."""

    account: str
    counterparty: str
    amount: int
    timestamp: int
    tx_hash: str
    #: "eth" or the ERC-20 contract address.
    asset: str


@dataclass
class DetectionConfig:
    """Tunable knobs of the confirmation techniques.

    Defaults follow the paper's definitions; the ablation benchmarks vary
    them to show the sensitivity of the results.
    """

    #: Absolute tolerance on the group's net balance for the zero-risk
    #: test (covers rounding dust), in wei.
    zero_risk_absolute_tolerance_wei: int = 10**15
    #: Relative tolerance on the group's net balance, as a fraction of the
    #: component's wash volume.  Kept tight so that venue fees (2%+) push
    #: marketplace-mediated activities out of the zero-risk class, as in
    #: the paper.
    zero_risk_relative_tolerance: float = 0.002
    #: An external funder must fund at least this many distinct members.
    min_externally_funded_members: int = 2
    #: An external exit must receive funds from at least this many members.
    min_external_exit_members: int = 2
    #: An internal funder must fund at least this many *other* members.
    min_internally_funded_members: int = 1
    #: An internal exit must receive from at least this many *other* members.
    min_internal_exit_members: int = 1
    #: Sliding window sizes of the volume-matching detector, in seconds,
    #: tried smallest-first (hour, day, week by default).
    volume_match_windows: Tuple[int, ...] = (3600, 86400, 604800)
    #: Minimum transfers inside a window for a volume match to count (a
    #: single transfer can never be a round trip).
    volume_match_min_transfers: int = 2


class HistoryChange(NamedTuple):
    """How a candidate's members' collected transaction lists grew.

    The live scheduler passes one to :meth:`Detector.history_may_change`
    for a held candidate whose members' lists only grew at their ends;
    a list that may have changed anywhere (a rollback truncated it)
    re-runs every detector instead.
    """

    #: Earliest timestamp of the appended transactions.
    since_ts: int
    #: Whether some member's outgoing pure-transfer flows grew (or the
    #: money-flow cache could not tell that they did not).
    outflows_grew: bool


class Detector(Protocol):
    """Interface implemented by every confirmation technique."""

    name: str
    #: The method recorded on the evidence this detector returns.
    method: DetectionMethod

    def detect(
        self, component: CandidateComponent, context: "DetectionContext"
    ) -> Optional[DetectionEvidence]:
        """Return evidence if the component is confirmed, else None."""

    def history_may_change(
        self, component: CandidateComponent, change: HistoryChange
    ) -> bool:
        """Whether ``detect`` can answer differently once the members'
        collected transactions changed as ``change`` describes.

        Each technique reads a fixed window of the members' histories
        (or none at all), and common exit reads only their outgoing
        flows, so a change outside what a detector reads leaves its
        answer unchanged; the live scheduler skips the detector then
        and reuses its held evidence.
        """


class DetectionContext:
    """Dataset access and money-flow helpers shared by all detectors."""

    def __init__(
        self,
        dataset: NFTDataset,
        labels: LabelRegistry,
        is_contract: Callable[[str], bool],
        config: Optional[DetectionConfig] = None,
    ) -> None:
        self.dataset = dataset
        self.labels = labels
        self.is_contract = is_contract
        self.config = config or DetectionConfig()

    # -- raw transaction access ------------------------------------------------
    def transactions_of(self, account: str) -> List[Transaction]:
        """Every collected transaction of an account, in chain order."""
        return self.dataset.transactions_of(account)

    def transactions_in_window(
        self, accounts: Iterable[str], start_ts: int, end_ts: int
    ) -> List[Transaction]:
        """Distinct transactions involving any of ``accounts`` within a window."""
        seen: Set[str] = set()
        collected: List[Transaction] = []
        for account in accounts:
            for tx in self.transactions_of(account):
                if tx.timestamp < start_ts or tx.timestamp > end_ts:
                    continue
                if tx.hash in seen:
                    continue
                seen.add(tx.hash)
                collected.append(tx)
        collected.sort(key=TX_CHAIN_ORDER)
        return collected

    # -- money flows --------------------------------------------------------------
    @staticmethod
    def _tx_moves_an_nft(tx: Transaction) -> bool:
        """True if the transaction carries an ERC-721-shaped Transfer event."""
        for log in tx.logs:
            if log.is_erc721_transfer:
                return True
        return False

    def incoming_flows(
        self, account: str, before_ts: Optional[int] = None
    ) -> List[MoneyFlow]:
        """Value received by ``account`` through pure transfers.

        A "pure transfer" is the paper's funding transaction: it moves ETH
        or ERC-20 tokens without moving any NFT in the same transaction.
        """
        return self._incoming_over(account, self.transactions_of(account), before_ts)

    def _incoming_over(
        self,
        account: str,
        transactions: Iterable[Transaction],
        before_ts: Optional[int],
    ) -> List[MoneyFlow]:
        """:meth:`incoming_flows` over the given slice of the account's
        transactions, in their order."""
        flows: List[MoneyFlow] = []
        for tx in transactions:
            if before_ts is not None and tx.timestamp >= before_ts:
                continue
            if self._tx_moves_an_nft(tx):
                continue
            for movement in tx.value_transfers:
                if movement.recipient == account and movement.amount_wei > 0:
                    flows.append(
                        MoneyFlow(
                            account=account,
                            counterparty=movement.sender,
                            amount=movement.amount_wei,
                            timestamp=tx.timestamp,
                            tx_hash=tx.hash,
                            asset="eth",
                        )
                    )
            for log in tx.logs:
                if log.is_erc20_transfer and log.topics[2] == account:
                    amount = int(log.data.get("value", 0))
                    if amount > 0:
                        flows.append(
                            MoneyFlow(
                                account=account,
                                counterparty=log.topics[1],
                                amount=amount,
                                timestamp=tx.timestamp,
                                tx_hash=tx.hash,
                                asset=log.address,
                            )
                        )
        return flows

    def outgoing_flows(
        self, account: str, after_ts: Optional[int] = None
    ) -> List[MoneyFlow]:
        """Value sent by ``account`` through pure transfers."""
        return self._outgoing_over(account, self.transactions_of(account), after_ts)

    def _outgoing_over(
        self,
        account: str,
        transactions: Iterable[Transaction],
        after_ts: Optional[int],
    ) -> List[MoneyFlow]:
        """:meth:`outgoing_flows` over the given slice of the account's
        transactions, in their order."""
        flows: List[MoneyFlow] = []
        for tx in transactions:
            if after_ts is not None and tx.timestamp <= after_ts:
                continue
            if self._tx_moves_an_nft(tx):
                continue
            for movement in tx.value_transfers:
                if movement.sender == account and movement.amount_wei > 0:
                    flows.append(
                        MoneyFlow(
                            account=account,
                            counterparty=movement.recipient,
                            amount=movement.amount_wei,
                            timestamp=tx.timestamp,
                            tx_hash=tx.hash,
                            asset="eth",
                        )
                    )
            for log in tx.logs:
                if log.is_erc20_transfer and log.topics[1] == account:
                    amount = int(log.data.get("value", 0))
                    if amount > 0:
                        flows.append(
                            MoneyFlow(
                                account=account,
                                counterparty=log.topics[2],
                                amount=amount,
                                timestamp=tx.timestamp,
                                tx_hash=tx.hash,
                                asset=log.address,
                            )
                        )
        return flows

    # -- service filters -------------------------------------------------------------
    def is_acceptable_external_party(self, address: str) -> bool:
        """True if an external funder/exit can count as collusion evidence.

        Exchanges and DeFi services interact with too many accounts to be
        evidence of anything, so the paper discards them.
        """
        if self.labels.is_financial_service(address):
            return False
        if self.labels.is_graph_excluded_service(address):
            return False
        return True
