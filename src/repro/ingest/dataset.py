"""The assembled dataset the detection pipeline consumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Mapping, Optional, Set

from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.chain.types import NFTKey, NULL_ADDRESS
from repro.ingest.account_tx import collect_account_transactions
from repro.ingest.compliance import ComplianceReport, check_erc721_compliance
from repro.ingest.marketplace_attribution import build_reverse_index
from repro.ingest.records import TRANSFER_CHAIN_ORDER, ERC20Payment, NFTTransfer
from repro.ingest.transfer_scan import (
    TransferScanResult,
    decode_transfer_log,
    scan_erc721_transfer_logs,
)


@dataclass
class MarketplaceActivity:
    """Aggregate activity of one venue (one row of Table I)."""

    name: str
    nfts: Set[NFTKey] = field(default_factory=set)
    transaction_hashes: Set[str] = field(default_factory=set)
    volume_wei: int = 0

    @property
    def nft_count(self) -> int:
        """Distinct NFTs traded through the venue."""
        return len(self.nfts)

    @property
    def transaction_count(self) -> int:
        """Distinct transactions interacting with the venue."""
        return len(self.transaction_hashes)


@dataclass
class NFTDataset:
    """Everything Sec. III collects, in one queryable object."""

    transfers_by_nft: Dict[NFTKey, List[NFTTransfer]]
    compliance: ComplianceReport
    scan: TransferScanResult
    account_transactions: Dict[str, List[Transaction]]
    marketplace_addresses: Mapping[str, str]
    #: Lazily built columnar view consumed by the detection engine.
    _columnar_store: Optional[object] = field(default=None, repr=False, compare=False)

    # -- sizes -----------------------------------------------------------------
    @property
    def nft_count(self) -> int:
        """Number of distinct NFTs with at least one transfer."""
        return len(self.transfers_by_nft)

    @property
    def collection_count(self) -> int:
        """Number of distinct compliant collections with transfers."""
        return len({nft.contract for nft in self.transfers_by_nft})

    @property
    def transfer_count(self) -> int:
        """Total number of ERC-721 transfers retained."""
        return sum(len(transfers) for transfers in self.transfers_by_nft.values())

    # -- access ------------------------------------------------------------------
    def transfers_of(self, nft: NFTKey) -> List[NFTTransfer]:
        """Transfers of one NFT in chain order."""
        return self.transfers_by_nft.get(nft, [])

    def nfts(self) -> Iterable[NFTKey]:
        """Every NFT in the dataset."""
        return self.transfers_by_nft.keys()

    def collections(self) -> Set[str]:
        """Every collection (contract address) in the dataset."""
        return {nft.contract for nft in self.transfers_by_nft}

    def involved_accounts(self) -> Set[str]:
        """Every account appearing as source or recipient of a transfer."""
        accounts: Set[str] = set()
        for transfers in self.transfers_by_nft.values():
            for transfer in transfers:
                if transfer.sender != NULL_ADDRESS:
                    accounts.add(transfer.sender)
                if transfer.recipient != NULL_ADDRESS:
                    accounts.add(transfer.recipient)
        return accounts

    def transactions_of(self, account: str) -> List[Transaction]:
        """All standard transactions collected for an account."""
        return self.account_transactions.get(account, [])

    def columnar_store(self):
        """The interned columnar view of the transfers, built once.

        The detection engine (:mod:`repro.engine`) consumes this instead
        of rebuilding per-NFT graphs; repeated pipeline runs over the
        same dataset share the one store.
        """
        if self._columnar_store is None:
            from repro.engine.store import ColumnarTransferStore

            self._columnar_store = ColumnarTransferStore.from_dataset(self)
        return self._columnar_store

    # -- volumes ------------------------------------------------------------------
    @property
    def total_volume_wei(self) -> int:
        """Total ETH volume moved by the transactions carrying transfers."""
        return sum(
            transfer.price_wei
            for transfers in self.transfers_by_nft.values()
            for transfer in transfers
        )

    def marketplace_activity(self) -> Dict[str, MarketplaceActivity]:
        """Per-venue NFT counts, transaction counts and volumes (Table I)."""
        activity: Dict[str, MarketplaceActivity] = {
            name: MarketplaceActivity(name=name) for name in self.marketplace_addresses
        }
        for nft, transfers in self.transfers_by_nft.items():
            for transfer in transfers:
                if transfer.marketplace is None:
                    continue
                venue = activity[transfer.marketplace]
                venue.nfts.add(nft)
                if transfer.tx_hash not in venue.transaction_hashes:
                    venue.transaction_hashes.add(transfer.tx_hash)
                    venue.volume_wei += transfer.price_wei
        return activity

    def volume_of_collection_wei(self, contract: str) -> int:
        """Total traded volume of one collection."""
        return sum(
            transfer.price_wei
            for nft, transfers in self.transfers_by_nft.items()
            if nft.contract == contract
            for transfer in transfers
        )


def transfer_from_log(tx, log, venue_by_address: Mapping[str, str]) -> NFTTransfer:
    """Enrich one ERC-721 Transfer log with its transaction context."""
    sender, recipient, token_id = decode_transfer_log(log)
    logs = tx.receipt.logs
    # The transfer's own log is not an ERC-20 move: a lone log carries none.
    erc20_payments = (
        tuple(
            ERC20Payment(
                other.address,
                other.topics[1],
                other.topics[2],
                int(other.data.get("value", 0)),
            )
            for other in logs
            if other.is_erc20_transfer
        )
        if len(logs) > 1
        else ()
    )
    return NFTTransfer(
        NFTKey(log.address, token_id),
        sender,
        recipient,
        tx.hash,
        tx.block_number,
        tx.timestamp,
        tx.value_wei,
        tx.fee_wei,
        tx.interacted_contract,
        venue_by_address.get(tx.to) if tx.to else None,
        tx.sender,
        erc20_payments,
    )


@dataclass
class StagedRange:
    """What :func:`stage_range` read from one block range.

    Nothing here is committed anywhere: the batch build assembles a
    dataset from it, the streaming cursor appends it to its state.
    """

    #: The range's ERC-721-shaped Transfer events, before the filter.
    scan: TransferScanResult
    #: The ERC-165 probe of the range's contracts the caller's report
    #: had not classified yet.
    probe: ComplianceReport
    #: Compliant transfers per token, tokens in first-touch (scan) order,
    #: each list in chain order.
    transfers_by_nft: Dict[NFTKey, List[NFTTransfer]]
    #: Transfer endpoints the caller does not follow yet, in first-touch
    #: order, each mapped to the first block it is an endpoint in.
    first_involved: Dict[str, int]


def stage_range(
    node: EthereumNode,
    venue_by_address: Mapping[str, str],
    from_block: int,
    to_block: Optional[int],
    compliance: ComplianceReport,
    followed: Container[str],
) -> StagedRange:
    """Scan, filter and enrich the transfers of one block range.

    The collection step of Sec. III up to, not including, the account
    histories: scan for ERC-721-shaped Transfer events, probe ERC-165
    compliance of every emitting contract ``compliance`` has not
    classified, enrich each compliant transfer with its transaction
    context (price, gas, venue, co-occurring ERC-20 moves), group the
    transfers per token and sort each token's rows.  Every endpoint not
    in ``followed`` (nor the null address) comes back with its first
    block, so the caller fetches each new account's history once.
    Only node reads happen here; ``compliance`` is not modified.
    """
    scan = scan_erc721_transfer_logs(node, from_block=from_block, to_block=to_block)
    compliant = compliance.compliant
    non_compliant = compliance.non_compliant
    unseen = sorted(
        contract
        for contract in scan.emitting_contracts
        if contract not in compliant and contract not in non_compliant
    )
    probe = check_erc721_compliance(node, unseen) if unseen else ComplianceReport()
    if probe.compliant:
        compliant = compliant | probe.compliant

    transfers_by_nft: Dict[NFTKey, List[NFTTransfer]] = {}
    for tx, log in scan.matches:
        if log.address not in compliant:
            continue
        transfer = transfer_from_log(tx, log, venue_by_address)
        rows = transfers_by_nft.get(transfer.nft)
        if rows is None:
            transfers_by_nft[transfer.nft] = [transfer]
        else:
            rows.append(transfer)

    first_involved: Dict[str, int] = {}
    seen_at = first_involved.get
    for rows in transfers_by_nft.values():
        if len(rows) > 1:
            rows.sort(key=TRANSFER_CHAIN_ORDER)
        for transfer in rows:
            number = transfer.block_number
            for endpoint in (transfer.sender, transfer.recipient):
                first = seen_at(endpoint)
                if first is None:
                    if endpoint not in followed and endpoint != NULL_ADDRESS:
                        first_involved[endpoint] = number
                elif number < first:
                    first_involved[endpoint] = number
    return StagedRange(scan, probe, transfers_by_nft, first_involved)


def build_dataset(
    node: EthereumNode,
    marketplace_addresses: Mapping[str, str],
    to_block: Optional[int] = None,
) -> NFTDataset:
    """Run the full Sec. III collection pipeline against a node.

    One :func:`stage_range` from genesis (scan, ERC-165 filter,
    enrichment), then every transaction of every involved account.

    The build is *causal*: with ``to_block`` set, the per-account
    histories are clamped to the same prefix the transfer scan covered,
    so a prefix build sees exactly what a live follower at block
    ``to_block`` would have seen -- no future funding or exit
    transactions leak in.  This makes ``build_dataset(to_block=B)``
    directly comparable to mid-stream monitor state without any
    node-wrapping workaround.
    """
    staged = stage_range(
        node,
        build_reverse_index(marketplace_addresses),
        0,
        to_block,
        ComplianceReport(),
        followed=(),
    )
    return NFTDataset(
        transfers_by_nft=staged.transfers_by_nft,
        compliance=staged.probe,
        scan=staged.scan,
        account_transactions=collect_account_transactions(
            node, sorted(staged.first_involved), to_block=to_block
        ),
        marketplace_addresses=dict(marketplace_addresses),
    )
