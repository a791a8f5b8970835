"""The assembled dataset the detection pipeline consumes."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

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
    """Enrich one ERC-721 Transfer log with its transaction context.

    Shared by the batch :func:`build_dataset` and the streaming
    :class:`~repro.stream.cursor.DatasetCursor` so both produce
    identical :class:`NFTTransfer` records for the same log.
    """
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


def build_dataset(
    node: EthereumNode,
    marketplace_addresses: Mapping[str, str],
    from_block: int = 0,
    to_block: Optional[int] = None,
    enforce_compliance: bool = True,
) -> NFTDataset:
    """Run the full Sec. III collection pipeline against a node.

    Steps: scan for ERC-721-shaped Transfer events, check ERC-165
    compliance of the emitting contracts, enrich each transfer with its
    transaction context (price, gas, venue, co-occurring ERC-20 moves),
    then collect every transaction of every involved account.

    The build is *causal*: with ``to_block`` set, the per-account
    histories are clamped to the same prefix the transfer scan covered,
    so a prefix build sees exactly what a live follower at block
    ``to_block`` would have seen -- no future funding or exit
    transactions leak in.  This makes ``build_dataset(to_block=B)``
    directly comparable to mid-stream monitor state without any
    node-wrapping workaround.
    """
    scan = scan_erc721_transfer_logs(node, from_block=from_block, to_block=to_block)
    compliance = check_erc721_compliance(node, sorted(scan.emitting_contracts))
    venue_by_address = build_reverse_index(marketplace_addresses)

    compliant = compliance.compliant
    transfers_by_nft: Dict[NFTKey, List[NFTTransfer]] = defaultdict(list)
    for tx, log in scan.matches:
        if enforce_compliance and log.address not in compliant:
            continue
        transfer = transfer_from_log(tx, log, venue_by_address)
        transfers_by_nft[transfer.nft].append(transfer)

    for transfers in transfers_by_nft.values():
        transfers.sort(key=TRANSFER_CHAIN_ORDER)

    dataset = NFTDataset(
        transfers_by_nft=dict(transfers_by_nft),
        compliance=compliance,
        scan=scan,
        account_transactions={},
        marketplace_addresses=dict(marketplace_addresses),
    )
    dataset.account_transactions = collect_account_transactions(
        node, sorted(dataset.involved_accounts()), to_block=to_block
    )
    return dataset
