"""The paper's tables as data rows plus a plain-text formatter.

* Table I  -- per-venue NFT counts, transaction counts and USD volume.
* Table II -- per-venue wash trading (washed NFTs, wash volume, share).
* Table III -- reward farming gains and losses on LooksRare and Rarible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.characterization.volume import marketplace_wash_stats
from repro.core.detectors.pipeline import PipelineResult
from repro.core.profitability.rewards import RewardProfitability
from repro.ingest.dataset import NFTDataset
from repro.services.oracle import PriceOracle
from repro.utils.currency import wei_to_eth


@dataclass(frozen=True)
class TableOneRow:
    """One row of Table I."""

    marketplace: str
    nft_count: int
    transaction_count: int
    volume_usd: float


@dataclass(frozen=True)
class TableTwoRow:
    """One row of Table II."""

    marketplace: str
    washed_nft_count: int
    wash_volume_usd: float
    share_of_marketplace_volume: float


@dataclass(frozen=True)
class TableThreeColumn:
    """One (venue, outcome class) column of Table III."""

    marketplace: str
    outcome: str
    event_count: int
    min_volume_eth: float
    max_volume_eth: float
    mean_volume_eth: float
    extreme_gain_or_loss_usd: float
    mean_gain_or_loss_usd: float
    total_gain_or_loss_usd: float


def table_one(dataset: NFTDataset, oracle: PriceOracle) -> List[TableOneRow]:
    """Table I: per-venue activity, sorted by USD volume (largest first).

    USD conversion uses the timestamp of each venue transaction's day via
    per-transfer pricing, matching how the paper values volumes.
    """
    per_venue_usd: Dict[str, float] = {name: 0.0 for name in dataset.marketplace_addresses}
    seen_tx: Dict[str, set] = {name: set() for name in dataset.marketplace_addresses}
    for transfers in dataset.transfers_by_nft.values():
        for transfer in transfers:
            if transfer.marketplace is None:
                continue
            if transfer.tx_hash in seen_tx[transfer.marketplace]:
                continue
            seen_tx[transfer.marketplace].add(transfer.tx_hash)
            per_venue_usd[transfer.marketplace] += oracle.wei_to_usd(
                transfer.price_wei, transfer.timestamp
            )

    activity = dataset.marketplace_activity()
    rows = [
        TableOneRow(
            marketplace=name,
            nft_count=venue.nft_count,
            transaction_count=venue.transaction_count,
            volume_usd=per_venue_usd[name],
        )
        for name, venue in activity.items()
    ]
    rows.sort(key=lambda row: row.volume_usd, reverse=True)
    return rows


def table_two(
    result: PipelineResult, dataset: NFTDataset, oracle: PriceOracle
) -> List[TableTwoRow]:
    """Table II: wash trading per venue, sorted by wash volume."""
    stats = marketplace_wash_stats(result, dataset)

    wash_usd: Dict[str, float] = {name: 0.0 for name in stats}
    total_usd: Dict[str, float] = {name: 0.0 for name in stats}
    for activity in result.activities:
        for transfer in activity.component.transfers:
            if transfer.marketplace is None:
                continue
            wash_usd[transfer.marketplace] += oracle.wei_to_usd(
                transfer.price_wei, transfer.timestamp
            )
    seen_tx: Dict[str, set] = {name: set() for name in stats}
    for transfers in dataset.transfers_by_nft.values():
        for transfer in transfers:
            if transfer.marketplace is None or transfer.tx_hash in seen_tx[transfer.marketplace]:
                continue
            seen_tx[transfer.marketplace].add(transfer.tx_hash)
            total_usd[transfer.marketplace] += oracle.wei_to_usd(
                transfer.price_wei, transfer.timestamp
            )

    rows = []
    for name, venue_stats in stats.items():
        share = wash_usd[name] / total_usd[name] if total_usd[name] > 0 else 0.0
        rows.append(
            TableTwoRow(
                marketplace=name,
                washed_nft_count=venue_stats.washed_nft_count,
                wash_volume_usd=wash_usd[name],
                share_of_marketplace_volume=share,
            )
        )
    rows.sort(key=lambda row: row.wash_volume_usd, reverse=True)
    return rows


def table_three(
    profitability: Mapping[str, RewardProfitability]
) -> List[TableThreeColumn]:
    """Table III: reward-farming outcomes per venue and outcome class."""
    columns: List[TableThreeColumn] = []
    for venue in sorted(profitability):
        stats = profitability[venue]
        for outcome_name, successful in (("successful", True), ("failed", False)):
            group = stats.successful if successful else stats.failed
            volume = stats.volume_stats_eth(successful)
            gain = stats.gain_stats_usd(successful)
            columns.append(
                TableThreeColumn(
                    marketplace=venue,
                    outcome=outcome_name,
                    event_count=len(group),
                    min_volume_eth=volume["min"],
                    max_volume_eth=volume["max"],
                    mean_volume_eth=volume["mean"],
                    extreme_gain_or_loss_usd=gain["max"],
                    mean_gain_or_loss_usd=gain["mean"],
                    total_gain_or_loss_usd=gain["total"],
                )
            )
    return columns


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    cells = [[str(item) for item in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)
