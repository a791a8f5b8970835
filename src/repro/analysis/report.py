"""One-stop reproduction report.

:class:`PaperReport` wires the whole reproduction together: build the
dataset from a world's node (Sec. III), run the detection pipeline
(Sec. IV), and regenerate every table and figure of the evaluation
(Sec. V-VII).  The benchmark harness, the examples and EXPERIMENTS.md
all go through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.figures import (
    AccountCountFigure,
    LifetimeCDF,
    VolumeCDFSeries,
    figure_account_counts,
    figure_creation_timeline,
    figure_lifetime_cdf,
    figure_patterns,
    figure_venn,
    figure_volume_cdf,
)
from repro.analysis.funnel import FunnelRow, funnel_rows
from repro.analysis.tables import (
    TableOneRow,
    TableThreeColumn,
    TableTwoRow,
    format_table,
    table_one,
    table_three,
    table_two,
)
from repro.core.characterization.serial import SerialTraderStats, serial_trader_stats
from repro.core.characterization.temporal import CollectionTimeline
from repro.core.detectors.base import DetectionConfig
from repro.core.detectors.pipeline import PipelineResult, WashTradingPipeline
from repro.core.profitability.resale import ResaleProfitability, analyze_resale_profitability
from repro.core.profitability.rewards import RewardProfitability, analyze_reward_profitability
from repro.ingest.dataset import NFTDataset, build_dataset
from repro.simulation.world import World
from repro.utils.currency import wei_to_eth


@dataclass
class PaperReport:
    """Runs and caches the full reproduction for one world."""

    world: World
    detection_config: Optional[DetectionConfig] = None
    #: Detection backend: "legacy" (networkx reference) or "columnar".
    engine: str = "legacy"
    #: Detection methods to run; None keeps the pipeline's paper set.
    enabled_methods: Optional[frozenset] = None
    _dataset: Optional[NFTDataset] = field(default=None, repr=False)
    _result: Optional[PipelineResult] = field(default=None, repr=False)

    # -- pipeline stages -----------------------------------------------------------
    @property
    def dataset(self) -> NFTDataset:
        """The Sec. III dataset (built lazily and cached)."""
        if self._dataset is None:
            self._dataset = build_dataset(
                self.world.node, self.world.marketplace_addresses
            )
        return self._dataset

    @property
    def result(self) -> PipelineResult:
        """The Sec. IV pipeline result (run lazily and cached)."""
        if self._result is None:
            pipeline = WashTradingPipeline(
                labels=self.world.labels,
                is_contract=self.world.is_contract,
                config=self.detection_config,
                engine=self.engine,
                enabled_methods=self.enabled_methods,
            )
            self._result = pipeline.run(self.dataset)
        return self._result

    def run(self) -> PipelineResult:
        """Force dataset construction and detection; return the result."""
        return self.result

    # -- tables ----------------------------------------------------------------------
    def table_one(self) -> List[TableOneRow]:
        """Table I: marketplace overview."""
        return table_one(self.dataset, self.world.oracle)

    def table_two(self) -> List[TableTwoRow]:
        """Table II: wash trading per marketplace."""
        return table_two(self.result, self.dataset, self.world.oracle)

    def reward_profitability(self) -> Dict[str, RewardProfitability]:
        """Per-venue reward-farming profitability (feeds Table III)."""
        return analyze_reward_profitability(
            self.result, self.dataset, self.world.market_context()
        )

    def table_three(self) -> List[TableThreeColumn]:
        """Table III: token rewards and wash trading."""
        return table_three(self.reward_profitability())

    def resale_profitability(self) -> ResaleProfitability:
        """Sec. VI-B resale profitability."""
        return analyze_resale_profitability(
            self.result, self.dataset, self.world.market_context()
        )

    # -- figures -----------------------------------------------------------------------
    def figure_venn(self) -> Dict[str, int]:
        """Fig. 2 region sizes."""
        return figure_venn(self.result)

    def figure_volume_cdf(self) -> List[VolumeCDFSeries]:
        """Fig. 3 series."""
        return figure_volume_cdf(self.result, self.dataset, self.world.oracle)

    def figure_lifetime_cdf(self) -> LifetimeCDF:
        """Fig. 4 series."""
        return figure_lifetime_cdf(self.result)

    def figure_creation_timeline(self) -> List[CollectionTimeline]:
        """Fig. 5 series."""
        return figure_creation_timeline(
            self.result,
            self.world.collection_creation_timestamps(),
            names=self.world.collection_names(),
        )

    def figure_account_counts(self) -> AccountCountFigure:
        """Fig. 6 series."""
        return figure_account_counts(self.result)

    def figure_patterns(self) -> Dict[str, int]:
        """Fig. 7 series."""
        return figure_patterns(self.result)

    # -- running-text statistics -----------------------------------------------------------
    def funnel(self) -> List[FunnelRow]:
        """The Sec. IV-A/B refinement funnel."""
        return funnel_rows(self.result.refinement)

    def serial_traders(self) -> SerialTraderStats:
        """The Sec. V-D serial wash trader statistics."""
        return serial_trader_stats(self.result.activities)

    # -- rendering ----------------------------------------------------------------------------
    def render_text(self) -> str:
        """A full plain-text reproduction report."""
        lines: List[str] = []
        oracle = self.world.oracle

        lines.append("=" * 78)
        lines.append("NFT wash trading reproduction report")
        lines.append("=" * 78)

        lines.append("")
        lines.append("Dataset (Sec. III)")
        lines.append(f"  ERC-721-shaped Transfer events : {self.dataset.scan.event_count}")
        lines.append(f"  Emitting contracts             : {self.dataset.scan.contract_count}")
        lines.append(
            f"  ERC-165 compliant contracts    : {self.dataset.compliance.compliant_count}"
            f" ({self.dataset.compliance.compliance_ratio:.1%})"
        )
        lines.append(f"  NFTs with transfers            : {self.dataset.nft_count}")
        lines.append(f"  Transfers retained             : {self.dataset.transfer_count}")

        lines.append("")
        lines.append("Table I - marketplace overview")
        lines.append(
            format_table(
                ["NFTM", "NFTs", "Transactions", "Volume ($)"],
                [
                    [row.marketplace, row.nft_count, row.transaction_count, f"{row.volume_usd:,.0f}"]
                    for row in self.table_one()
                ],
            )
        )

        lines.append("")
        lines.append("Refinement funnel (Sec. IV)")
        lines.append(
            format_table(
                ["stage", "NFTs", "components", "accounts"],
                [
                    [row.stage, row.nft_count, row.component_count, row.account_count]
                    for row in self.funnel()
                ],
            )
        )

        result = self.result
        lines.append("")
        lines.append("Detection (Sec. IV-C/D)")
        lines.append(f"  Confirmed activities : {result.activity_count}")
        lines.append(
            f"  Artificial volume    : {wei_to_eth(result.total_wash_volume_wei):,.1f} ETH"
        )
        for method, count in sorted(result.count_by_method().items(), key=lambda kv: kv[0].value):
            lines.append(f"  {method.value:<16} : {count}")
        lines.append(f"  Venn regions         : {self.figure_venn()}")

        lines.append("")
        lines.append("Table II - wash trading per marketplace")
        lines.append(
            format_table(
                ["NFTM", "#NFT", "Volume ($)", "Share of venue volume"],
                [
                    [
                        row.marketplace,
                        row.washed_nft_count,
                        f"{row.wash_volume_usd:,.0f}",
                        f"{row.share_of_marketplace_volume:.2%}",
                    ]
                    for row in self.table_two()
                ],
            )
        )

        lifetime = self.figure_lifetime_cdf()
        lines.append("")
        lines.append("Temporal analysis (Fig. 4)")
        lines.append(
            f"  <= 1 day : {lifetime.activities_within_one_day}"
            f" ({lifetime.fraction_within_one_day:.1%})"
        )
        lines.append(
            f"  <= 10 days : {lifetime.activities_within_ten_days}"
            f" ({lifetime.fraction_within_ten_days:.1%})"
        )

        accounts_figure = self.figure_account_counts()
        lines.append("")
        lines.append("Accounts per activity (Fig. 6)")
        for key, fraction in accounts_figure.fractions.items():
            lines.append(f"  {key:>3} accounts : {accounts_figure.counts[key]:>5} ({fraction:.1%})")

        lines.append("")
        lines.append("Patterns (Fig. 7)")
        for key, count in self.figure_patterns().items():
            lines.append(f"  {key:<12}: {count}")

        serial = self.serial_traders()
        lines.append("")
        lines.append("Serial wash traders (Sec. V-D)")
        lines.append(
            f"  Serial accounts : {serial.serial_accounts} / {serial.total_accounts}"
            f" ({serial.serial_account_fraction:.1%})"
        )
        lines.append(
            f"  Activities with a serial participant : {serial.activities_with_serial}"
            f" ({serial.serial_activity_fraction:.1%})"
        )

        lines.append("")
        lines.append("Table III - token rewards and wash trading")
        lines.append(
            format_table(
                ["NFTM", "outcome", "#", "mean vol (ETH)", "mean gain/loss ($)", "total ($)"],
                [
                    [
                        column.marketplace,
                        column.outcome,
                        column.event_count,
                        f"{column.mean_volume_eth:,.2f}",
                        f"{column.mean_gain_or_loss_usd:,.0f}",
                        f"{column.total_gain_or_loss_usd:,.0f}",
                    ]
                    for column in self.table_three()
                ],
            )
        )

        resale = self.resale_profitability()
        lines.append("")
        lines.append("NFT resale profitability (Sec. VI-B)")
        lines.append(f"  Activities examined      : {resale.total_activities}")
        lines.append(f"  Never resold             : {resale.unsold_count} ({resale.unsold_fraction:.1%})")
        lines.append(f"  Success rate (price only): {resale.success_rate_gross():.1%}")
        lines.append(f"  Success rate (with fees) : {resale.success_rate_net():.1%}")
        lines.append(f"  Success rate (USD)       : {resale.success_rate_usd():.1%}")

        return "\n".join(lines)
