"""The combined detection pipeline (Sec. IV-C / IV-D).

Runs candidate search + refinement, applies the four per-component
confirmation techniques, then the repeated-SCC rule, and exposes the
aggregate views the paper reports: per-method counts, the Venn diagram
of the three transaction-analysis methods, and the confirmed activity
list the characterization and profitability stages consume.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionConfig, DetectionContext, Detector
from repro.core.detectors.common_exit import CommonExitDetector
from repro.core.detectors.common_funder import CommonFunderDetector
from repro.core.detectors.repeated_scc import confirm_repeated_components
from repro.core.detectors.self_trade import SelfTradeDetector
from repro.core.detectors.volume_match import VolumeMatchDetector
from repro.core.detectors.zero_risk import ZeroRiskDetector
from repro.core.refine import RefinementFunnel, RefinementResult
from repro.ingest.dataset import NFTDataset
from repro.services.labels import LabelRegistry


@dataclass
class PipelineResult:
    """Everything the pipeline produces, in one queryable object."""

    refinement: RefinementResult
    activities: List[WashTradingActivity]
    unconfirmed: List[CandidateComponent]

    # -- sizes ---------------------------------------------------------------
    @property
    def candidate_count(self) -> int:
        """Refined candidates examined by the detectors."""
        return len(self.refinement.candidates)

    @property
    def activity_count(self) -> int:
        """Confirmed wash trading activities."""
        return len(self.activities)

    @property
    def total_wash_volume_wei(self) -> int:
        """Total artificial volume across confirmed activities."""
        return sum(activity.volume_wei for activity in self.activities)

    # -- per-method views ---------------------------------------------------------
    def count_by_method(self) -> Dict[DetectionMethod, int]:
        """How many activities each method confirmed (methods overlap)."""
        counts: Counter[DetectionMethod] = Counter()
        for activity in self.activities:
            for method in activity.methods:
                counts[method] += 1
        return dict(counts)

    def _kind_counts(self, method: DetectionMethod) -> Dict[str, int]:
        """Split one method's confirmations by the ``kind`` evidence detail.

        The expected kinds are "internal" and "external" (always present
        in the result, even at zero); any unexpected kind value is
        counted under its own key rather than crashing the report.
        """
        counts = {"internal": 0, "external": 0}
        for activity in self.activities:
            evidence = activity.evidence_for(method)
            if evidence is not None:
                kind = str(evidence.details.get("kind", "internal"))
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def funder_kind_counts(self) -> Dict[str, int]:
        """Split of common-funder confirmations into internal / external."""
        return self._kind_counts(DetectionMethod.COMMON_FUNDER)

    def exit_kind_counts(self) -> Dict[str, int]:
        """Split of common-exit confirmations into internal / external."""
        return self._kind_counts(DetectionMethod.COMMON_EXIT)

    def venn_counts(self) -> Dict[FrozenSet[DetectionMethod], int]:
        """The Fig. 2 Venn diagram over the three transaction-analysis methods.

        Keys are the exact (non-empty) subsets of {zero-risk, common-funder,
        common-exit} an activity was confirmed by; activities confirmed only
        by self-trade or repeated-SCC do not appear.
        """
        analysis_methods = set(DetectionMethod.transaction_analysis_methods())
        counts: Dict[FrozenSet[DetectionMethod], int] = defaultdict(int)
        for activity in self.activities:
            subset = frozenset(activity.methods & analysis_methods)
            if subset:
                counts[subset] += 1
        return dict(counts)

    def confirmed_by_at_least(self, n_methods: int) -> int:
        """Activities confirmed by at least ``n_methods`` transaction-analysis methods."""
        analysis_methods = set(DetectionMethod.transaction_analysis_methods())
        return sum(
            1
            for activity in self.activities
            if len(activity.methods & analysis_methods) >= n_methods
        )

    # -- venue and NFT views -----------------------------------------------------------
    def activities_on(self, marketplace: str) -> List[WashTradingActivity]:
        """Activities whose dominant venue is ``marketplace``."""
        return [
            activity
            for activity in self.activities
            if activity.component.dominant_marketplace() == marketplace
        ]

    def washed_nfts(self) -> Set:
        """The set of NFTs with at least one confirmed activity."""
        return {activity.nft for activity in self.activities}

    def involved_accounts(self) -> Set[str]:
        """Every account participating in a confirmed activity."""
        return {
            account for activity in self.activities for account in activity.accounts
        }


def build_detectors(enabled_methods: Iterable[DetectionMethod]) -> List[Detector]:
    """The per-component detectors for a method set, in canonical order.

    Shared by the legacy pipeline, the columnar engine and the streaming
    scheduler so every path applies the confirmation techniques
    identically.
    """
    enabled = set(enabled_methods)
    detectors: List[Detector] = []
    if DetectionMethod.ZERO_RISK in enabled:
        detectors.append(ZeroRiskDetector())
    if DetectionMethod.COMMON_FUNDER in enabled:
        detectors.append(CommonFunderDetector())
    if DetectionMethod.COMMON_EXIT in enabled:
        detectors.append(CommonExitDetector())
    if DetectionMethod.SELF_TRADE in enabled:
        detectors.append(SelfTradeDetector())
    if DetectionMethod.VOLUME_MATCH in enabled:
        detectors.append(VolumeMatchDetector())
    return detectors


def collect_evidence(
    detectors: Sequence[Detector],
    component: CandidateComponent,
    context: DetectionContext,
) -> List[DetectionEvidence]:
    """Run every detector on one component; an empty list = unconfirmed."""
    evidence: List[DetectionEvidence] = []
    for detector in detectors:
        found = detector.detect(component, context)
        if found is not None:
            evidence.append(found)
    return evidence


def assemble_result(
    refinement: RefinementResult,
    evidence: Iterable[Sequence[DetectionEvidence]],
    enabled_methods: Iterable[DetectionMethod],
) -> PipelineResult:
    """The pipeline result of a refinement and its detector evidence.

    ``evidence`` holds one list per refined candidate, in candidate
    order (empty = no per-component technique fired).  Activities list
    the base-confirmed candidates first, then -- with repeated-SCC
    enabled -- the candidates :func:`confirm_repeated_components`
    confirms, each group in candidate order.  The legacy pipeline, the
    columnar engine and the streaming scheduler all assemble their
    results here.
    """
    activities: List[WashTradingActivity] = []
    unconfirmed: List[CandidateComponent] = []
    for component, found in zip(refinement.candidates, evidence):
        if found:
            activities.append(
                WashTradingActivity(component=component, evidence=list(found))
            )
        else:
            unconfirmed.append(component)
    if DetectionMethod.REPEATED_SCC in enabled_methods:
        repeated, unconfirmed = confirm_repeated_components(unconfirmed, activities)
        activities.extend(repeated)
    return PipelineResult(
        refinement=refinement, activities=activities, unconfirmed=unconfirmed
    )


class WashTradingPipeline:
    """End-to-end wash trading detection over an :class:`NFTDataset`.

    ``engine`` selects the execution backend: ``"legacy"`` (the default)
    runs the original networkx reference implementation, the oracle;
    ``"columnar"`` runs the production engine in :mod:`repro.engine`,
    the single-token funnel with its detectors on the money-flow cache
    (:class:`~repro.engine.context.CachingDetectionContext`), which the
    streaming scheduler runs too.  Both produce the same
    :class:`PipelineResult` (see ``tests/engine/test_parity.py``).
    """

    ENGINES = ("legacy", "columnar")

    def __init__(
        self,
        labels: LabelRegistry,
        is_contract: Callable[[str], bool],
        config: Optional[DetectionConfig] = None,
        enabled_methods: Optional[Iterable[DetectionMethod]] = None,
        funnel: Optional[RefinementFunnel] = None,
        engine: str = "legacy",
    ) -> None:
        # perfbench/ still asks for "kernel"; this alias goes when the
        # benchmark drops its kernel columns.
        engine = "columnar" if engine == "kernel" else engine
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {self.ENGINES}"
            )
        self.labels = labels
        self.is_contract = is_contract
        self.config = config or DetectionConfig()
        self.enabled_methods = (
            set(enabled_methods)
            if enabled_methods is not None
            else set(DetectionMethod.paper_methods())
        )
        self.funnel = funnel or RefinementFunnel(labels=labels, is_contract=is_contract)
        self.engine = engine

    def run(self, dataset: NFTDataset) -> PipelineResult:
        """Run refinement and every enabled confirmation technique."""
        if self.engine == "columnar":
            # Lazy import: the engine imports this module.
            from repro.engine.executor import run_columnar_pipeline

            return run_columnar_pipeline(
                dataset,
                labels=self.labels,
                is_contract=self.is_contract,
                config=self.config,
                enabled_methods=self.enabled_methods,
                skip_service_removal=self.funnel.skip_service_removal,
                skip_contract_removal=self.funnel.skip_contract_removal,
                skip_zero_volume_removal=self.funnel.skip_zero_volume_removal,
            )
        refinement = self.funnel.run(dataset)
        context = DetectionContext(
            dataset=dataset,
            labels=self.labels,
            is_contract=self.is_contract,
            config=self.config,
        )
        detectors = build_detectors(self.enabled_methods)
        return assemble_result(
            refinement,
            [
                collect_evidence(detectors, component, context)
                for component in refinement.candidates
            ],
            self.enabled_methods,
        )
