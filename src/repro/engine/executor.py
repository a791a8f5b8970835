"""Serial execution of the columnar detection engine.

The executor refines every token of the store in one pass, runs the
per-component confirmation techniques over the refined candidates in
token order, then applies the repeated-SCC rule, which needs the global
pool of confirmed account sets -- exactly where the legacy pipeline
applies it.  The detectors see the dataset through the same narrow
surface the streaming scheduler uses: a :class:`TransactionView` over
the per-account transaction index and an :class:`AccountSetPredicate`
over the interned contract addresses, behind the money-flow cache of
:mod:`repro.engine.context`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.activity import (
    CandidateComponent,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.pipeline import build_detectors, collect_evidence
from repro.core.detectors.repeated_scc import confirm_repeated_components
from repro.core.refine import RefinementResult
from repro.engine.context import CachingDetectionContext
from repro.engine.refine import refine_tokens


class AccountSetPredicate:
    """An account predicate frozen into membership of an address set.

    Stands in for live callables (``world.is_contract`` and friends) so
    a detection context answers from a fixed snapshot of the store.
    """

    def __init__(self, members: Iterable[str]) -> None:
        self.members = frozenset(members)

    def __call__(self, address: str) -> bool:
        return address in self.members


class TransactionView:
    """The minimal dataset surface detectors touch: ``transactions_of``."""

    def __init__(self, account_transactions: Dict[str, list]) -> None:
        self.account_transactions = account_transactions

    def transactions_of(self, account: str) -> list:
        """All standard transactions collected for an account."""
        return self.account_transactions.get(account, [])


def run_columnar_pipeline(
    dataset,
    labels,
    is_contract: Callable[[str], bool],
    config: Optional[DetectionConfig] = None,
    enabled_methods: Optional[Iterable[DetectionMethod]] = None,
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
    skip_zero_volume_removal: bool = False,
) -> Tuple[RefinementResult, List[WashTradingActivity], List[CandidateComponent]]:
    """Run the full engine pipeline and return its pieces.

    Returns ``(refinement, activities, unconfirmed)``; the caller (the
    ``WashTradingPipeline`` engine branch) wraps them into the regular
    :class:`PipelineResult`.  The detectors read the run through a
    :class:`CachingDetectionContext`, so each account's money flows are
    derived once however many components it sits in.
    """
    store = dataset.columnar_store()
    methods = (
        frozenset(enabled_methods)
        if enabled_methods is not None
        else frozenset(DetectionMethod.paper_methods())
    )
    # Skipped stages never pay the per-account predicate cost (a bytecode
    # or label check per interned account on real deployments).
    service_ids = (
        frozenset()
        if skip_service_removal
        else store.ids_matching(labels.is_graph_excluded_service)
    )
    contract_ids = (
        frozenset() if skip_contract_removal else store.ids_matching(is_contract)
    )

    refined = refine_tokens(
        store.accounts,
        [store.tokens[nft] for nft in store.nfts()],
        service_ids=service_ids,
        contract_ids=contract_ids,
        skip_service_removal=skip_service_removal,
        skip_contract_removal=skip_contract_removal,
        skip_zero_volume_removal=skip_zero_volume_removal,
    )

    # ``is_contract`` covers only interned accounts (transfer endpoints);
    # no current detector consults it.  A detector needing bytecode
    # checks on arbitrary counterparties must widen this set.
    context = CachingDetectionContext(
        DetectionContext(
            dataset=TransactionView(dataset.account_transactions),
            labels=labels,
            is_contract=AccountSetPredicate(store.addresses_of(contract_ids)),
            config=config or DetectionConfig(),
        )
    )
    detectors = build_detectors(methods)
    activities: List[WashTradingActivity] = []
    unconfirmed: List[CandidateComponent] = []
    for component in refined.candidates:
        evidence = collect_evidence(detectors, component, context)
        if evidence:
            activities.append(
                WashTradingActivity(component=component, evidence=evidence)
            )
        else:
            unconfirmed.append(component)

    if DetectionMethod.REPEATED_SCC in methods:
        repeated, unconfirmed = confirm_repeated_components(unconfirmed, activities)
        activities.extend(repeated)

    refinement = RefinementResult(
        candidates=refined.candidates,
        stages=[accumulator.to_stage() for accumulator in refined.stages],
    )
    return refinement, activities, unconfirmed
