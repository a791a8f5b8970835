"""One answer-parity decision against the legacy networkx oracle.

:func:`reference` runs the oracle over a causally clamped dataset
(``build_dataset(to_block=B)`` sees exactly what a live follower at
block ``B`` saw); :func:`result_mismatches` compares any
:class:`~repro.core.detectors.pipeline.PipelineResult` with it, one
readable line per divergence.  ``python -m repro serve --verify``, the
scenario runner and the parity tests all decide with these two, and
:func:`repro.serve.parity.serving_parity_mismatches` walks the query
surface against the same reference.  Importing this module leaves
networkx unloaded; only :func:`reference` loads it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Tuple

from repro.core.activity import CandidateComponent, DetectionMethod, WashTradingActivity
from repro.core.detectors.pipeline import PipelineResult, WashTradingPipeline
from repro.ingest.dataset import build_dataset


def component_fingerprint(component: CandidateComponent) -> Tuple:
    """Value identity of one candidate: its NFT, accounts and transfers."""
    return (
        component.nft.contract,
        component.nft.token_id,
        tuple(sorted(component.accounts)),
        tuple(sorted(transfer.tx_hash for transfer in component.transfers)),
    )


def activity_fingerprint(activity: WashTradingActivity) -> Tuple:
    """Full value identity of one activity (evidence details included)."""
    return (
        activity.nft.contract,
        activity.nft.token_id,
        tuple(sorted(activity.accounts)),
        tuple(sorted(method.value for method in activity.methods)),
        tuple(sorted(t.tx_hash for t in activity.component.transfers)),
        tuple(
            sorted(
                repr(sorted(evidence.details.items()))
                for evidence in activity.evidence
            )
        ),
    )


def reference(
    world,
    to_block: Optional[int] = None,
    enabled_methods: Optional[Iterable[DetectionMethod]] = None,
) -> PipelineResult:
    """The legacy oracle's answer over the world's chain up to ``to_block``."""
    dataset = build_dataset(
        world.node, world.marketplace_addresses, to_block=to_block
    )
    return WashTradingPipeline(
        labels=world.labels,
        is_contract=world.is_contract,
        enabled_methods=enabled_methods,
        engine="legacy",
    ).run(dataset)


def result_mismatches(result: PipelineResult, reference: PipelineResult) -> List[str]:
    """Every way ``result`` differs from ``reference``; [] = parity.

    Candidates, activities and unconfirmed candidates compare as
    multisets of fingerprints, so their order does not matter.
    """
    problems: List[str] = []
    if result.refinement.stages != reference.refinement.stages:
        problems.append("funnel stages diverge")
    for name, fingerprint, part in (
        ("candidates", component_fingerprint, lambda r: r.refinement.candidates),
        ("confirmed activities", activity_fingerprint, lambda r: r.activities),
        ("unconfirmed candidates", component_fingerprint, lambda r: r.unconfirmed),
    ):
        ours, theirs = part(result), part(reference)
        if Counter(map(fingerprint, ours)) != Counter(map(fingerprint, theirs)):
            problems.append(
                f"{name} diverge: {len(ours)} vs reference {len(theirs)}"
            )
    for name, view in (
        ("per-method counts", PipelineResult.count_by_method),
        ("method venn counts", PipelineResult.venn_counts),
        ("funder kind counts", PipelineResult.funder_kind_counts),
        ("exit kind counts", PipelineResult.exit_kind_counts),
        ("washed NFT sets", PipelineResult.washed_nfts),
    ):
        if view(result) != view(reference):
            problems.append(f"{name} diverge")
    return problems
