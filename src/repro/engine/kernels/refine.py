"""Kernel-tier refinement: the four-stage funnel over batched CSR.

The batch kernel engine's counterpart of
:func:`repro.engine.refine.refine_tokens`.  It routes every SCC
computation through :func:`repro.engine.kernels.csr.batch_token_components`:
one batched CSR + Tarjan pass per funnel stage for the whole token
slice, instead of a Python graph walk per token per stage.  Stage
semantics (the conditional per-token recompute rules, the zero-volume
filter, the stage statistics) are byte-for-byte those of the
interpreted path -- ``tests/engine/test_kernel_parity.py`` pins the
outputs equal.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.activity import CandidateComponent
from repro.engine.kernels.csr import batch_token_components
from repro.engine.refine import (
    STAGE_NAMES,
    ShardRefinement,
    StageAccumulator,
    TokenComponent,
    funnel_masks,
)
from repro.engine.store import TokenColumns

_EMPTY_MASK: FrozenSet[int] = frozenset()

#: The component lists of one surviving token after each funnel stage.
StagedComponents = Tuple[
    List[TokenComponent],
    List[TokenComponent],
    List[TokenComponent],
    List[TokenComponent],
]


def _staged_components(
    tokens: Sequence[TokenColumns],
    service_mask: FrozenSet[int],
    contract_mask: FrozenSet[int],
    combined_mask: FrozenSet[int],
    skip_zero_volume_removal: bool,
    account_count: int,
) -> List[Optional[StagedComponents]]:
    """Run the funnel stages batched; per-token stage component lists.

    ``None`` marks a token with no stage-1 component: removing nodes
    never creates a cycle, so such tokens leave the funnel entirely and
    contribute to no stage -- the same early-out the interpreted path
    takes.
    """
    stage1 = batch_token_components(tokens, _EMPTY_MASK, account_count)
    alive = [index for index, components in enumerate(stage1) if components]
    current = {index: stage1[index] for index in alive}

    if service_mask:
        targets = [
            index for index in alive if tokens[index].touched_by(service_mask)
        ]
        if targets:
            recomputed = batch_token_components(
                [tokens[index] for index in targets], service_mask, account_count
            )
            for index, components in zip(targets, recomputed):
                current[index] = components
    stage2 = dict(current)

    if contract_mask:
        targets = [
            index
            for index in alive
            if current[index] and tokens[index].touched_by(contract_mask)
        ]
        if targets:
            recomputed = batch_token_components(
                [tokens[index] for index in targets], combined_mask, account_count
            )
            for index, components in zip(targets, recomputed):
                current[index] = components
    stage3 = dict(current)

    results: List[Optional[StagedComponents]] = [None] * len(tokens)
    for index in alive:
        components = stage3[index]
        if components and not skip_zero_volume_removal:
            flags = tokens[index].payment_flags
            components = [
                component
                for component in components
                if any(flags[row] for row in component.rows)
            ]
        results[index] = (stage1[index], stage2[index], stage3[index], components)
    return results


def _candidates_of(
    accounts: Sequence[str],
    columns: TokenColumns,
    components: Iterable[TokenComponent],
) -> List[CandidateComponent]:
    return [
        CandidateComponent(
            nft=columns.nft,
            accounts=frozenset(accounts[member] for member in component.member_ids),
            transfers=tuple(columns.transfers[row] for row in component.rows),
        )
        for component in components
    ]


def refine_tokens_kernel(
    accounts: Sequence[str],
    tokens: Iterable[TokenColumns],
    service_ids: FrozenSet[int],
    contract_ids: FrozenSet[int],
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
    skip_zero_volume_removal: bool = False,
) -> ShardRefinement:
    """Kernel-backed equivalent of :func:`repro.engine.refine.refine_tokens`."""
    tokens = list(tokens)
    service_mask, contract_mask, combined_mask = funnel_masks(
        service_ids, contract_ids, skip_service_removal, skip_contract_removal
    )
    staged = _staged_components(
        tokens,
        service_mask,
        contract_mask,
        combined_mask,
        skip_zero_volume_removal,
        len(accounts),
    )
    stages = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidates: List[CandidateComponent] = []
    for columns, entry in zip(tokens, staged):
        if entry is None:
            continue
        for accumulator, components in zip(stages, entry):
            accumulator.add(components)
        candidates.extend(_candidates_of(accounts, columns, entry[3]))
    return ShardRefinement(candidates=candidates, stages=stages)
