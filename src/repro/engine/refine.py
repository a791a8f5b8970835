"""Mask-based candidate search and refinement over columnar storage.

This is the engine counterpart of :class:`repro.core.refine.RefinementFunnel`.
The legacy funnel rebuilds every per-NFT networkx graph at each stage
(``without_nodes`` + full SCC recompute); here each refinement stage is
an *exclusion mask* -- a frozen set of interned account ids -- and a
stage only recomputes a token's components when the mask actually
touches one of the token's accounts.  Tokens with no candidate component
at the first stage are dropped immediately: removing nodes from a graph
can never create a new cycle, so they can never re-enter the funnel.

The funnel produces exactly the same :class:`CandidateComponent` objects
and per-stage statistics as the legacy path; ``tests/engine`` holds the
parity proofs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

from repro.core.activity import CandidateComponent
from repro.core.refine import FunnelStage, RefinementFunnel
from repro.core.scc import kept_components_adjacency
from repro.engine.store import TokenColumns

#: Stage names, shared with the legacy funnel so reports stay identical.
STAGE_NAMES: Tuple[str, str, str, str] = (
    RefinementFunnel.STAGE_CANDIDATES,
    RefinementFunnel.STAGE_SERVICES_REMOVED,
    RefinementFunnel.STAGE_CONTRACTS_REMOVED,
    RefinementFunnel.STAGE_NONZERO_VOLUME,
)

_EMPTY_MASK: FrozenSet[int] = frozenset()


class TokenComponent(NamedTuple):
    """One kept SCC of one token: interned member ids plus row indices."""

    member_ids: FrozenSet[int]
    rows: Tuple[int, ...]


def _sorted_union(left: array, right: array) -> array:
    """Union of two sorted distinct-id arrays as a sorted distinct array.

    ``sorted`` over the concatenation is effectively linear here --
    timsort gallops across the two pre-sorted runs -- so folding per-token
    statistics together never hashes an account id.  The inputs are
    treated as immutable and may be returned directly.
    """
    if not left:
        return right
    if not right:
        return left
    fused = sorted(chain(left, right))
    out = array("q")
    previous = None
    for value in fused:
        if value != previous:
            out.append(value)
            previous = value
    return out


@dataclass
class StageAccumulator:
    """Mergeable per-stage funnel statistics.

    Unlike :class:`FunnelStage` this keeps the raw account ids, so
    statistics computed independently per token can be merged without
    double-counting accounts shared between tokens.  Ids live in a
    sorted, distinct ``array("q")``: :meth:`add` buffers one token's
    member ids in a small scratch set, and :meth:`merge` /
    :meth:`to_stage` fold the buffer in with a sorted-array union, so
    merges are linear array fusions instead of per-token hash-set
    churn.
    """

    name: str
    nft_count: int = 0
    component_count: int = 0
    _sorted_ids: array = field(default_factory=lambda: array("q"))
    _fresh_ids: Set[int] = field(default_factory=set)

    def add(self, components: Sequence[TokenComponent]) -> None:
        """Record one token's surviving components at this stage."""
        if not components:
            return
        self.nft_count += 1
        self.component_count += len(components)
        for component in components:
            self._fresh_ids.update(component.member_ids)

    def _normalized(self) -> array:
        """The distinct ids seen so far, as one sorted array."""
        if self._fresh_ids:
            self._sorted_ids = _sorted_union(
                self._sorted_ids, array("q", sorted(self._fresh_ids))
            )
            self._fresh_ids = set()
        return self._sorted_ids

    @property
    def account_ids(self) -> Set[int]:
        """Materialized view of the distinct account ids recorded."""
        return set(self._normalized())

    def merge(self, other: "StageAccumulator") -> None:
        """Fold another accumulator's statistics into this one."""
        self.nft_count += other.nft_count
        self.component_count += other.component_count
        self._sorted_ids = _sorted_union(self._normalized(), other._normalized())

    def to_stage(self) -> FunnelStage:
        """Freeze into the report-facing statistics record."""
        return FunnelStage(
            name=self.name,
            nft_count=self.nft_count,
            component_count=self.component_count,
            account_count=len(self._normalized()),
        )


def token_components(
    columns: TokenColumns, excluded: FrozenSet[int]
) -> List[TokenComponent]:
    """Kept SCCs of one token over the rows surviving an exclusion mask.

    A row survives when neither endpoint is excluded; components follow
    the paper's rule (>= 2 nodes, or a single node with a self-loop) and
    each carries the surviving rows whose both endpoints it contains.
    """
    senders = columns.senders
    recipients = columns.recipients
    local_ids: dict[int, int] = {}
    nodes: List[int] = []
    adjacency: List[List[int]] = []
    self_loop: List[bool] = []
    surviving_rows: List[int] = []
    # Multigraph edges are deduplicated here, at build time, keeping the
    # first occurrence: repeated successors only make every Tarjan walk
    # re-check an already-visited node, and first-occurrence order
    # preserves the walk's discovery (and thus emission) order exactly.
    seen_edges: Set[Tuple[int, int]] = set()

    for row in range(len(senders)):
        sender = senders[row]
        recipient = recipients[row]
        if sender in excluded or recipient in excluded:
            continue
        surviving_rows.append(row)
        local_sender = local_ids.get(sender)
        if local_sender is None:
            local_sender = len(nodes)
            local_ids[sender] = local_sender
            nodes.append(sender)
            adjacency.append([])
            self_loop.append(False)
        local_recipient = local_ids.get(recipient)
        if local_recipient is None:
            local_recipient = len(nodes)
            local_ids[recipient] = local_recipient
            nodes.append(recipient)
            adjacency.append([])
            self_loop.append(False)
        edge = (local_sender, local_recipient)
        if edge not in seen_edges:
            seen_edges.add(edge)
            adjacency[local_sender].append(local_recipient)
        if local_sender == local_recipient:
            self_loop[local_sender] = True

    if not nodes:
        return []
    kept = kept_components_adjacency(len(nodes), adjacency, self_loop)
    if not kept:
        return []

    component_of = [-1] * len(nodes)
    for position, members in enumerate(kept):
        for member in members:
            component_of[member] = position
    rows_of: List[List[int]] = [[] for _ in kept]
    for row in surviving_rows:
        local_sender = local_ids[senders[row]]
        local_recipient = local_ids[recipients[row]]
        position = component_of[local_sender]
        if position != -1 and position == component_of[local_recipient]:
            rows_of[position].append(row)

    components: List[TokenComponent] = []
    for position, members in enumerate(kept):
        rows = rows_of[position]
        if not rows:
            continue
        components.append(
            TokenComponent(
                member_ids=frozenset(nodes[member] for member in members),
                rows=tuple(rows),
            )
        )
    return components


@dataclass
class ShardRefinement:
    """Refinement output of a batch of tokens: candidates plus stage statistics."""

    candidates: List[CandidateComponent]
    stages: List[StageAccumulator]


def refine_tokens(
    accounts: Sequence[str],
    tokens: Iterable[TokenColumns],
    service_ids: FrozenSet[int],
    contract_ids: FrozenSet[int],
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
    skip_zero_volume_removal: bool = False,
) -> ShardRefinement:
    """Run the four funnel stages over a slice of the store's tokens.

    ``accounts`` is the store's id -> address table; ``service_ids`` and
    ``contract_ids`` are the precomputed exclusion masks of stages two
    and three.  Candidates come out in token order, matching the order
    the legacy funnel flattens its per-NFT component dictionary in.
    """
    stages = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidates: List[CandidateComponent] = []
    # The per-stage masks are loop-invariant; build them once.
    service_mask = _EMPTY_MASK if skip_service_removal else service_ids
    contract_mask = _EMPTY_MASK if skip_contract_removal else contract_ids
    combined_mask = service_mask | contract_mask

    for columns in tokens:
        components = token_components(columns, _EMPTY_MASK)
        if not components:
            continue
        stages[0].add(components)

        if service_mask and columns.touched_by(service_mask):
            components = token_components(columns, service_mask)
        stages[1].add(components)

        if components and contract_mask and columns.touched_by(contract_mask):
            components = token_components(columns, combined_mask)
        stages[2].add(components)

        if components and not skip_zero_volume_removal:
            flags = columns.payment_flags
            components = [
                component
                for component in components
                if any(flags[row] for row in component.rows)
            ]
        stages[3].add(components)

        for component in components:
            candidates.append(
                CandidateComponent(
                    nft=columns.nft,
                    accounts=frozenset(
                        accounts[member] for member in component.member_ids
                    ),
                    transfers=tuple(
                        columns.transfers[row] for row in component.rows
                    ),
                )
            )

    return ShardRefinement(candidates=candidates, stages=stages)
