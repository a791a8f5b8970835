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
parity proofs.  Per-token stage records fold into batch totals through
:class:`StageAccumulator`, and into the live scheduler's running totals
through :class:`FunnelMaintainer`, which also un-folds them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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


class StageRecord(NamedTuple):
    """One token's statistics at one funnel stage.

    Immutable, so token states, published serve versions and funnel
    partials can all share one record.  The raw account ids are kept so
    records of different tokens fold together (:class:`StageAccumulator`)
    without double-counting accounts shared between tokens.
    """

    name: str
    nft_count: int
    component_count: int
    account_ids: FrozenSet[int]

    def to_stage(self) -> FunnelStage:
        """The report-facing statistics record."""
        return FunnelStage(
            name=self.name,
            nft_count=self.nft_count,
            component_count=self.component_count,
            account_count=len(self.account_ids),
        )


#: The stage records of every token without a stage-1 component (the
#: common case), shared by all of them.
EMPTY_STAGES: Tuple[StageRecord, ...] = tuple(
    StageRecord(name, 0, 0, _EMPTY_MASK) for name in STAGE_NAMES
)


@dataclass
class StageAccumulator:
    """Per-stage funnel statistics summed over many tokens.

    The merge target of per-token stage records (:meth:`fold`) and of
    raw component lists (:meth:`add`); the distinct account ids are a
    set union, so an account shared between tokens counts once.
    """

    name: str
    nft_count: int = 0
    component_count: int = 0
    account_ids: Set[int] = field(default_factory=set)

    def add(self, components: Sequence[TokenComponent]) -> None:
        """Record one token's surviving components at this stage."""
        if not components:
            return
        self.nft_count += 1
        self.component_count += len(components)
        for component in components:
            self.account_ids.update(component.member_ids)

    def fold(self, record: StageRecord) -> None:
        """Add one token's (or one partial's) record."""
        self.nft_count += record.nft_count
        self.component_count += record.component_count
        self.account_ids |= record.account_ids

    def freeze(self) -> StageRecord:
        """The totals so far as an immutable record."""
        return StageRecord(
            self.name,
            self.nft_count,
            self.component_count,
            frozenset(self.account_ids),
        )

    def to_stage(self) -> FunnelStage:
        """Freeze into the report-facing statistics record."""
        return self.freeze().to_stage()


class _StageCounts:
    """Invertible statistics of one funnel stage across every token."""

    __slots__ = (
        "nft_count",
        "component_count",
        "account_tokens",
        "_crossed",
        "_record",
    )

    def __init__(self) -> None:
        self.nft_count = 0
        self.component_count = 0
        #: account id -> number of tokens contributing it;
        #: the key set is exactly the stage's distinct account union.
        self.account_tokens: Counter = Counter()
        #: Account ids that joined or left the key set since the last
        #: :meth:`materialize` (a retire-then-install of the same token
        #: crosses and re-crosses, so only a recheck tells a net move).
        self._crossed: Set[int] = set()
        self._record: Optional[StageRecord] = None

    def apply(self, stage: StageRecord, sign: int) -> None:
        if not stage.nft_count:
            return
        self.nft_count += sign * stage.nft_count
        self.component_count += sign * stage.component_count
        counts = self.account_tokens
        crossed = self._crossed
        for account_id in stage.account_ids:
            fresh = counts[account_id] + sign
            if fresh:
                counts[account_id] = fresh
                if fresh == 1 and sign > 0:
                    crossed.add(account_id)
            else:
                del counts[account_id]
                crossed.add(account_id)

    def materialize(self, name: str) -> StageRecord:
        """The stage as a record; while the account key set is
        unchanged the previous record's frozenset is shared (and the
        whole record, when the counts did not move either)."""
        record = self._record
        counts = self.account_tokens
        if record is None or any(
            (account_id in counts) != (account_id in record.account_ids)
            for account_id in self._crossed
        ):
            accounts = frozenset(counts)
        else:
            accounts = record.account_ids
        self._crossed.clear()
        if (
            record is None
            or accounts is not record.account_ids
            or record.nft_count != self.nft_count
            or record.component_count != self.component_count
        ):
            record = StageRecord(
                name, self.nft_count, self.component_count, accounts
            )
            self._record = record
        return record


class FunnelMaintainer:
    """The funnel over a changing set of token states, kept by deltas.

    Folding every token's stage records is O(tokens); the live path
    instead applies only what a tick changed.  Every per-token stage
    statistic is invertible -- ``nft_count`` and ``component_count``
    subtract, and the distinct-account union becomes a multiset
    (account id -> number of contributing tokens) whose key set *is*
    the union.  ``apply(old, new)`` retires one token's previous state
    and installs its replacement (either side None for an appearing or
    vanishing token; a state is anything with ``stages`` and
    ``candidates``).  :meth:`materialize` freezes the totals into one
    :class:`StageRecord` per stage.  The maintainer is exact: applied
    at every replacement of a token's state, it equals the full refold
    (:class:`StageAccumulator` over every state).
    """

    def __init__(self) -> None:
        self._stages: List[_StageCounts] = [
            _StageCounts() for _ in STAGE_NAMES
        ]
        self.candidate_count = 0

    def apply(self, old: Optional[object], new: Optional[object]) -> None:
        """Replace one token's contribution (None = absent on that side).

        Only the stages whose record changed value are retired and
        re-installed: a re-refined token whose funnel statistics did not
        move costs one record comparison per stage, and leaves the
        stage's account set untouched.
        """
        if old is new:
            return
        before = EMPTY_STAGES if old is None else old.stages
        after = EMPTY_STAGES if new is None else new.stages
        self.candidate_count += (0 if new is None else len(new.candidates)) - (
            0 if old is None else len(old.candidates)
        )
        if before is after:
            return
        for counts, retired, installed in zip(self._stages, before, after):
            if retired != installed:
                counts.apply(retired, -1)
                counts.apply(installed, 1)

    def materialize(self) -> Tuple[StageRecord, ...]:
        """The maintained totals, one record per stage.  A stage whose
        statistics did not move since the previous call returns the
        same record (and so the same account-id frozenset)."""
        return tuple(
            counts.materialize(name)
            for counts, name in zip(self._stages, STAGE_NAMES)
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


class FunnelMasks(NamedTuple):
    """The exclusion masks of funnel stages two and three."""

    service: FrozenSet[int]
    contract: FrozenSet[int]
    #: ``service | contract``: stage three excludes both.
    combined: FrozenSet[int]


def funnel_masks(
    service_ids: FrozenSet[int],
    contract_ids: FrozenSet[int],
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
) -> FunnelMasks:
    """The masks a funnel run applies, honouring the skip switches."""
    service = _EMPTY_MASK if skip_service_removal else service_ids
    contract = _EMPTY_MASK if skip_contract_removal else contract_ids
    return FunnelMasks(service, contract, service | contract)


class TokenRefinement(NamedTuple):
    """One token's funnel outcome: candidates plus one record per stage."""

    candidates: List[CandidateComponent]
    stages: Tuple[StageRecord, ...]


def _stage_records(staged: Sequence[List[TokenComponent]]) -> Tuple[StageRecord, ...]:
    """One record per stage; a stage that kept the previous stage's
    component list shares its account-id set."""
    records: List[StageRecord] = []
    previous = None
    ids = _EMPTY_MASK
    for empty, components in zip(EMPTY_STAGES, staged):
        if not components:
            records.append(empty)
            continue
        if components is not previous:
            previous = components
            # A list, not a generator: one generator object per token is
            # enough allocation churn to shift when the GC runs.
            ids = frozenset().union(*[c.member_ids for c in components])
        records.append(StageRecord(empty.name, 1, len(components), ids))
    return tuple(records)


def refine_token(
    accounts: Sequence[str],
    columns: TokenColumns,
    masks: FunnelMasks,
    skip_zero_volume_removal: bool = False,
) -> TokenRefinement:
    """Run the four funnel stages over one token.

    ``accounts`` is the store's id -> address table.  A stage only
    recomputes the token's components when its mask touches one of the
    token's accounts; a token without a stage-1 component returns the
    shared :data:`EMPTY_STAGES`.
    """
    # Most tokens only ever pass from owner to new owner: each row's
    # sender is the previous row's recipient, through row_count + 1
    # distinct accounts.  That graph is a simple path, which has no
    # cycle, so the SCC walk is skipped.
    senders = columns.senders
    if len(columns.account_ids) == len(senders) + 1 and (
        senders[1:] == columns.recipients[:-1]
    ):
        return TokenRefinement([], EMPTY_STAGES)
    components = token_components(columns, _EMPTY_MASK)
    if not components:
        return TokenRefinement([], EMPTY_STAGES)
    staged = [components]

    if masks.service and columns.touched_by(masks.service):
        components = token_components(columns, masks.service)
    staged.append(components)

    if components and masks.contract and columns.touched_by(masks.contract):
        components = token_components(columns, masks.combined)
    staged.append(components)

    if components and not skip_zero_volume_removal:
        flags = columns.payment_flags
        kept = [
            component
            for component in components
            if any(flags[row] for row in component.rows)
        ]
        if len(kept) != len(components):
            components = kept
    staged.append(components)

    return TokenRefinement(
        candidates=[
            CandidateComponent(
                nft=columns.nft,
                accounts=frozenset(accounts[member] for member in component.member_ids),
                transfers=tuple(columns.transfers[row] for row in component.rows),
            )
            for component in components
        ],
        stages=_stage_records(staged),
    )


@dataclass
class BatchRefinement:
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
) -> BatchRefinement:
    """Run the four funnel stages over a slice of the store's tokens.

    ``service_ids`` and ``contract_ids`` are the precomputed exclusion
    masks of stages two and three.  Candidates come out in token order,
    matching the order the legacy funnel flattens its per-NFT component
    dictionary in.
    """
    masks = funnel_masks(
        service_ids, contract_ids, skip_service_removal, skip_contract_removal
    )
    stages = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidates: List[CandidateComponent] = []
    for columns in tokens:
        refined = refine_token(accounts, columns, masks, skip_zero_volume_removal)
        if refined.stages is EMPTY_STAGES:
            continue
        for accumulator, record in zip(stages, refined.stages):
            accumulator.fold(record)
        candidates.extend(refined.candidates)
    return BatchRefinement(candidates=candidates, stages=stages)
