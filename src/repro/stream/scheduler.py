"""Dirty-token re-detection over a growing columnar store.

The batch engine refines and confirms every token on every run.  The
scheduler instead keeps one :class:`TokenState` per token (its funnel
stage statistics, refined candidates and per-candidate detector
evidence) and splits each tick's work by what actually changed:

* **Re-refine + re-detect** the *dirty* tokens -- tokens whose own rows
  changed (new transfers or a rollback).  A token's refinement reads
  only its own rows and the exclusion masks, and an account's mask
  membership is fixed when it is interned, so nothing else can move it.
* **Re-detect only** the tokens holding a candidate with a member whose
  collected transaction list changed (the detectors read exactly the
  members' histories).  The held stages and candidates are reused; an
  inverted member-account -> tokens index finds these tokens.  Given
  the earliest timestamp at which each member's list changed, only the
  detectors whose history window reaches that timestamp run
  (``Detector.history_may_change``); the others' held evidence is
  reused.  A token whose evidence equals its old evidence is left
  untouched and is *not* reported downstream.

One money-flow cache
(:class:`~repro.engine.context.CachingDetectionContext`, the batch
engine's detection context too) lives as long as the scheduler: each
tick first folds the appended transactions of every changed account
into its entry (and drops the entries of lists a rollback truncated),
and an account leaves the cache when it leaves the member index, so a
tick's detection work follows the new transactions, not the length of
the histories.  Every call therefore reports its history changes
(``process(touched=...)``).

The live funnel is the paper's: service, contract and zero-volume
removal always apply.  Ablating a stage is a batch study, run through
``WashTradingPipeline``'s funnel switches.

The global repeated-SCC rule (Sec. IV-C v) is maintained incrementally:
a multiset of base-confirmed account sets is updated as tokens are
reprocessed, and an inverted index from account set to the tokens
holding an unconfirmed candidate with that set pinpoints exactly which
other tokens flip when a set enters or leaves the confirmed pool.

:meth:`DirtyTokenScheduler.result` assembles a
:class:`~repro.core.detectors.pipeline.PipelineResult` that is
*identical* -- same candidate order, same activities, same funnel
statistics -- to a batch ``WashTradingPipeline(engine="columnar")`` run
over the same data (pinned by ``tests/stream``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionContext
from repro.core.detectors.pipeline import (
    PipelineResult,
    build_detectors,
    collect_evidence,
)
from repro.core.refine import RefinementResult
from repro.engine.context import CachingDetectionContext
from repro.engine.refine import (
    STAGE_NAMES,
    StageAccumulator,
    StageRecord,
    TokenRefinement,
    funnel_masks,
    refine_token,
)
from repro.engine.store import ColumnarTransferStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: Key identifying one confirmed activity across recomputations.
ActivityKey = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: Account -> earliest timestamp at which its collected transaction
#: list changed; ``None`` when any part of it may have (a rollback
#: truncated it, or it is new).
HistoryChanges = Mapping[str, Optional[int]]

#: ``_change_since`` for a candidate none of whose members changed.
_UNCHANGED = object()


@dataclass
class TokenState:
    """Everything the scheduler remembers about one token."""

    #: Per-token funnel statistics, one immutable record per stage
    #: (:data:`~repro.engine.refine.EMPTY_STAGES` when the token has no
    #: candidate component).
    stages: Tuple[StageRecord, ...]
    #: Refined candidates, in engine order.
    candidates: List[CandidateComponent]
    #: Per-candidate detector evidence; an empty list = base-unconfirmed.
    evidence: List[List[DetectionEvidence]]


@dataclass
class TickReport:
    """Detection-state changes caused by one scheduler pass."""

    #: Tokens whose detection state may have moved: re-refined tokens,
    #: history-only re-detections whose evidence changed, and
    #: repeated-SCC flips.
    dirty_token_count: int = 0
    #: The same tokens by key, in deterministic (first-seen) order --
    #: the precise invalidation set for downstream result caches.  A
    #: history-only re-detection with unchanged evidence is absent: its
    #: records, funnel stats and rollups are provably unchanged.
    dirty_nfts: Tuple[NFTKey, ...] = ()
    #: Activities confirmed this tick, in deterministic token order.
    newly_confirmed: List[WashTradingActivity] = field(default_factory=list)
    #: NFTs that gained their first confirmed activity this tick.
    newly_flagged: List[NFTKey] = field(default_factory=list)
    #: Previously confirmed activities that no longer hold, in the same
    #: deterministic token order.  An activity lands here when its
    #: component dissolved (account lists changed, repeated-SCC pool
    #: flipped off) or when a chain reorg rolled its transfers back.
    retracted: List[WashTradingActivity] = field(default_factory=list)

    @property
    def retracted_count(self) -> int:
        """Number of confirmed activities withdrawn this tick."""
        return len(self.retracted)


def _repeated_evidence(component: CandidateComponent) -> DetectionEvidence:
    """The evidence record ``confirm_repeated_components`` would attach."""
    return DetectionEvidence(
        method=DetectionMethod.REPEATED_SCC,
        details={"matched_accounts": sorted(component.accounts)},
    )


def _activity_key(component: CandidateComponent) -> ActivityKey:
    return (
        tuple(sorted(component.accounts)),
        tuple(sorted(transfer.tx_hash for transfer in component.transfers)),
    )


def _change_since(component: CandidateComponent, touched: HistoryChanges):
    """The earliest history change among the component's members:
    ``_UNCHANGED`` when none changed, ``None`` when one may have
    changed anywhere."""
    since = _UNCHANGED
    for account in component.accounts:
        if account not in touched:
            continue
        changed_at = touched[account]
        if changed_at is None:
            return None
        if since is _UNCHANGED or changed_at < since:
            since = changed_at
    return since


class DirtyTokenScheduler:
    """Incrementally maintained detection state over a live store."""

    def __init__(
        self,
        store: ColumnarTransferStore,
        labels,
        is_contract: Callable[[str], bool],
        enabled_methods: Optional[Iterable[DetectionMethod]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.store = store
        self.labels = labels
        self.is_contract = is_contract
        self.methods = (
            frozenset(enabled_methods)
            if enabled_methods is not None
            else frozenset(DetectionMethod.paper_methods())
        )
        self.detectors = build_detectors(self.methods)
        self._repeat_enabled = DetectionMethod.REPEATED_SCC in self.methods

        #: Exclusion masks, grown as new accounts are interned.
        self._service_ids: Set[int] = set()
        self._contract_ids: Set[int] = set()
        self._classified_accounts = 0
        self._masks = funnel_masks(frozenset(), frozenset())

        self.states: Dict[NFTKey, TokenState] = {}
        #: First-seen position of each token; mirrors store order.  A
        #: monotone serial (never reused) so positions stay unique even
        #: after reorg-vanished tokens are forgotten.
        self._token_order: Dict[NFTKey, int] = {}
        self._order_serial = 0
        #: Multiset of account sets of base-confirmed activities.
        self._confirmed_pool: Counter = Counter()
        #: Account set -> tokens holding a base-unconfirmed candidate
        #: with exactly that set (repeated-SCC flip propagation).
        self._unconfirmed_index: Dict[FrozenSet[str], Set[NFTKey]] = {}
        #: Candidate member account -> tokens holding a candidate with
        #: that member (history-only re-detection).
        self._member_index: Dict[str, Set[NFTKey]] = {}
        #: Currently confirmed activities per token, keyed for diffing.
        self._confirmed: Dict[NFTKey, Dict[ActivityKey, WashTradingActivity]] = {}
        self.confirmed_activity_count = 0
        #: The cross-tick detection cache and the accounts that left the
        #: member index this tick.
        self._cache: Optional[CachingDetectionContext] = None
        self._departed: Set[str] = set()

        self._metric_dirty = self.registry.counter(
            "scheduler_dirty_tokens_total",
            "Tokens passed downstream across all ticks (re-refined, "
            "evidence changed, repeated-SCC flips).",
        )
        self._metric_redetected = self.registry.counter(
            "scheduler_redetected_tokens_total",
            "History-only re-detections across all ticks (evidence "
            "changed or not).",
        )
        self._metric_detector_skips = self.registry.counter(
            "scheduler_detector_skips_total",
            "Detector runs a history-only re-detection skipped because "
            "the change lay outside the detector's history window.",
        )
        self._metric_confirmations = self.registry.counter(
            "scheduler_confirmations_total",
            "Activities newly confirmed across all ticks.",
        )
        self._metric_retractions = self.registry.counter(
            "scheduler_retractions_total",
            "Confirmed activities retracted across all ticks.",
        )
        self._metric_tracked = self.registry.gauge(
            "scheduler_tracked_tokens", "Tokens with detection state held."
        )
        self._metric_confirmed = self.registry.gauge(
            "scheduler_confirmed_activities",
            "Currently confirmed activities across all tokens.",
        )

    # -- queries -----------------------------------------------------------
    @property
    def flagged_nfts(self) -> Set[NFTKey]:
        """NFTs with at least one currently confirmed activity."""
        return {nft for nft, entries in self._confirmed.items() if entries}

    @property
    def flagged_nft_count(self) -> int:
        return sum(1 for entries in self._confirmed.values() if entries)

    def order_of(self, nft: NFTKey) -> int:
        """First-seen position of a known token (mirrors store order)."""
        return self._token_order[nft]

    def confirmed_activities(
        self, nft: NFTKey
    ) -> Dict[ActivityKey, WashTradingActivity]:
        """The token's currently confirmed activities, keyed by identity.

        The read-model hook of the serving layer: after a tick, the
        entries of every dirty token are exactly current -- including
        activities whose *evidence* evolved without the identity
        changing, which the alert stream deliberately does not
        re-announce.  Returns a copy; mutating it never touches
        scheduler state.
        """
        return dict(self._confirmed.get(nft, ()))

    def tokens_with_members(self, accounts: Iterable[str]) -> Set[NFTKey]:
        """Tokens holding a candidate with one of ``accounts`` as member."""
        tokens: Set[NFTKey] = set()
        index = self._member_index
        for account in accounts:
            holders = index.get(account)
            if holders:
                tokens |= holders
        return tokens

    # -- tick processing ---------------------------------------------------
    def process(
        self,
        dirty_tokens: Iterable[NFTKey],
        context: DetectionContext,
        redetect: Iterable[NFTKey] = (),
        *,
        touched: HistoryChanges,
    ) -> TickReport:
        """Re-refine and re-detect the dirty tokens, re-detect the
        ``redetect`` tokens on their held candidates; diff the outcome.

        ``redetect`` names tokens whose rows did not change but a
        candidate member's transaction history did (see
        :meth:`tokens_with_members`); entries also in ``dirty_tokens``
        or without held state are ignored.

        ``touched`` maps every account whose collected transaction list
        changed since the previous call to the earliest timestamp of
        the change (``None``: anywhere), as
        :attr:`~repro.stream.cursor.CursorTick.touched_since` reports
        it.  The detection cache is kept across calls on the same
        ``context`` (those accounts are refreshed first), and a
        history-only re-detection runs only the detectors that can see
        the change.  A caller whose histories never change passes
        ``touched={}``.

        Dirty tokens no longer present in the store -- every one of
        their transfers was rolled back by a chain reorg -- are *fully
        retired*: their contribution to the repeated-SCC pool is undone,
        their confirmed activities are retracted, and the scheduler
        forgets them entirely, so a later canonical re-appearance is
        processed like a brand-new token.
        """
        live: List[NFTKey] = []
        vanished: List[NFTKey] = []
        seen: Set[NFTKey] = set()
        for nft in dirty_tokens:
            if nft in seen:
                continue
            seen.add(nft)
            if nft in self.store.tokens:
                live.append(nft)
            elif nft in self.states:
                vanished.append(nft)
        history = sorted(
            {nft for nft in redetect if nft not in seen and nft in self.states},
            key=self._token_order.__getitem__,
        )
        report = TickReport()
        # Before anything else, even on a tick with nothing to re-detect:
        # a later tick must not read a list this tick changed.
        context = self._detection_context(context, touched)
        if not live and not vanished and not history:
            return report
        self._refresh_masks()

        with self.registry.span("refine", tokens=len(live)):
            refinements = self._refine_live(live) if live else []

        flipped_sets: Set[FrozenSet[str]] = set()
        changed: List[NFTKey] = []
        skipped = 0
        with self.registry.span("detect", tokens=len(live), redetected=len(history)):
            for nft in vanished:
                self._retire_state(nft, self.states.pop(nft), flipped_sets)
            for index, nft in enumerate(live):
                if nft not in self._token_order:
                    self._token_order[nft] = self._order_serial
                    self._order_serial += 1
                old = self.states.get(nft)
                if old is not None:
                    self._retire_state(nft, old, flipped_sets)
                state = self._detect_state(refinements[index], context)
                self._install_state(nft, state, flipped_sets)
            for nft in history:
                old = self.states[nft]
                evidence, token_skips = self._redetect(old, touched, context)
                skipped += token_skips
                if evidence == old.evidence:
                    continue
                # A fresh state object: published serve versions share
                # the old one, which must never change under them.
                self._retire_state(nft, old, flipped_sets)
                self._install_state(
                    nft,
                    TokenState(
                        stages=old.stages, candidates=old.candidates, evidence=evidence
                    ),
                    flipped_sets,
                )
                changed.append(nft)

        with self.registry.span("diff"):
            affected = set(live) | set(vanished) | set(changed)
            if self._repeat_enabled:
                for account_set in flipped_sets:
                    affected |= self._unconfirmed_index.get(account_set, set())
            ordered_affected = sorted(affected, key=self._token_order.__getitem__)
            report.dirty_token_count = len(ordered_affected)
            report.dirty_nfts = tuple(ordered_affected)

            for nft in ordered_affected:
                entries = self._confirmed_entries(nft)
                previous = self._confirmed.get(nft, {})
                for key, activity in entries.items():
                    if key not in previous:
                        report.newly_confirmed.append(activity)
                for key, activity in previous.items():
                    if key not in entries:
                        report.retracted.append(activity)
                if entries and not previous:
                    report.newly_flagged.append(nft)
                self.confirmed_activity_count += len(entries) - len(previous)
                if entries:
                    self._confirmed[nft] = entries
                else:
                    self._confirmed.pop(nft, None)
            for nft in vanished:
                self._token_order.pop(nft, None)

        if self._departed:
            self._cache.forget(
                account
                for account in self._departed
                if account not in self._member_index
            )
            self._departed.clear()
        self._metric_dirty.inc(report.dirty_token_count)
        self._metric_redetected.inc(len(history))
        self._metric_detector_skips.inc(skipped)
        self._metric_confirmations.inc(len(report.newly_confirmed))
        self._metric_retractions.inc(len(report.retracted))
        self._metric_tracked.set(len(self.states))
        self._metric_confirmed.set(self.confirmed_activity_count)
        return report

    # -- final assembly ----------------------------------------------------
    def result(self) -> PipelineResult:
        """The batch-identical pipeline result of the current state.

        Candidates come out in store (first-seen) order; activities list
        the base-confirmed components first and the repeated-SCC
        confirmations after them, each group in candidate order --
        exactly how the columnar executor confirms candidates and then
        applies ``confirm_repeated_components``.
        """
        merged = [StageAccumulator(name=name) for name in STAGE_NAMES]
        candidates: List[CandidateComponent] = []
        base_confirmed: List[WashTradingActivity] = []
        repeated: List[WashTradingActivity] = []
        unconfirmed: List[CandidateComponent] = []
        for nft in self.store.tokens:
            state = self.states.get(nft)
            if state is None:
                continue
            for accumulator, record in zip(merged, state.stages):
                accumulator.fold(record)
            for component, evidence in zip(state.candidates, state.evidence):
                candidates.append(component)
                if evidence:
                    base_confirmed.append(
                        WashTradingActivity(
                            component=component, evidence=list(evidence)
                        )
                    )
                elif (
                    self._repeat_enabled
                    and self._confirmed_pool[component.accounts] > 0
                ):
                    repeated.append(
                        WashTradingActivity(
                            component=component,
                            evidence=[_repeated_evidence(component)],
                        )
                    )
                else:
                    unconfirmed.append(component)
        refinement = RefinementResult(
            candidates=candidates,
            stages=[accumulator.to_stage() for accumulator in merged],
        )
        return PipelineResult(
            refinement=refinement,
            activities=base_confirmed + repeated,
            unconfirmed=unconfirmed,
        )

    # -- internals ---------------------------------------------------------
    def _refresh_masks(self) -> None:
        """Classify accounts interned since the last tick into the masks."""
        accounts = self.store.accounts
        if self._classified_accounts == len(accounts):
            return
        for account_id in range(self._classified_accounts, len(accounts)):
            address = accounts[account_id]
            if self.labels.is_graph_excluded_service(address):
                self._service_ids.add(account_id)
            if self.is_contract(address):
                self._contract_ids.add(account_id)
        self._classified_accounts = len(accounts)
        self._masks = funnel_masks(
            frozenset(self._service_ids), frozenset(self._contract_ids)
        )

    def _refine_live(self, live: List[NFTKey]) -> List[TokenRefinement]:
        """Refine the tick's live dirty tokens one by one, in ``live`` order."""
        return [
            refine_token(self.store.accounts, self.store.tokens[nft], self._masks)
            for nft in live
        ]

    def _detection_context(
        self, base: DetectionContext, touched: HistoryChanges
    ) -> DetectionContext:
        """The context this tick's detectors read: ``base`` behind the
        money-flow cache.

        The cache is kept across calls on the same base context; a new
        base context gets a fresh one.
        """
        cache = self._cache
        if cache is None or cache.base is not base:
            cache = self._cache = CachingDetectionContext(base)
        else:
            cache.refresh(touched)
        return cache

    def _redetect(
        self, state: TokenState, touched: HistoryChanges, context: DetectionContext
    ) -> Tuple[List[List[DetectionEvidence]], int]:
        """Re-run, per held candidate, the detectors that can see its
        members' history changes; returns the evidence and how many
        detector runs were skipped.

        A skipped detector's held evidence is reused in its
        ``build_detectors`` slot, so the list equals a full re-run.
        """
        detectors = self.detectors
        evidence: List[List[DetectionEvidence]] = []
        skipped = 0
        for component, held in zip(state.candidates, state.evidence):
            since = _change_since(component, touched)
            if since is _UNCHANGED:
                evidence.append(held)
                skipped += len(detectors)
                continue
            held_by_method = {item.method: item for item in held}
            found: List[DetectionEvidence] = []
            for detector in detectors:
                if since is None or detector.history_may_change(component, since):
                    item = detector.detect(component, context)
                else:
                    item = held_by_method.get(detector.method)
                    skipped += 1
                if item is not None:
                    found.append(item)
            evidence.append(found)
        return evidence, skipped

    def _detect_state(self, refinement, context: DetectionContext) -> TokenState:
        """Run the per-component detectors over one token's refinement."""
        return TokenState(
            stages=refinement.stages,
            candidates=refinement.candidates,
            evidence=[
                collect_evidence(self.detectors, component, context)
                for component in refinement.candidates
            ],
        )

    def _retire_state(
        self, nft: NFTKey, state: TokenState, flipped_sets: Set[FrozenSet[str]]
    ) -> None:
        """Undo a token's contribution to the cross-token indexes."""
        for component, evidence in zip(state.candidates, state.evidence):
            accounts = component.accounts
            for account in accounts:
                holders = self._member_index.get(account)
                if holders is not None:
                    holders.discard(nft)
                    if not holders:
                        del self._member_index[account]
                        self._departed.add(account)
            if evidence:
                self._confirmed_pool[accounts] -= 1
                if self._confirmed_pool[accounts] <= 0:
                    del self._confirmed_pool[accounts]
                    flipped_sets.add(accounts)
            else:
                holders = self._unconfirmed_index.get(accounts)
                if holders is not None:
                    holders.discard(nft)
                    if not holders:
                        del self._unconfirmed_index[accounts]

    def _install_state(
        self, nft: NFTKey, state: TokenState, flipped_sets: Set[FrozenSet[str]]
    ) -> None:
        """Record a token's fresh contribution to the cross-token indexes."""
        self.states[nft] = state
        for component, evidence in zip(state.candidates, state.evidence):
            accounts = component.accounts
            for account in accounts:
                self._member_index.setdefault(account, set()).add(nft)
            if evidence:
                if self._confirmed_pool[accounts] == 0:
                    flipped_sets.add(accounts)
                self._confirmed_pool[accounts] += 1
            else:
                self._unconfirmed_index.setdefault(accounts, set()).add(nft)

    def _confirmed_entries(
        self, nft: NFTKey
    ) -> Dict[ActivityKey, WashTradingActivity]:
        """The token's currently confirmed activities, keyed for diffing."""
        state = self.states.get(nft)
        entries: Dict[ActivityKey, WashTradingActivity] = {}
        if state is None:
            return entries
        for component, evidence in zip(state.candidates, state.evidence):
            if evidence:
                entries[_activity_key(component)] = WashTradingActivity(
                    component=component, evidence=list(evidence)
                )
            elif (
                self._repeat_enabled
                and self._confirmed_pool[component.accounts] > 0
            ):
                entries[_activity_key(component)] = WashTradingActivity(
                    component=component,
                    evidence=[_repeated_evidence(component)],
                )
        return entries
