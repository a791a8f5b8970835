"""Dirty-token re-detection over a growing columnar store.

The batch engine refines and confirms every token on every run.  The
scheduler instead keeps one :class:`TokenState` per token (its funnel
stage statistics, refined candidates and per-candidate detector
evidence) and splits each tick's work by what actually changed:

* **Re-refine + re-detect** the *dirty* tokens -- tokens whose own rows
  changed (new transfers or a rollback).  A token's refinement reads
  only its own rows and the exclusion masks, and an account's mask
  membership is fixed when it is interned, so nothing else can move it.
  A *quiet* token -- no candidate component before the tick and none
  after it -- keeps its held state: it has nothing to detect, index or
  diff, and is only reported downstream as dirty.
* **Re-detect only** the tokens holding a candidate with a member whose
  collected transaction list changed (the detectors read exactly the
  members' histories).  The held stages and candidates are reused; an
  inverted member-account -> tokens index finds these tokens.  Given
  the earliest timestamp at which each member's list changed and
  whether a member's outgoing flows grew (a
  :class:`~repro.core.detectors.base.HistoryChange`), only the
  detectors that read what changed run
  (``Detector.history_may_change``); the others' held evidence is
  reused.  A token whose evidence equals its old evidence is left
  untouched and is *not* reported downstream.

One money-flow cache
(:class:`~repro.engine.context.CachingDetectionContext`, the batch
engine's detection context too) lives as long as the scheduler: each
tick first folds the appended transactions of every changed account
into its entry (and drops the entries of lists a rollback truncated),
which also tells which accounts' outgoing flows grew, and an account
leaves the cache when it leaves the member index, so a tick's detection
work follows the new transactions, not the length of the histories.
Every call therefore reports its history changes
(``process(touched=...)``).

The live funnel is the paper's: service, contract and zero-volume
removal always apply.  Ablating a stage is a batch study, run through
``WashTradingPipeline``'s funnel switches.

The global repeated-SCC rule (Sec. IV-C v) is maintained incrementally:
a multiset of base-confirmed account sets is updated as tokens are
reprocessed, and an inverted index from account set to the tokens
holding an unconfirmed candidate with that set pinpoints exactly which
other tokens flip when a set enters or leaves the confirmed pool.

The funnel statistics over every token state are kept the same way
(:attr:`DirtyTokenScheduler.funnel`, a
:class:`~repro.engine.refine.FunnelMaintainer`): each replaced state is
retired and its successor installed, so the serving layer materializes
a version's funnel in O(changed stages) without a second copy of the
states.

:meth:`DirtyTokenScheduler.result` hands the held candidates, their
evidence and the maintained funnel to the batch pipeline's own result
assembly, so it is *identical* -- same candidate order, same
activities, same funnel statistics -- to a batch
``WashTradingPipeline(engine="columnar")`` run over the same data
(pinned by ``tests/stream``).
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
    RecordKey,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionContext, HistoryChange
from repro.core.detectors.pipeline import (
    PipelineResult,
    assemble_result,
    build_detectors,
    collect_evidence,
)
from repro.core.detectors.repeated_scc import repeated_evidence
from repro.core.refine import RefinementResult
from repro.engine.context import CachingDetectionContext
from repro.engine.refine import (
    EMPTY_STAGES,
    FunnelMaintainer,
    StageRecord,
    TokenRefinement,
    funnel_masks,
    refine_token,
)
from repro.engine.store import ColumnarTransferStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

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

    #: Tokens whose detection state may have moved (re-refined tokens,
    #: history-only re-detections whose evidence changed, and
    #: repeated-SCC flips), in deterministic (first-seen) order --
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
    #: Still-confirmed activities whose value changed without their
    #: identity: evidence drift, or a reorg re-mined their transactions.
    refreshed: List[WashTradingActivity] = field(default_factory=list)

    @property
    def retracted_count(self) -> int:
        """Number of confirmed activities withdrawn this tick."""
        return len(self.retracted)


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
        #: The funnel over :attr:`states`, updated wherever a token's
        #: state is replaced (the serving layer materializes it per
        #: published version).
        self.funnel = FunnelMaintainer()
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
        #: Currently confirmed activities per token, keyed by identity
        #: (:func:`~repro.core.activity.record_key`) for diffing.
        self._confirmed: Dict[NFTKey, Dict[RecordKey, WashTradingActivity]] = {}
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
            "the change lay outside what the detector reads: outside its "
            "history window, or, for common-exit, no member's outgoing "
            "flows grew.",
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
        """NFTs with at least one currently confirmed activity (only
        those have an entry in the confirmed map)."""
        return set(self._confirmed)

    @property
    def flagged_nft_count(self) -> int:
        return len(self._confirmed)

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

        A dirty token with no candidate component before the call and
        none after it keeps its held state and is only listed in the
        report's ``dirty_nfts``.

        Dirty tokens no longer present in the store -- every one of
        their transfers was rolled back by a chain reorg -- are *fully
        retired*: their contribution to the repeated-SCC pool is undone,
        their confirmed activities are retracted, and the scheduler
        forgets them entirely, so a later canonical re-appearance is
        processed like a brand-new token.
        """
        live: List[NFTKey] = []
        vanished: List[NFTKey] = []
        seen = dict.fromkeys(dirty_tokens)  # first occurrences, in order
        for nft in seen:
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
        context, grown = self._detection_context(context, touched)
        if not live and not vanished and not history:
            return report
        self._refresh_masks()

        with self.registry.span("refine", tokens=len(live)):
            refinements = self._refine_live(live) if live else []

        flipped_sets: Set[FrozenSet[str]] = set()
        changed: List[NFTKey] = []
        quiet: Set[NFTKey] = set()
        skipped = 0
        with self.registry.span("detect", tokens=len(live), redetected=len(history)):
            for nft in vanished:
                old = self.states.pop(nft)
                self._retire_state(nft, old, flipped_sets)
                self.funnel.apply(old, None)
            for nft, refinement in zip(live, refinements):
                if nft not in self._token_order:
                    self._token_order[nft] = self._order_serial
                    self._order_serial += 1
                old = self.states.get(nft)
                if old is not None:
                    if old.stages is EMPTY_STAGES and refinement.stages is EMPTY_STAGES:
                        # No candidate before or after: nothing to
                        # detect, index or diff.
                        quiet.add(nft)
                        continue
                    self._retire_state(nft, old, flipped_sets)
                state = self._detect_state(refinement, context)
                self._install_state(nft, state, flipped_sets)
                self.funnel.apply(old, state)
            for nft in history:
                old = self.states[nft]
                evidence, token_skips = self._redetect(old, touched, grown, context)
                skipped += token_skips
                if evidence == old.evidence:
                    continue
                # The held stages and candidates: a zero funnel delta.
                new = TokenState(
                    stages=old.stages, candidates=old.candidates, evidence=evidence
                )
                self._retire_state(nft, old, flipped_sets)
                self._install_state(nft, new, flipped_sets)
                self.funnel.apply(old, new)
                changed.append(nft)

        with self.registry.span("diff"):
            affected = set(live) | set(vanished) | set(changed)
            if self._repeat_enabled:
                for account_set in flipped_sets:
                    affected |= self._unconfirmed_index.get(account_set, set())
            ordered_affected = sorted(affected, key=self._token_order.__getitem__)
            report.dirty_nfts = tuple(ordered_affected)

            for nft in ordered_affected:
                if nft in quiet:
                    continue
                entries = self._confirmed_entries(nft)
                previous = self._confirmed.get(nft, {})
                for key, activity in entries.items():
                    prior = previous.get(key)
                    if prior is None:
                        report.newly_confirmed.append(activity)
                    elif activity != prior:
                        report.refreshed.append(activity)
                report.retracted.extend(
                    activity for key, activity in previous.items() if key not in entries
                )
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
        self._metric_dirty.inc(len(report.dirty_nfts))
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

        Candidates come out in store (first-seen) order with their held
        evidence, the funnel statistics are the maintained ones
        (:attr:`funnel`), and
        :func:`~repro.core.detectors.pipeline.assemble_result` applies
        the repeated-SCC rule exactly as a batch run does.
        """
        candidates: List[CandidateComponent] = []
        evidence: List[List[DetectionEvidence]] = []
        for nft in self.store.tokens:
            state = self.states.get(nft)
            if state is not None:
                candidates.extend(state.candidates)
                evidence.extend(state.evidence)
        refinement = RefinementResult(
            candidates=candidates,
            stages=[record.to_stage() for record in self.funnel.materialize()],
        )
        return assemble_result(refinement, evidence, self.methods)

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
    ) -> Tuple[DetectionContext, Set[str]]:
        """The context this tick's detectors read -- ``base`` behind the
        money-flow cache, refreshed with ``touched`` -- and the touched
        accounts whose outgoing flows may have grown.

        The cache is kept across calls on the same base context; a new
        base context gets a fresh one, which vouches for no account.
        """
        cache = self._cache
        if cache is None or cache.base is not base:
            cache = self._cache = CachingDetectionContext(base)
        return cache, cache.refresh(touched)

    def _redetect(
        self,
        state: TokenState,
        touched: HistoryChanges,
        grown: Set[str],
        context: DetectionContext,
    ) -> Tuple[List[List[DetectionEvidence]], int]:
        """Re-run, per held candidate, the detectors that can see its
        members' history changes (``grown``: the accounts whose outgoing
        flows may have grown); returns the evidence and how many
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
            change = None
            if since is not None:
                change = HistoryChange(since, not component.accounts.isdisjoint(grown))
            held_by_method = {item.method: item for item in held}
            found: List[DetectionEvidence] = []
            for detector in detectors:
                if change is None or detector.history_may_change(component, change):
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
    ) -> Dict[RecordKey, WashTradingActivity]:
        """The token's currently confirmed activities, keyed by identity."""
        state = self.states.get(nft)
        entries: Dict[RecordKey, WashTradingActivity] = {}
        if state is None:
            return entries
        for component, evidence in zip(state.candidates, state.evidence):
            if not evidence and self._repeat_enabled:
                if self._confirmed_pool[component.accounts] > 0:
                    evidence = [repeated_evidence(component)]
            if evidence:
                entries[component.key] = WashTradingActivity(
                    component=component, evidence=list(evidence)
                )
        return entries
