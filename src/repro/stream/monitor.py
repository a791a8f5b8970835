"""The streaming monitor service: a live wash trading watchdog.

:class:`StreamingMonitor` glues the incremental ingest cursor to the
dirty-token scheduler and exposes the result as a service: callers (or a
driving loop) feed it chain positions via :meth:`advance`, subscribers
receive typed :class:`~repro.stream.alerts.Alert` events the moment an
activity is confirmed, and every tick yields a
:class:`~repro.stream.alerts.MonitorSnapshot` with the monitor's
up-to-date statistics.  After following the whole chain,
:meth:`result` returns the exact :class:`PipelineResult` a batch
``WashTradingPipeline(engine="columnar")`` run would have produced.

The monitor is reorg-aware: when the cursor detects that the head
diverged (or regressed), the rollback's tokens are re-detected, the
withdrawn activities are published as ``ACTIVITY_RETRACTED`` alerts
behind a ``REORG_DETECTED`` marker, and the parity guarantee holds
against the *final canonical chain* -- see
:mod:`repro.stream.alerts` for the revision contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Set, Union

from repro.chain.node import EthereumNode
from repro.core.activity import DetectionMethod
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.pipeline import PipelineResult
from repro.engine.executor import TransactionView
from repro.obs.bounded import DEFAULT_ERROR_RETENTION, BoundedLog
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import mint_trace
from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.cursor import DEFAULT_MAX_REORG_DEPTH, CursorTick, DatasetCursor
from repro.stream.scheduler import DirtyTokenScheduler, TickReport

AlertCallback = Callable[[Alert], None]
SnapshotCallback = Callable[[MonitorSnapshot], None]


@dataclass(frozen=True)
class SubscriberError:
    """One subscriber callback failure, isolated from the tick.

    A raising subscriber must never abort the monitor tick or starve the
    subscribers after it: the tick's state transition is already
    committed when callbacks run, so the failure is *theirs*, not the
    monitor's.  The error is recorded here (the monitor's
    ``subscriber_errors``) instead of propagating.
    """

    callback: Callable
    #: The alert or snapshot being delivered when the callback raised.
    event: Union[Alert, MonitorSnapshot]
    error: BaseException


class StreamingMonitor:
    """Follows the chain head and keeps detection continuously current."""

    def __init__(
        self,
        node: EthereumNode,
        marketplace_addresses: Mapping[str, str],
        labels,
        is_contract: Callable[[str], bool],
        config: Optional[DetectionConfig] = None,
        enabled_methods: Optional[Iterable[DetectionMethod]] = None,
        watchlist: Optional[Iterable[str]] = None,
        start_block: int = 0,
        max_reorg_depth: int = DEFAULT_MAX_REORG_DEPTH,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.node = node
        self.cursor = DatasetCursor(
            node,
            marketplace_addresses,
            start_block=start_block,
            max_reorg_depth=max_reorg_depth,
            registry=self.registry,
        )
        self.scheduler = DirtyTokenScheduler(
            self.cursor.store,
            labels=labels,
            is_contract=is_contract,
            enabled_methods=enabled_methods,
            registry=self.registry,
        )
        #: The detectors read the cursor's live account-transaction dict.
        self.context = DetectionContext(
            dataset=TransactionView(self.cursor.account_transactions),
            labels=labels,
            is_contract=is_contract,
            config=config,
        )
        self.watchlist: Set[str] = set(watchlist or ())
        self.tick_count = 0
        self.alerts: List[Alert] = []
        #: Recent subscriber failures, in delivery order (see
        #: SubscriberError).  Bounded: only the last
        #: DEFAULT_ERROR_RETENTION records are retained for the CLI
        #: report; ``subscriber_errors.total`` counts every failure ever.
        self.subscriber_errors: BoundedLog = BoundedLog(DEFAULT_ERROR_RETENTION)
        self._alert_subscribers: List[AlertCallback] = []
        self._snapshot_subscribers: List[SnapshotCallback] = []
        #: Trace id of the most recent tick ("" before the first).
        self.current_trace = ""
        self._slo_engine = None

        self._metric_ticks = self.registry.counter(
            "monitor_ticks_total", "Completed monitor ticks."
        )
        self._metric_alerts = self.registry.counter(
            "monitor_alerts_total", "Alerts published, labeled by kind.",
            labels=("kind",),
        )
        # Pre-create every kind's child so snapshots always show the
        # full alert taxonomy, zeros included.
        for kind in AlertKind:
            self._metric_alerts.labels(kind=kind.value)
        self._metric_subscriber_errors = self.registry.counter(
            "monitor_subscriber_errors_total",
            "Subscriber callbacks that raised during delivery.",
        )
        self._metric_subscribers = self.registry.gauge(
            "monitor_subscribers", "Registered alert + snapshot subscribers."
        )

    @classmethod
    def for_world(cls, world, **kwargs) -> "StreamingMonitor":
        """Convenience constructor over a simulated world's handles."""
        return cls(
            node=world.node,
            marketplace_addresses=world.marketplace_addresses,
            labels=world.labels,
            is_contract=world.is_contract,
            **kwargs,
        )

    # -- subscriptions -----------------------------------------------------
    def subscribe(self, callback: AlertCallback) -> AlertCallback:
        """Register an alert callback; returns it (decorator-friendly)."""
        self._alert_subscribers.append(callback)
        self._metric_subscribers.set(
            len(self._alert_subscribers) + len(self._snapshot_subscribers)
        )
        return callback

    def subscribe_snapshots(self, callback: SnapshotCallback) -> SnapshotCallback:
        """Register a per-tick snapshot callback."""
        self._snapshot_subscribers.append(callback)
        self._metric_subscribers.set(
            len(self._alert_subscribers) + len(self._snapshot_subscribers)
        )
        return callback

    def watch(self, *accounts: str) -> None:
        """Add accounts to the watchlist (takes effect next tick)."""
        self.watchlist.update(accounts)

    # -- state -------------------------------------------------------------
    @property
    def processed_block(self) -> int:
        """Highest chain block the monitor has ingested (-1 initially)."""
        return self.cursor.processed_block

    @property
    def next_seq(self) -> int:
        """Sequence number the next published alert will carry."""
        return len(self.alerts)

    def predict_trace(self) -> str:
        """The trace id the *next* tick will mint.

        Trace ids are a pure function of (tick counter, cursor
        position), so a driving loop can compute the id before calling
        :meth:`advance` -- that is how the block-seen latency mark lands
        on the right ledger entry.
        """
        return mint_trace(self.tick_count + 1, self.cursor.next_block)

    def attach_slo(self, engine) -> None:
        """Evaluate ``engine`` (see :mod:`repro.obs.slo`) every tick;
        breaches become SLO_BREACH operator alerts on the stream."""
        self._slo_engine = engine

    @property
    def flagged_nfts(self):
        """NFTs currently carrying at least one confirmed activity."""
        return self.scheduler.flagged_nfts

    def result(self) -> PipelineResult:
        """The batch-identical pipeline result as of the processed block."""
        return self.scheduler.result()

    # -- driving -----------------------------------------------------------
    def advance(self, to_block: Optional[int] = None) -> MonitorSnapshot:
        """Ingest blocks up to ``to_block`` (default: head) and re-detect.

        Tokens whose own rows changed (new transfers, rollbacks) are
        re-refined; tokens holding a candidate with a member whose
        transaction history changed are only re-detected, by the
        detectors whose history window the change reaches.  If the
        cursor had to roll back a reorg first, the rolled-back tokens
        (including tokens that vanished from the store entirely) lead
        the dirty set, so the scheduler retracts their confirmed
        activities before the canonical branch's confirmations are
        diffed in.
        """
        # The trace id is minted unconditionally and deterministically
        # (registry-independent): alerts carry it, and the obs-on/off
        # serving surface must stay byte-identical.
        trace = mint_trace(self.tick_count + 1, self.cursor.next_block)
        self.current_trace = trace
        self.registry.latency.mark(trace, "tick_start")
        with self.registry.trace_context(trace):
            with self.registry.span("tick") as tick_span:
                tick = self.cursor.advance(to_block)
                # Rolled-back tokens lead; the scheduler skips repeats.
                dirty = [*tick.rolled_back_nfts, *tick.touched_nfts]
                touched = tick.touched_since
                redetect = self.scheduler.tokens_with_members(touched)
                report = self.scheduler.process(
                    dirty, self.context, redetect, touched=touched
                )

                self.tick_count += 1
                alerts = self._alerts_for(tick, report, trace)
                if self._slo_engine is not None:
                    alerts.extend(
                        self._slo_alerts(trace, len(self.alerts) + len(alerts))
                    )
                tick_span.annotate(
                    dirty=len(report.dirty_nfts), alerts=len(alerts)
                )
            snapshot = self._snapshot_for(tick, report, alerts, trace)
            self.alerts.extend(alerts)
            self._metric_ticks.inc()
            for alert in alerts:
                self._metric_alerts.labels(kind=alert.kind.value).inc()
            with self.registry.span("fanout", alerts=len(alerts)):
                for alert in alerts:
                    for callback in self._alert_subscribers:
                        self._deliver(callback, alert)
                for callback in self._snapshot_subscribers:
                    self._deliver(callback, snapshot)
        return snapshot

    def _snapshot_for(self, tick, report, alerts, trace) -> MonitorSnapshot:
        return MonitorSnapshot(
            tick=self.tick_count,
            from_block=tick.from_block,
            to_block=tick.to_block,
            new_transfer_count=tick.new_transfer_count,
            touched_token_count=len(tick.touched_nfts),
            dirty_token_count=len(report.dirty_nfts),
            newly_confirmed_count=len(report.newly_confirmed),
            retracted_count=report.retracted_count,
            total_transfer_count=self.cursor.store.transfer_count,
            total_token_count=self.cursor.store.token_count,
            confirmed_activity_count=self.scheduler.confirmed_activity_count,
            flagged_nft_count=self.scheduler.flagged_nft_count,
            reorg_depth=tick.reorg_depth,
            rolled_back_transfer_count=tick.rolled_back_transfer_count,
            alerts=tuple(alerts),
            refreshed=tuple(report.refreshed),
            dirty_nfts=report.dirty_nfts,
            trace=trace,
        )

    def _slo_alerts(self, trace: str, base_seq: int) -> List[Alert]:
        """One SLO_BREACH alert per breach the attached engine reports,
        numbered from ``base_seq``.

        Operator alerts ride the ordinary append-only alert bus (gapless
        seqs, replayable over the wire) *after* the tick's detection
        alerts, so detection ordering is untouched; a quiet tick (no
        confirmations, retractions or reorg) still publishes them.  A
        raising engine cannot fail a tick: operator tooling must never
        abort detection.
        """
        try:
            breaches = self._slo_engine.evaluate()
        except Exception:  # noqa: BLE001 -- isolation is the point
            return []
        if not breaches:
            return []
        block = min(self.cursor.processed_block, self.node.block_number)
        timestamp = self.node.get_block(block).timestamp if block >= 0 else 0
        return [
            Alert(
                kind=AlertKind.SLO_BREACH,
                block=block,
                timestamp=timestamp,
                seq=base_seq + offset,
                trace=trace,
                slo=breach.objective.name,
                budget_used=breach.budget_used,
                detail=breach.detail,
            )
            for offset, breach in enumerate(breaches)
        ]

    def _deliver(self, callback, event) -> None:
        """Deliver one event to one subscriber, isolating failures.

        The tick is already committed when subscribers run; a raising
        callback is recorded in ``subscriber_errors`` without aborting
        the tick or skipping the subscribers after it.
        """
        try:
            callback(event)
        except Exception as error:  # noqa: BLE001 -- isolation is the point
            self.subscriber_errors.append(
                SubscriberError(callback=callback, event=event, error=error)
            )
            self._metric_subscriber_errors.inc()

    def run(
        self, to_block: Optional[int] = None, step_blocks: int = 1
    ) -> List[MonitorSnapshot]:
        """Follow the chain from the cursor to ``to_block`` in fixed steps.

        Replays history tick by tick (see :meth:`tick_targets`) -- the
        harness used by the examples, the benchmark and the parity
        tests.  Returns every snapshot.
        """
        return [
            self.advance(target)
            for target in self.tick_targets(to_block, step_blocks)
        ]

    def tick_targets(
        self, to_block: Optional[int] = None, step_blocks: int = 1
    ) -> Iterator[Optional[int]]:
        """The ``advance`` targets that follow the chain from the cursor
        to ``to_block`` (default: head) in ``step_blocks``-block ticks.

        Lazy: each target is computed from the cursor after the caller
        advanced to the previous one, and the head and target are
        re-read every step, so a reorg rolling the cursor back mid-run
        simply re-enters the loop and re-ingests the canonical branch.
        If there is nothing to scan at all, one explicit ``to_block``
        target is still produced -- the head may have diverged or
        regressed *at or below* the cursor, and only a tick performs the
        divergence check (a caught-up monitor on an untouched chain just
        gets one empty tick).
        """
        if step_blocks < 1:
            raise ValueError("step_blocks must be >= 1")
        stepped = False
        while True:
            # Clamp to the current head: the cursor cannot advance past
            # mined blocks, so an over-the-head target would otherwise
            # loop on no-op ticks.
            head = self.node.block_number
            target = head if to_block is None else min(to_block, head)
            if self.cursor.next_block > target:
                break
            yield min(self.cursor.next_block + step_blocks - 1, target)
            stepped = True
        if not stepped:
            yield to_block

    # -- internals ---------------------------------------------------------
    def _alerts_for(
        self, tick: CursorTick, report: TickReport, trace: str = ""
    ) -> List[Alert]:
        """Turn one tick's state diff into the published alert stream.

        Order within a tick: the REORG_DETECTED marker first (so
        subscribers can attribute the burst), then every retraction,
        then the confirmations with their NFT_FLAGGED / WATCHLIST_HIT
        companions -- see :mod:`repro.stream.alerts` for the
        retraction contract.
        """
        if not (report.newly_confirmed or report.retracted or tick.saw_reorg):
            return []
        # Clamp to the head: a cursor parked above a regressed chain
        # (future start_block) reports a processed_block with no block
        # behind it.
        block = min(self.cursor.processed_block, self.node.block_number)
        timestamp = self.node.get_block(block).timestamp if block >= 0 else 0
        # Sequence numbers are gapless and equal each alert's position in
        # the append-only self.alerts stream (the serve-layer replay key).
        base_seq = len(self.alerts)
        alerts: List[Alert] = []

        def emit(kind: AlertKind, **fields) -> None:
            alerts.append(
                Alert(
                    kind=kind,
                    block=block,
                    timestamp=timestamp,
                    seq=base_seq + len(alerts),
                    trace=trace,
                    **fields,
                )
            )

        if tick.saw_reorg:
            emit(
                AlertKind.REORG_DETECTED,
                reorg_depth=tick.reorg_depth,
                fork_block=tick.fork_block,
            )
        for activity in report.retracted:
            emit(AlertKind.ACTIVITY_RETRACTED, nft=activity.nft, activity=activity)
        # Each newly flagged NFT is flagged with its first confirmation.
        unflagged = set(report.newly_flagged)
        for activity in report.newly_confirmed:
            emit(AlertKind.ACTIVITY_CONFIRMED, nft=activity.nft, activity=activity)
            if activity.nft in unflagged:
                unflagged.remove(activity.nft)
                emit(AlertKind.NFT_FLAGGED, nft=activity.nft, activity=activity)
            watched = frozenset(activity.accounts & self.watchlist)
            if watched:
                emit(
                    AlertKind.WATCHLIST_HIT,
                    nft=activity.nft,
                    activity=activity,
                    watched_accounts=watched,
                )
        return alerts
