"""Typed events emitted by the streaming monitor.

Every tick the monitor compares its detection state before and after the
new blocks and publishes the difference as :class:`Alert` objects --
the marketplace-facing surface of Sec. IX ("can marketplaces prevent
wash trading activities?"): a venue subscribing to these events can warn
buyers on the NFT page, or withhold reward tokens, the moment an
activity is confirmed instead of in a post-hoc study.

Alert-retraction semantics
--------------------------

A live chain head reorganizes, and detection state over a live head is
therefore *revisable*: the monitor publishes revisions as first-class
events rather than silently rewriting history.  The contract
subscribers can rely on:

* ``ACTIVITY_CONFIRMED`` means "confirmed *on the canonical chain as of
  this block*".  It is not final.
* If the confirming transfers are later rolled back by a reorg -- or
  the component dissolves for any other reason (its account set grew,
  the repeated-SCC pool flipped off) -- the monitor emits exactly one
  ``ACTIVITY_RETRACTED`` carrying the previously announced activity.
  A venue that froze rewards on the confirmation can release them on
  the retraction.
* A reorg tick opens with a single ``REORG_DETECTED`` alert (depth and
  fork block attached) *before* any retraction/confirmation it caused,
  so subscribers can correlate the revision burst with its cause.
* An activity that is re-established by the replacement branch is
  announced again with a fresh ``ACTIVITY_CONFIRMED`` -- confirm /
  retract / confirm sequences are possible and each transition is
  explicit.
* ``NFT_FLAGGED`` fires when an NFT gains its first *currently
  confirmed* activity; after a retraction empties the NFT, a later
  re-confirmation flags it again.
* Evidence drift is *not* re-announced: a still-confirmed activity
  whose evidence changes (or whose transactions a reorg re-mines) rides
  :attr:`MonitorSnapshot.refreshed`.  The serving layer folds the
  alerts plus those refreshes; a refreshed record keeps its ``seq``.

Alerts that were already delivered are never rewritten or deleted:
``monitor.alerts`` is an append-only stream, and the current truth is
always the confirmations minus the retractions.

Alert sequence numbers
----------------------

Every alert carries a monitor-assigned ``seq``: a gapless counter equal
to the alert's position in ``monitor.alerts``.  Sequence numbers are the
replay contract of the serving layer (:mod:`repro.serve`): a consumer
that remembers the last ``seq`` it processed can ask for everything
after it and is guaranteed to see every ``ACTIVITY_RETRACTED`` revision
it missed, in publication order -- late joiners catch up without
re-reading the whole stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import WashTradingActivity


class AlertKind(str, enum.Enum):
    """The event types the monitor publishes."""

    #: A wash trading activity was confirmed for the first time.
    ACTIVITY_CONFIRMED = "activity-confirmed"
    #: An NFT gained its first confirmed activity (page-level warning).
    NFT_FLAGGED = "nft-flagged"
    #: A newly confirmed activity involves a watchlisted account.
    WATCHLIST_HIT = "watchlist-hit"
    #: The chain reorganized under the monitor; previously ingested
    #: blocks were rolled back to the fork point.
    REORG_DETECTED = "reorg-detected"
    #: A previously confirmed activity no longer holds (its transfers
    #: were reorged away, or its component dissolved) and is withdrawn.
    ACTIVITY_RETRACTED = "activity-retracted"
    #: Operator event: a service-level objective exhausted its error
    #: budget (see :mod:`repro.obs.slo`).  Not a detection -- carried on
    #: the same bus so venues and operators share one delivery channel.
    SLO_BREACH = "slo-breach"


@dataclass(frozen=True)
class Alert:
    """One monitor event, tied to the chain position that triggered it."""

    kind: AlertKind
    #: Head block of the tick that raised the alert.
    block: int
    #: Timestamp of that head block (0 when the chain has no blocks yet).
    timestamp: int
    #: The NFT concerned (None only for REORG_DETECTED, which is a
    #: chain-level event).
    nft: Optional[NFTKey] = None
    #: The activity behind the alert: the confirming activity for
    #: ACTIVITY_CONFIRMED and WATCHLIST_HIT, the first activity for
    #: NFT_FLAGGED, the *withdrawn* activity for ACTIVITY_RETRACTED,
    #: and None for REORG_DETECTED.
    activity: Optional[WashTradingActivity] = None
    #: Watchlisted accounts involved (only set for WATCHLIST_HIT).
    watched_accounts: FrozenSet[str] = frozenset()
    #: Blocks rolled back (only set for REORG_DETECTED).
    reorg_depth: int = 0
    #: Deepest block that survived the rollback (REORG_DETECTED only;
    #: -1 when the monitor's entire ingested history diverged).
    fork_block: int = -1
    #: Gapless publication counter assigned by the monitor -- equal to
    #: this alert's index in ``monitor.alerts``.  The replay cursor key
    #: of the serving layer (-1 only for alerts built outside a monitor).
    seq: int = -1
    #: Trace id of the monitor tick that raised the alert ("" for alerts
    #: built outside a monitor).  Deterministic per tick -- links the
    #: alert to the tick's ingest spans and latency-ledger marks.
    trace: str = ""
    #: Name of the breached objective (SLO_BREACH only).
    slo: str = ""
    #: Error-budget consumption at breach time, 1.0 = exhausted
    #: (SLO_BREACH only).
    budget_used: float = 0.0
    #: Human-readable operator detail (SLO_BREACH only).
    detail: str = ""

    @property
    def accounts(self) -> FrozenSet[str]:
        """The colluding accounts behind the alert (empty for reorgs)."""
        return self.activity.accounts if self.activity is not None else frozenset()

    @property
    def latency_blocks(self) -> int:
        """Blocks between the last wash trade and the alert being raised.

        The venue-side detection lag: 0 means the activity was flagged in
        the very block that completed it.  Only meaningful for
        confirmation-style alerts; 0 for REORG_DETECTED, and possibly
        negative for ACTIVITY_RETRACTED (the retracted activity's
        transfers may sit above the post-rollback head).
        """
        if self.activity is None:
            return 0
        last_trade_block = max(
            transfer.block_number for transfer in self.activity.component.transfers
        )
        return self.block - last_trade_block


@dataclass(frozen=True)
class MonitorSnapshot:
    """Per-tick statistics of the monitor's state."""

    #: Monotone tick counter (first processed tick is 1).
    tick: int
    #: Inclusive block range this tick ingested (from > to for empty
    #: ticks; after a rollback, from_block restarts at the fork + 1, so
    #: it may precede the previous snapshot's to_block).
    from_block: int
    to_block: int
    #: ERC-721 transfer events appended this tick.
    new_transfer_count: int
    #: Tokens receiving new transfers this tick.
    touched_token_count: int
    #: Tokens whose detection state may have moved this tick (see
    #: ``dirty_nfts``).
    dirty_token_count: int
    #: Confirmed activities gained / lost this tick.
    newly_confirmed_count: int
    retracted_count: int
    #: Totals after the tick.
    total_transfer_count: int
    total_token_count: int
    confirmed_activity_count: int
    flagged_nft_count: int
    #: Blocks rolled back by a reorg before this tick's scan (0: none).
    reorg_depth: int = 0
    #: Transfers the rollback removed (re-ingested canonical rows count
    #: toward new_transfer_count as usual).
    rolled_back_transfer_count: int = 0
    #: Alerts raised this tick.
    alerts: Tuple[Alert, ...] = field(default_factory=tuple)
    #: Still-confirmed activities whose value changed without their
    #: identity (evidence drift, or a reorg re-mined their transactions),
    #: in token order.  No alert announces them; with the tick's
    #: confirmations and retractions they are the tick's whole diff.
    refreshed: Tuple[WashTradingActivity, ...] = field(default_factory=tuple)
    #: Exactly the tokens whose detection state may have moved this
    #: tick: re-refined (touched or rolled back), re-detected on a
    #: member's history change *with changed evidence*, or flipped by
    #: the repeated-SCC pool; in deterministic token order.  A
    #: re-detection that left evidence unchanged is absent.
    #: ``len(dirty_nfts) == dirty_token_count``; the serving layer keys
    #: its aggregate-cache invalidation on this set.
    dirty_nfts: Tuple[NFTKey, ...] = field(default_factory=tuple)
    #: The tick's deterministic trace id -- shared by every alert the
    #: tick raised and by the tick's spans ("" for snapshots built
    #: outside a monitor).
    trace: str = ""

    @property
    def is_empty(self) -> bool:
        """True when the tick changed nothing: no new transfers, no
        re-detection and no rollback."""
        return (
            self.new_transfer_count == 0
            and self.dirty_token_count == 0
            and self.reorg_depth == 0
        )
