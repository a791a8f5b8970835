"""The ingest-to-alert latency ledger.

Answers the operator's first question -- *how long from a block
appearing on-chain to its alert reaching a wire subscriber, stage by
stage?* -- by timestamping each trace at five marks along the pipeline
and folding the deltas into an ``alert_latency_seconds{stage}``
histogram family:

====================  =====================================================
mark                  placed by
====================  =====================================================
``block_seen``        the serve drive loop, *before* the tick runs (the
                      trace id is deterministic, so it can be predicted)
``tick_start``        :meth:`StreamingMonitor.advance`, once the tick's
                      trace is minted
``publish``           the serve index after the new version commits
``fanout_enqueue``    the wire server when the version notification
                      wakes the subscription pushers
``socket_write``      the wire pusher thread after each alert frame is
                      written to a subscriber socket
====================  =====================================================

Stage histograms are the deltas between consecutive marks, plus a
``total`` stage spanning the whole block-seen-to-socket-write path:

* ``schedule`` -- block_seen to tick_start
* ``detect``   -- tick_start to publish
* ``fanout``   -- publish to fanout_enqueue
* ``deliver``  -- fanout_enqueue to socket_write (one observation per
  alert frame per subscriber)
* ``total``    -- block_seen to socket_write

The ledger is bounded (oldest traces evicted) and tolerant of missing
marks: a monitor running without a serving layer only ever lands
``tick_start``, so only the stages whose both edges arrived are
observed.  Late marks for traces the ledger never opened (e.g. a
subscriber replaying ancient alerts) are dropped rather than creating
orphan entries.

Ledgers attach lazily to a registry via ``registry.latency`` -- the
null registry returns a shared no-op ledger, so bare runs pay only an
attribute access per mark site.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

__all__ = ["AlertLatencyLedger", "MARKS", "STAGES", "STAGE_EDGES"]

#: Every mark a trace can receive, in pipeline order.
MARKS = ("block_seen", "tick_start", "publish", "fanout_enqueue", "socket_write")

#: Marks allowed to open a new ledger entry.  Later marks for unknown
#: traces (replayed alerts, evicted entries) are dropped.
_OPENING_MARKS = frozenset({"block_seen", "tick_start"})

#: Stage name -> (earlier mark, later mark).  A stage is observed the
#: moment its later mark lands, if the earlier one is present.
STAGE_EDGES: Dict[str, Tuple[str, str]] = {
    "schedule": ("block_seen", "tick_start"),
    "detect": ("tick_start", "publish"),
    "fanout": ("publish", "fanout_enqueue"),
    "deliver": ("fanout_enqueue", "socket_write"),
    "total": ("block_seen", "socket_write"),
}

#: Stage label values, pipeline-ordered, ``total`` last.
STAGES = ("schedule", "detect", "fanout", "deliver", "total")

#: How many in-flight traces the ledger retains before evicting the
#: oldest.  A trace is one monitor tick, so 512 covers minutes of
#: backlog at any realistic tick cadence.
DEFAULT_CAPACITY = 512


class AlertLatencyLedger:
    """Per-trace mark timestamps feeding ``alert_latency_seconds{stage}``."""

    def __init__(self, registry, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        self._stages = registry.histogram(
            "alert_latency_seconds",
            "Ingest-to-alert latency, broken down by pipeline stage.",
            labels=("stage",),
        )
        # Pre-create every stage child so expositions and dashboards
        # show the full taxonomy from the first scrape.
        for stage in STAGES:
            self._stages.labels(stage=stage)

    def mark(self, trace: str, mark: str, at: Optional[float] = None) -> None:
        """Record that ``trace`` reached ``mark`` (now, unless ``at``).

        Non-terminal marks are first-wins: re-marking an existing mark
        is a no-op, so idempotent call sites need no guards.  The
        terminal ``socket_write`` mark re-observes its stages on every
        call -- one delivery observation per alert frame per subscriber.
        """
        if not trace or mark not in MARKS:
            return
        if at is None:
            at = time.perf_counter()
        with self._lock:
            entry = self._entries.get(trace)
            if entry is None:
                if mark not in _OPENING_MARKS:
                    return
                entry = {}
                self._entries[trace] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            if mark in entry:
                if mark != "socket_write":
                    return
            else:
                entry[mark] = at
            starts = {
                stage: entry.get(earlier)
                for stage, (earlier, later) in STAGE_EDGES.items()
                if later == mark
            }
        for stage, started in starts.items():
            if started is not None and at >= started:
                self._stages.labels(stage=stage).observe(at - started)

    def marks(self, trace: str) -> Dict[str, float]:
        """A copy of the marks recorded for ``trace`` (empty if unknown)."""
        with self._lock:
            entry = self._entries.get(trace)
            return dict(entry) if entry else {}

    def pending(self) -> int:
        """How many traces the ledger currently retains."""
        with self._lock:
            return len(self._entries)
