"""Streaming monitor subsystem (paper Sec. IX as a live service).

The batch pipeline answers "how much wash trading happened?" after the
fact; this package answers it *while it happens*.  Three pieces:

* :mod:`repro.stream.cursor` -- :class:`DatasetCursor`, incremental
  Sec. III ingest that follows the chain head block-by-block and appends
  into a mutable columnar store.
* :mod:`repro.stream.scheduler` -- :class:`DirtyTokenScheduler`,
  re-refines and re-detects only the tokens each tick touched while
  keeping the cross-token repeated-SCC state incrementally correct.
* :mod:`repro.stream.monitor` -- :class:`StreamingMonitor`, the service
  facade: subscriber callbacks, typed :class:`Alert` events and per-tick
  :class:`MonitorSnapshot` statistics.

Feeding a whole chain through the monitor yields exactly the batch
pipeline's result (``tests/stream`` pins the parity), and the stack is
reorg-safe end to end: the cursor journals each ingested block, rolls
back to the fork point when the head diverges (or regresses), and the
scheduler retracts confirmations for rolled-back transfers -- published
to subscribers as ``REORG_DETECTED`` / ``ACTIVITY_RETRACTED`` alerts.
A reorg deeper than the journal raises :class:`ReorgTooDeepError`.
"""

from repro.stream.alerts import Alert, AlertKind, MonitorSnapshot
from repro.stream.cursor import (
    DEFAULT_MAX_REORG_DEPTH,
    CursorTick,
    DatasetCursor,
    ReorgTooDeepError,
)
from repro.stream.monitor import StreamingMonitor, SubscriberError
from repro.stream.scheduler import DirtyTokenScheduler, TickReport

__all__ = [
    "Alert",
    "AlertKind",
    "CursorTick",
    "DEFAULT_MAX_REORG_DEPTH",
    "DatasetCursor",
    "DirtyTokenScheduler",
    "MonitorSnapshot",
    "ReorgTooDeepError",
    "StreamingMonitor",
    "SubscriberError",
    "TickReport",
]
