"""Read-only views over the columnar engine's mutable state.

The streaming stack mutates the :class:`~repro.engine.store.ColumnarTransferStore`
in place; anything that wants to hand store facts across a thread
boundary (the serving layer publishes them inside immutable versions)
must copy what it needs at a well-defined instant instead of holding the
live object.  These views are those copies: tiny, frozen, and safe to
share with readers that outlive the tick that captured them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.store import ColumnarTransferStore


@dataclass(frozen=True)
class StoreStats:
    """Aggregate size of a store at one instant."""

    transfer_count: int
    token_count: int
    account_count: int

    @classmethod
    def capture(cls, store: ColumnarTransferStore) -> "StoreStats":
        """Snapshot the store's sizes (O(tokens), no rows copied)."""
        return cls(
            transfer_count=store.transfer_count,
            token_count=store.token_count,
            account_count=store.account_count,
        )
