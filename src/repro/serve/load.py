"""A mixed-workload load generator for the query service.

One reader thread's workload: a randomized mix of point lookups,
paginated listings, cached aggregates and (optionally) a replay-cursor
mirror, with two serving invariants checked as it runs -- versions
observed by a reader never move backwards, and folding the replayed
alert stream must reproduce the served confirmed set without ever
retracting something that was not confirmed.

Shared by ``benchmarks/bench_serve_load.py`` (throughput and cache
comparisons) and the ``python -m repro serve`` CLI (its query worker
threads), so the reported queries/sec of both always measure the same
workload.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from typing import Optional, Tuple

from repro.serve.model import record_key
from repro.serve.query import QueryService
from repro.stream.alerts import AlertKind


class LoadGenerator:
    """One reader thread's mixed point/aggregate query workload.

    Runs until the ``stop`` event is set (plus one settled pass over the
    final state), tracking throughput in ``queries`` and invariant
    violations in ``errors``.  With ``mirror=True`` the generator also
    plays the late-joining consumer: a replay cursor folds every
    confirmation and retraction into ``mirror``, which must equal the
    served confirmed set once ingest settles.
    """

    def __init__(
        self,
        query: QueryService,
        seed: int,
        stop: threading.Event,
        mirror: bool = False,
    ) -> None:
        self.query = query
        self.rng = random.Random(seed)
        self.stop = stop
        self.queries = 0
        self.errors: list = []
        self.last_version = -1
        self.mirror: Optional[Counter] = Counter() if mirror else None
        self._cursor = query.replay() if mirror else None
        #: The last version whose profiled accounts were drawn from, and
        #: those accounts in sorted order.
        self._profiled = (None, ())
        self.thread = threading.Thread(target=self.run, daemon=True)

    def _drain_mirror(self) -> None:
        for alert in self._cursor.poll():
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                self.mirror[record_key(alert.activity)] += 1
            elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
                self.mirror[record_key(alert.activity)] -= 1
                if self.mirror[record_key(alert.activity)] < 0:
                    self.errors.append(
                        f"retraction without matching confirmation at seq "
                        f"{alert.seq}"
                    )

    def step(self) -> None:
        """One query of the mixed workload (and the invariant checks)."""
        query, rng = self.query, self.rng
        version = query.version()
        if version.version < self.last_version:
            self.errors.append(
                f"version moved backwards: {self.last_version} -> "
                f"{version.version}"
            )
        self.last_version = version.version
        roll = rng.random()
        if roll < 0.40 and version.token_order:
            query.token_status(rng.choice(version.token_order))
        elif roll < 0.60 and version.account_profiles:
            query.account_profile(rng.choice(self._profiled_accounts(version)))
        elif roll < 0.75:
            # The whole pagination walk pins one version -- mixing a
            # cursor from one version with pages of another can skip or
            # repeat records.
            page = query.list_confirmed(limit=8, version=version)
            while page.next_cursor is not None and rng.random() < 0.5:
                page = query.list_confirmed(
                    limit=8, cursor=page.next_cursor, version=version
                )
        elif roll < 0.85:
            query.funnel_stats()
        elif roll < 0.95 and version.token_order:
            query.collection_rollup(rng.choice(version.token_order).contract)
        else:
            for venue in query.venues():
                query.marketplace_rollup(venue)
        if self._cursor is not None:
            self._drain_mirror()
        self.queries += 1

    def _profiled_accounts(self, version) -> Tuple[str, ...]:
        """``version``'s profiled accounts in sorted order (so a seed
        draws the same accounts), sorted once per version."""
        seen, accounts = self._profiled
        if seen is not version:
            accounts = tuple(sorted(version.account_profiles))
            self._profiled = (version, accounts)
        return accounts

    def run(self) -> None:
        try:
            while not self.stop.is_set():
                self.step()
            self.step()  # one settled pass over the final state
            if self._cursor is not None:
                self._drain_mirror()
        except Exception as error:  # pragma: no cover - asserted by callers
            self.errors.append(repr(error))
