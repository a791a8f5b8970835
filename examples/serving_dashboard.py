#!/usr/bin/env python3
"""A marketplace dashboard consuming the wash-status query service.

The paper's Sec. IX asks whether venues could warn users about wash
trading as it happens; :mod:`repro.serve` is the query surface such a
venue would poll.  This example plays the venue: it watches one
collection through :class:`QueryService` while the monitor follows the
chain, and keeps its *own* local mirror of confirmed activities in sync
through a replay cursor -- including reconciling the retractions a
mid-run chain reorganization forces.

Two serving-layer properties are on display:

* **Versioned reads.**  Every dashboard row is rendered from one
  immutable version; the rollup, the listing and the funnel counters in
  a row can never mix two ticks.
* **Replay cursors.**  The consumer only remembers the last alert
  ``seq`` it applied.  However rarely it polls -- even across the reorg
  -- folding the replayed confirmations and retractions reproduces the
  served truth exactly, which the example verifies at the end.

Run with:  python examples/serving_dashboard.py
"""

from __future__ import annotations

import random
from collections import Counter

from repro import build_default_world
from repro.serve import OFF_MARKET, ServeService, record_key
from repro.simulation import SimulationConfig
from repro.simulation.reorg import apply_random_reorg
from repro.stream import AlertKind
from repro.utils.currency import wei_to_eth


def main() -> None:
    world = build_default_world(SimulationConfig.tiny(seed=11))
    service = ServeService.for_world(world, max_reorg_depth=64)
    query = service.query

    # Warm up until something is confirmed, then watch that collection.
    head = world.node.block_number
    version = service.run(to_block=head // 3, step_blocks=40)
    while not version.confirmed and version.block < head:
        version = service.advance(min(version.block + 40, head))
    watched = version.confirmed[0].nft.contract if version.confirmed else None
    print("Marketplace dashboard over the wash-status query service")
    print("=" * 76)
    print(f"watching collection {watched}\n")

    # The consumer's state: a replay cursor and a local activity mirror.
    cursor = query.replay()  # since_seq=-1: start from the beginning
    mirror: Counter = Counter()
    retractions_seen = 0

    def drain() -> int:
        nonlocal retractions_seen
        drained = 0
        for alert in cursor.poll():
            if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
                mirror[record_key(alert.activity)] += 1
            elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
                mirror[record_key(alert.activity)] -= 1
                retractions_seen += 1
            drained += 1
        return drained

    print(
        f"{'version':>8}  {'block':>6}  {'coll. activities':>16}  "
        f"{'coll. volume':>14}  {'funnel cand.':>12}  {'alerts':>6}  note"
    )
    rng = random.Random(5)
    windows = 8
    for window in range(windows):
        note = ""
        if window == windows // 2:
            # Adversity strikes: the chain tail is reorganized while the
            # dashboard is live -- some confirmations will be withdrawn.
            summary = apply_random_reorg(
                world.chain, 12, rng, drop_probability=0.5
            )
            note = f"reorg depth {summary.depth}!"
        target = min(
            version.block + max(head // windows, 1), world.node.block_number
        )
        version = service.advance(target)
        drained = drain()
        # Unpinned aggregate reads go through the dirty-token-keyed
        # cache; with a single driving thread the current version is
        # exactly the one just published, so the row stays consistent.
        rollup = query.collection_rollup(watched)
        funnel = query.funnel_stats()
        print(
            f"{version.version:>8}  {version.block:>6}  "
            f"{rollup.activity_count:>16}  "
            f"{wei_to_eth(rollup.volume_wei):>10,.1f} ETH  "
            f"{funnel.candidate_count:>12}  {drained:>6}  {note}"
        )
    version = service.advance()  # settle on the final canonical head
    drain()

    print()
    print("Watched-collection verdicts (current version)")
    print("-" * 76)
    page = query.list_confirmed(limit=5, version=version)
    for record in page.records:
        if record.nft.contract != watched:
            continue
        venue = record.marketplace or OFF_MARKET
        print(
            f"  {record.nft.contract}#{record.nft.token_id:<4} "
            f"{len(record.accounts)} accounts  "
            f"{wei_to_eth(record.volume_wei):>8,.1f} ETH  on {venue}  "
            f"confirmed at block {record.confirmed_at_block} "
            f"(seq {record.seq})"
        )

    # The reconciliation proof: the mirror built purely from replayed
    # alerts equals the truth the service currently serves.
    served = Counter(record.key for record in version.confirmed)
    reconciled = +mirror == served
    print()
    print(
        f"replay reconciliation: {sum(served.values())} served activities, "
        f"{retractions_seen} retractions folded, mirror "
        f"{'matches' if reconciled else 'DIVERGES FROM'} the served state"
    )
    stats = service.cache.stats
    print(
        f"aggregate cache: {stats.hits} hits / {stats.lookups} lookups "
        f"({stats.hit_rate:.1%})"
    )
    if not reconciled:
        raise SystemExit("replay mirror diverged from the served state")


if __name__ == "__main__":
    main()
