"""Wire parity: the socket must serve exactly the in-process answers.

The serving layer's acceptance bar (see :mod:`repro.serve.parity`)
extends across the network boundary: for every endpoint, the
over-the-wire answer at a pinned version must equal the *encoding of*
the in-process :class:`~repro.serve.query.QueryService` answer at that
same immutable :class:`~repro.serve.model.ServeVersion` -- including
mid-reorg-storm, where the pinned snapshot is precisely what makes the
comparison race-free while ingest keeps publishing.

:func:`wire_parity_mismatches` needs to resolve the pinned version
*number* the server returned back into the version *object* the server
answered from; in-process harnesses (tests, benchmarks, ``--verify``)
pass :meth:`~repro.serve.wire.server.WireServer.lookup_version`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Optional

from repro.serve.model import ServeVersion
from repro.serve.query import QueryService
from repro.serve.wire import codec
from repro.serve.wire.client import WireClient

#: Resolves a pinned version number to the snapshot it names.
VersionResolver = Callable[[int], Optional[ServeVersion]]


def _normal(payload: Any) -> Any:
    """JSON-normalize (tuples to lists, key order) for == comparison."""
    return json.loads(json.dumps(payload, sort_keys=True))


def wire_parity_mismatches(
    client: WireClient,
    query: QueryService,
    resolve_version: VersionResolver,
    page_size: int = 7,
) -> List[str]:
    """Compare every wire endpoint against the in-process service.

    Pins the current version over the wire, resolves the same snapshot
    in-process, and walks the whole verb surface at that pin.  Returns
    a human-readable description of every divergence ([] = parity).
    """
    problems: List[str] = []
    info = client.version()
    number = info["version"]
    pinned = resolve_version(number)
    if pinned is None:
        return [f"pinned version {number} cannot be resolved in-process"]

    def check(endpoint: str, wire_payload: Any, local_payload: Any) -> None:
        if _normal(wire_payload) != _normal(local_payload):
            problems.append(f"{endpoint} diverges at version {number}")

    check("version", info, codec.encode_version_info(pinned))
    # The whole order, a suffix from the middle and the empty suffix a
    # client with an up-to-date cache would ask for.
    size = len(pinned.token_order)
    for offset in sorted({0, size // 2, size}):
        check(
            f"token_order offset={offset}",
            client.token_order(version=number, offset=offset),
            codec.encode_token_order(pinned, offset),
        )
    check(
        "accounts",
        client.accounts(version=number)["accounts"],
        sorted(pinned.account_profiles),
    )

    # -- the confirmed listing, walked page by page over the wire ----------
    wire_records: List[Any] = []
    cursor = None
    pages = 0
    while True:
        page = client.list_confirmed(
            limit=page_size, cursor=cursor, version=number
        )
        wire_records.extend(page["records"])
        if page["total_matched"] != len(pinned.confirmed):
            problems.append(
                f"list_confirmed total_matched diverges at version {number}: "
                f"wire {page['total_matched']}, local {len(pinned.confirmed)}"
            )
            break
        if page["next_cursor"] is None:
            break
        cursor = page["next_cursor"]
        pages += 1
        if pages > len(pinned.confirmed) + 2:
            problems.append("list_confirmed pagination does not terminate")
            break
    check(
        "list_confirmed (paged walk)",
        wire_records,
        [codec.encode_record(record) for record in pinned.confirmed],
    )

    # -- filtered listings (one pass per venue and per live method) --------
    for venue in query.venues(version=pinned):
        local = query.list_confirmed(venue=venue, limit=10_000, version=pinned)
        check(
            f"list_confirmed venue={venue}",
            client.list_confirmed(venue=venue, limit=10_000, version=number),
            codec.encode_page(local),
        )
    for method in sorted({m for r in pinned.confirmed for m in r.methods}):
        local = query.list_confirmed(method=method, limit=10_000, version=pinned)
        check(
            f"list_confirmed method={method.value}",
            client.list_confirmed(
                method=method.value, limit=10_000, version=number
            ),
            codec.encode_page(local),
        )

    # -- point lookups ------------------------------------------------------
    for nft in sorted(pinned.flagged_nfts):
        check(
            f"token_status {nft}",
            client.token_status(nft.contract, nft.token_id, version=number),
            codec.encode_token_status(query.token_status(nft, version=pinned)),
        )
    clean = codec.encode_token_status(
        query.token_status("0x" + "f" * 40, 0, version=pinned)
    )
    check(
        "token_status (unknown token)",
        client.token_status("0x" + "f" * 40, 0, version=number),
        clean,
    )
    for account in sorted(pinned.account_profiles):
        check(
            f"account_profile {account}",
            client.account_profile(account, version=number),
            codec.encode_account_profile(
                query.account_profile(account, version=pinned)
            ),
        )

    # -- aggregates ----------------------------------------------------------
    check(
        "funnel_stats",
        client.funnel_stats(version=number),
        codec.encode_funnel(query.funnel_stats(version=pinned)),
    )
    check(
        "collections",
        client.collections(version=number),
        list(query.collections(version=pinned)),
    )
    check(
        "venues",
        client.venues(version=number),
        list(query.venues(version=pinned)),
    )
    for contract in query.collections(version=pinned):
        check(
            f"collection_rollup {contract}",
            client.collection_rollup(contract, version=number),
            codec.encode_collection_rollup(
                query.collection_rollup(contract, version=pinned)
            ),
        )
    for venue in query.venues(version=pinned):
        check(
            f"marketplace_rollup {venue}",
            client.marketplace_rollup(venue, version=number),
            codec.encode_marketplace_rollup(
                query.marketplace_rollup(venue, version=pinned)
            ),
        )

    # -- the alert log prefix up to the pinned version ----------------------
    wire_alerts = [
        alert
        for alert in client.alerts(since_seq=-1)["alerts"]
        if alert["seq"] <= pinned.last_seq
    ]
    local_alerts = [
        codec.encode_alert(alert)
        for alert in query.index.alerts_since(-1)
        if alert.seq <= pinned.last_seq
    ]
    check("alerts (log prefix)", wire_alerts, local_alerts)

    client.release(number)
    return problems
