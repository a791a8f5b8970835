"""Serving-parity self-check: every query answer vs the legacy oracle.

The acceptance bar of the serving layer mirrors the streaming stack's:
at every published version, every :class:`~repro.serve.query.QueryService`
answer must equal what the reference says over the same chain prefix.
The operator and scenario checks pass the legacy oracle's answer
(:func:`repro.verify.reference`); per-version checks in tests may pass
a columnar batch build at that version.
:func:`serving_parity_mismatches` walks the whole query surface -- the
confirmed listing (including its pagination), point lookups, account
profiles, funnel statistics and both rollup families -- and returns a
human-readable description of every divergence (empty list = parity).
Shared by ``tests/serve``, ``benchmarks/bench_serve_load.py`` and
``perfbench``.  :func:`live_parity_mismatches` is the end-of-run battery
that ``python -m repro serve --verify`` and the scenario runner both run.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.activity import (
    DetectionMethod,
    RecordKey,
    WashTradingActivity,
    record_key,
)
from repro.core.detectors.pipeline import PipelineResult
from repro.serve.model import OFF_MARKET, ServeVersion
from repro.serve.query import QueryService
from repro.serve.wire.client import WireClient
from repro.serve.wire.parity import wire_parity_mismatches
from repro.stream.alerts import Alert, AlertKind
from repro.verify import activity_fingerprint, reference, result_mismatches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import ServeService


def _venue_of(activity: WashTradingActivity) -> str:
    venue = activity.component.dominant_marketplace()
    return venue if venue is not None else OFF_MARKET


def live_parity_mismatches(
    service: "ServeService",
    world,
    enabled_methods: Optional[Iterable[DetectionMethod]] = None,
) -> Dict[str, List[str]]:
    """The live parity battery at the service's processed block; every
    list empty = parity.

    ``stream-vs-batch`` compares the monitor's result with the legacy
    oracle, ``serve-vs-batch`` every query answer with it and, when the
    service serves the wire, ``wire-vs-in-process`` every wire answer
    with the in-process answer at the same pinned version.
    """
    oracle = reference(
        world,
        to_block=service.monitor.processed_block,
        enabled_methods=enabled_methods,
    )
    checks = {
        "stream-vs-batch": result_mismatches(service.result(), oracle),
        "serve-vs-batch": serving_parity_mismatches(service.query, oracle),
    }
    if service.wire is not None:
        with WireClient(*service.wire.address) as client:
            checks["wire-vs-in-process"] = wire_parity_mismatches(
                client, service.query, service.wire.lookup_version
            )
    return checks


def serving_parity_mismatches(
    query: QueryService,
    batch: PipelineResult,
    version: Optional[ServeVersion] = None,
    page_size: int = 7,
) -> List[str]:
    """Compare every query family against a batch result; [] = parity.
    The pinned version is first checked against its own alert log."""
    pinned = version or query.version()
    problems = version_fold_mismatches(
        pinned, query.index.alerts_since(-1, limit=pinned.last_seq + 1)
    )

    # -- confirmed listing (value-identical activities) --------------------
    served = sorted(activity_fingerprint(r.activity) for r in pinned.confirmed)
    reference = sorted(activity_fingerprint(a) for a in batch.activities)
    if served != reference:
        problems.append(
            f"confirmed set diverges: served {len(served)} activities, "
            f"batch {len(reference)}"
        )

    # -- pagination must cover the listing exactly once --------------------
    seen_keys: List[Tuple] = []
    cursor = None
    while True:
        page = query.list_confirmed(
            limit=page_size, cursor=cursor, version=pinned
        )
        seen_keys.extend(record.key for record in page.records)
        if page.next_cursor is None:
            break
        cursor = page.next_cursor
    full_keys = [record.key for record in pinned.confirmed]
    if seen_keys != full_keys:
        problems.append(
            f"pagination diverges: pages yielded {len(seen_keys)} records, "
            f"listing holds {len(full_keys)}"
        )

    # -- flagged set and per-token statuses --------------------------------
    washed = batch.washed_nfts()
    if pinned.flagged_nfts != washed:
        problems.append(
            f"flagged set diverges: served {len(pinned.flagged_nfts)}, "
            f"batch {len(washed)}"
        )
    batch_by_nft: Dict = {}
    for activity in batch.activities:
        batch_by_nft.setdefault(activity.nft, []).append(activity)
    for nft, activities in batch_by_nft.items():
        status = query.token_status(nft, version=pinned)
        if status.activity_count != len(activities):
            problems.append(
                f"token {nft}: served {status.activity_count} activities, "
                f"batch {len(activities)}"
            )
            continue
        methods = frozenset().union(*(a.methods for a in activities))
        if status.methods != methods:
            problems.append(f"token {nft}: method set diverges")
        if status.volume_wei != sum(a.volume_wei for a in activities):
            problems.append(f"token {nft}: volume diverges")

    # -- account profiles ---------------------------------------------------
    batch_by_account: Dict[str, List[WashTradingActivity]] = {}
    for activity in batch.activities:
        for account in activity.accounts:
            batch_by_account.setdefault(account, []).append(activity)
    served_accounts: Set[str] = set(pinned.account_profiles)
    if served_accounts != set(batch_by_account):
        problems.append(
            f"implicated accounts diverge: served {len(served_accounts)}, "
            f"batch {len(batch_by_account)}"
        )
    for account, activities in batch_by_account.items():
        profile = query.account_profile(account, version=pinned)
        if profile.activity_count != len(activities):
            problems.append(
                f"account {account}: served {profile.activity_count} "
                f"activities, batch {len(activities)}"
            )
        elif profile.volume_wei != sum(a.volume_wei for a in activities):
            problems.append(f"account {account}: volume diverges")

    # -- funnel statistics --------------------------------------------------
    funnel = query.funnel_stats(version=pinned)
    if list(funnel.stages) != list(batch.refinement.stages):
        problems.append("funnel stages diverge from batch refinement")
    if funnel.candidate_count != batch.candidate_count:
        problems.append(
            f"candidate count diverges: served {funnel.candidate_count}, "
            f"batch {batch.candidate_count}"
        )

    # -- collection rollups -------------------------------------------------
    batch_by_contract: Dict[str, List[WashTradingActivity]] = {}
    for activity in batch.activities:
        batch_by_contract.setdefault(activity.nft.contract, []).append(activity)
    for contract in query.collections(version=pinned):
        rollup = query.collection_rollup(contract, version=pinned)
        activities = batch_by_contract.get(contract, [])
        if rollup.activity_count != len(activities):
            problems.append(
                f"collection {contract}: served {rollup.activity_count} "
                f"activities, batch {len(activities)}"
            )
            continue
        if rollup.volume_wei != sum(a.volume_wei for a in activities):
            problems.append(f"collection {contract}: volume diverges")
        if rollup.flagged_token_count != len({a.nft for a in activities}):
            problems.append(f"collection {contract}: flagged count diverges")
        methods = Counter()
        for activity in activities:
            methods.update(activity.methods)
        if dict(methods) != dict(rollup.method_counts):
            problems.append(f"collection {contract}: method counts diverge")

    # -- marketplace rollups ------------------------------------------------
    batch_by_venue: Dict[str, List[WashTradingActivity]] = {}
    for activity in batch.activities:
        batch_by_venue.setdefault(_venue_of(activity), []).append(activity)
    served_venues = set(query.venues(version=pinned))
    if served_venues != set(batch_by_venue):
        problems.append(
            f"venue set diverges: served {sorted(served_venues)}, "
            f"batch {sorted(batch_by_venue)}"
        )
    for venue, activities in batch_by_venue.items():
        rollup = query.marketplace_rollup(venue, version=pinned)
        if rollup.activity_count != len(activities):
            problems.append(
                f"venue {venue}: served {rollup.activity_count} activities, "
                f"batch {len(activities)}"
            )
        elif rollup.volume_wei != sum(a.volume_wei for a in activities):
            problems.append(f"venue {venue}: volume diverges")

    return problems


def version_fold_mismatches(
    version: ServeVersion, alerts: Iterable[Alert]
) -> List[str]:
    """The version's consistency with ``alerts``, the alert log up to
    its ``last_seq``; [] = consistent.

    Every record must sit at the seq and block of its identity's live
    confirmation alert, the listing must be in seq order, and each
    token status and account profile must hold exactly its records
    from the listing (the same objects) in seq order: a record out of
    place keeps every count and volume right.
    """
    live: Dict[RecordKey, Tuple[int, int]] = {}
    for alert in alerts:
        if alert.kind is AlertKind.ACTIVITY_CONFIRMED:
            live[record_key(alert.activity)] = (alert.seq, alert.block)
        elif alert.kind is AlertKind.ACTIVITY_RETRACTED:
            live.pop(record_key(alert.activity), None)
    problems: List[str] = []
    if {r.key: (r.seq, r.confirmed_at_block) for r in version.confirmed} != live:
        problems.append("confirmation coordinates diverge from the alert log")
    seqs = [record.seq for record in version.confirmed]
    if seqs != sorted(set(seqs)):
        problems.append("confirmed listing is not in seq order")
    # Token keys and account addresses never collide.
    expected: Dict[object, List[int]] = {}
    for record in sorted(version.confirmed, key=attrgetter("seq")):
        for holder in (record.nft, *record.accounts):
            expected.setdefault(holder, []).append(id(record))
    held = {
        holder: [id(record) for record in container.records]
        for containers in (version.token_status, version.account_profiles)
        for holder, container in containers.items()
    }
    if held != expected:
        problems.append(
            "token or account containers do not hold their records from "
            "the confirmed listing in seq order"
        )
    return problems
