"""JSON encodings of the serving read model (and back).

The wire protocol's value layer: every answer the in-process
:class:`~repro.serve.query.QueryService` can give has exactly one JSON
shape here, produced by an ``encode_*`` function.  The encodings are
deterministic -- sets come out sorted, enum members come out as their
values -- which is what makes wire parity checkable: the over-the-wire
answer must equal the *encoding of* the in-process answer at the same
version, byte for byte after JSON normalization.

The ``encode_*`` functions are the reference.  The server sends
records and alerts as :func:`record_fragment` / :func:`alert_fragment`:
the same encoding, turned into frame text the first time any response
needs it and kept on the (frozen) object, so each is encoded once
however many pages, lookups and subscribers carry it.

Alerts additionally have a decoder (:func:`decode_alert`) because the
subscription stream is consumed programmatically: a remote mirror folds
confirmations and retractions by
:func:`~repro.serve.model.record_key`, which needs the activity's NFT,
account set and transfer hashes back as real objects.  The decoder
rebuilds genuine :class:`~repro.core.activity.WashTradingActivity`
instances (transfers included), so client-side code -- the load
generator's replay mirror, the reconnect tests -- runs the very same
reconciliation logic as an in-process consumer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chain.types import NFTKey
from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from repro.ingest.records import ERC20Payment, NFTTransfer
from repro.serve.model import (
    AccountProfile,
    ActivityRecord,
    CollectionRollup,
    FunnelSnapshot,
    MarketplaceRollup,
    RecordKey,
    ServeVersion,
    TokenStatus,
)
from repro.serve.query import ConfirmedPage, PageCursor
from repro.serve.wire.framing import RawJSON, dumps
from repro.stream.alerts import Alert, AlertKind

#: Protocol revision announced by ``ping``; bump on breaking changes.
PROTOCOL_VERSION = 1


# -- keys and cursors ------------------------------------------------------
def encode_nft(nft: NFTKey) -> List[Any]:
    return [nft.contract, nft.token_id]


def decode_nft(data: Sequence[Any]) -> NFTKey:
    contract, token_id = data
    return NFTKey(contract=str(contract), token_id=int(token_id))


def encode_record_key(key: RecordKey) -> List[Any]:
    contract, token_id, accounts, hashes = key
    return [contract, token_id, list(accounts), list(hashes)]


def decode_record_key(data: Sequence[Any]) -> RecordKey:
    contract, token_id, accounts, hashes = data
    return (
        str(contract),
        int(token_id),
        tuple(str(account) for account in accounts),
        tuple(str(tx_hash) for tx_hash in hashes),
    )


def encode_page_cursor(cursor: Optional[PageCursor]) -> Optional[List[Any]]:
    if cursor is None:
        return None
    seq, key = cursor
    return [seq, encode_record_key(key)]


def decode_page_cursor(data: Optional[Sequence[Any]]) -> Optional[PageCursor]:
    if data is None:
        return None
    seq, key = data
    return (int(seq), decode_record_key(key))


# -- activities ------------------------------------------------------------
def encode_transfer(transfer: NFTTransfer) -> Dict[str, Any]:
    return {
        "nft": encode_nft(transfer.nft),
        "sender": transfer.sender,
        "recipient": transfer.recipient,
        "tx_hash": transfer.tx_hash,
        "block_number": transfer.block_number,
        "timestamp": transfer.timestamp,
        "price_wei": transfer.price_wei,
        "gas_fee_wei": transfer.gas_fee_wei,
        "interacted_contract": transfer.interacted_contract,
        "marketplace": transfer.marketplace,
        "tx_sender": transfer.tx_sender,
        "erc20_payments": [
            [payment.token, payment.sender, payment.recipient, payment.amount]
            for payment in transfer.erc20_payments
        ],
    }


def decode_transfer(data: Dict[str, Any]) -> NFTTransfer:
    return NFTTransfer(
        nft=decode_nft(data["nft"]),
        sender=data["sender"],
        recipient=data["recipient"],
        tx_hash=data["tx_hash"],
        block_number=data["block_number"],
        timestamp=data["timestamp"],
        price_wei=data["price_wei"],
        gas_fee_wei=data["gas_fee_wei"],
        interacted_contract=data["interacted_contract"],
        marketplace=data["marketplace"],
        tx_sender=data["tx_sender"],
        erc20_payments=tuple(
            ERC20Payment(token=token, sender=sender, recipient=recipient, amount=amount)
            for token, sender, recipient, amount in data["erc20_payments"]
        ),
    )


def encode_activity(activity: WashTradingActivity) -> Dict[str, Any]:
    component = activity.component
    return {
        "nft": encode_nft(activity.nft),
        "accounts": sorted(component.accounts),
        "methods": sorted(method.value for method in activity.methods),
        "volume_wei": component.volume_wei,
        "transfers": [
            encode_transfer(transfer)
            for transfer in sorted(
                component.transfers,
                key=lambda t: (t.block_number, t.tx_hash, t.sender, t.recipient),
            )
        ],
        # Evidence details hold free-form detector output (addresses,
        # balances, tuples); the canonical sorted-items repr is the same
        # normalization the in-process parity fingerprint uses.
        "evidence": sorted(
            (
                {
                    "method": item.method.value,
                    "details": repr(sorted(item.details.items())),
                }
                for item in activity.evidence
            ),
            key=lambda entry: (entry["method"], entry["details"]),
        ),
    }


def decode_activity(data: Dict[str, Any]) -> WashTradingActivity:
    component = CandidateComponent(
        nft=decode_nft(data["nft"]),
        accounts=frozenset(data["accounts"]),
        transfers=tuple(decode_transfer(item) for item in data["transfers"]),
    )
    evidence = [
        DetectionEvidence(
            method=DetectionMethod(item["method"]),
            # The canonical repr string is kept verbatim: it is exactly
            # what the parity fingerprint compares, and detector output
            # types (tuples, sets) do not survive JSON anyway.
            details={"canonical": item["details"]},
        )
        for item in data["evidence"]
    ]
    return WashTradingActivity(component=component, evidence=evidence)


# -- records and point lookups ---------------------------------------------
def encode_record(record: ActivityRecord) -> Dict[str, Any]:
    return {
        "nft": encode_nft(record.nft),
        "key": encode_record_key(record.key),
        "accounts": sorted(record.accounts),
        "methods": sorted(method.value for method in record.methods),
        "volume_wei": record.volume_wei,
        "transfer_count": record.transfer_count,
        "first_block": record.first_block,
        "last_block": record.last_block,
        "marketplace": record.marketplace,
        "venue": record.venue,
        "confirmed_at_block": record.confirmed_at_block,
        "seq": record.seq,
        "activity": encode_activity(record.activity),
    }


#: How a record is written into a composite answer: the reference
#: :func:`encode_record` or the server's cached :func:`record_fragment`.
RecordEncoder = Callable[[ActivityRecord], Any]


def encode_token_status(
    status: TokenStatus, record: RecordEncoder = encode_record
) -> Dict[str, Any]:
    return {
        "nft": encode_nft(status.nft),
        "is_washed": status.is_washed,
        "activity_count": status.activity_count,
        "retraction_count": status.retraction_count,
        "methods": sorted(method.value for method in status.methods),
        "volume_wei": status.volume_wei,
        "last_confirmed_block": status.last_confirmed_block,
        "records": [record(item) for item in status.records],
    }


def encode_account_profile(
    profile: AccountProfile, record: RecordEncoder = encode_record
) -> Dict[str, Any]:
    return {
        "address": profile.address,
        "is_implicated": profile.is_implicated,
        "activity_count": profile.activity_count,
        "methods": sorted(method.value for method in profile.methods),
        "volume_wei": profile.volume_wei,
        "nfts": sorted(encode_nft(nft) for nft in profile.nfts),
        "partners": sorted(profile.partners),
        "records": [record(item) for item in profile.records],
    }


# -- listings --------------------------------------------------------------
def encode_page(
    page: ConfirmedPage, record: RecordEncoder = encode_record
) -> Dict[str, Any]:
    return {
        "records": [record(item) for item in page.records],
        "next_cursor": encode_page_cursor(page.next_cursor),
        "total_matched": page.total_matched,
        "version": page.version,
    }


# -- aggregates ------------------------------------------------------------
def _encode_method_counts(counts) -> Dict[str, int]:
    return {method.value: count for method, count in sorted(counts.items())}


def encode_collection_rollup(rollup: CollectionRollup) -> Dict[str, Any]:
    return {
        "contract": rollup.contract,
        "version": rollup.version,
        "token_count": rollup.token_count,
        "flagged_token_count": rollup.flagged_token_count,
        "activity_count": rollup.activity_count,
        "volume_wei": rollup.volume_wei,
        "account_count": rollup.account_count,
        "method_counts": _encode_method_counts(rollup.method_counts),
        "retraction_count": rollup.retraction_count,
    }


def encode_marketplace_rollup(rollup: MarketplaceRollup) -> Dict[str, Any]:
    return {
        "venue": rollup.venue,
        "version": rollup.version,
        "activity_count": rollup.activity_count,
        "flagged_nft_count": rollup.flagged_nft_count,
        "volume_wei": rollup.volume_wei,
        "account_count": rollup.account_count,
        "method_counts": _encode_method_counts(rollup.method_counts),
    }


def encode_funnel(funnel: FunnelSnapshot) -> Dict[str, Any]:
    return {
        "version": funnel.version,
        "candidate_count": funnel.candidate_count,
        "confirmed_activity_count": funnel.confirmed_activity_count,
        "stages": [
            {
                "name": stage.name,
                "nft_count": stage.nft_count,
                "component_count": stage.component_count,
                "account_count": stage.account_count,
            }
            for stage in funnel.stages
        ],
    }


# -- versions --------------------------------------------------------------
def encode_version_info(version: ServeVersion) -> Dict[str, Any]:
    """The scalar summary of one published version (the ``pin`` answer)."""
    return {
        "version": version.version,
        "block": version.block,
        "last_seq": version.last_seq,
        "dirty_token_count": version.dirty_token_count,
        "reorg_depth": version.reorg_depth,
        "retracted_count": version.retracted_count,
        "newly_confirmed_count": version.newly_confirmed_count,
        "confirmed_activity_count": version.confirmed_activity_count,
        "flagged_nft_count": len(version.token_status),
        "is_revision": version.is_revision,
        "token_order_epoch": version.token_order_epoch,
        "accounts_epoch": version.accounts_epoch,
        "store": {
            "transfer_count": version.store_stats.transfer_count,
            "token_count": version.store_stats.token_count,
            "account_count": version.store_stats.account_count,
        },
    }


def encode_token_order(version: ServeVersion, offset: int = 0) -> Dict[str, Any]:
    """The version's token order from ``offset`` on (the ``token_order``
    answer).  ``epoch`` and ``size`` let a client that holds the first
    ``offset`` tokens of the same epoch fetch only the suffix."""
    return {
        "version": version.version,
        "epoch": version.token_order_epoch,
        "size": len(version.token_order),
        "tokens": [encode_nft(nft) for nft in version.token_order[offset:]],
    }


# -- alerts ----------------------------------------------------------------
def encode_alert(alert: Alert) -> Dict[str, Any]:
    return {
        "kind": alert.kind.value,
        "block": alert.block,
        "timestamp": alert.timestamp,
        "nft": None if alert.nft is None else encode_nft(alert.nft),
        "activity": (
            None if alert.activity is None else encode_activity(alert.activity)
        ),
        "watched_accounts": sorted(alert.watched_accounts),
        "reorg_depth": alert.reorg_depth,
        "fork_block": alert.fork_block,
        "seq": alert.seq,
        "trace": alert.trace,
        "slo": alert.slo,
        "budget_used": alert.budget_used,
        "detail": alert.detail,
    }


# -- encode once ----------------------------------------------------------
#: Instance-dict key of an object's cached fragment.
_FRAGMENT = "_wire_fragment"


def _fragment(obj: Any, encode: Callable[[Any], Dict[str, Any]]) -> RawJSON:
    """``obj``'s wire encoding as frame text, encoded on first use.

    Records and alerts are frozen and nothing changes their activities
    in place, so the text never goes stale.  It is kept on the object,
    which keys it by identity: record equality ignores ``activity``, so
    two equal records may carry different evidence.  The write goes to
    the instance dict, as ``functools.cached_property`` does on frozen
    dataclasses; threads that race here encode the same text and
    either write wins.
    """
    fragment = obj.__dict__.get(_FRAGMENT)
    if fragment is None:
        fragment = obj.__dict__[_FRAGMENT] = RawJSON(dumps(encode(obj)))
    return fragment


def record_fragment(record: ActivityRecord) -> RawJSON:
    """:func:`encode_record` of ``record``, encoded once."""
    return _fragment(record, encode_record)


def alert_fragment(alert: Alert) -> RawJSON:
    """:func:`encode_alert` of ``alert``, encoded once."""
    return _fragment(alert, encode_alert)


def decode_alert(data: Dict[str, Any]) -> Alert:
    return Alert(
        kind=AlertKind(data["kind"]),
        block=data["block"],
        timestamp=data["timestamp"],
        nft=None if data["nft"] is None else decode_nft(data["nft"]),
        activity=(
            None if data["activity"] is None else decode_activity(data["activity"])
        ),
        watched_accounts=frozenset(data["watched_accounts"]),
        reorg_depth=data["reorg_depth"],
        fork_block=data["fork_block"],
        seq=data["seq"],
        # .get with defaults: tolerate frames from a pre-trace peer.
        trace=data.get("trace", ""),
        slo=data.get("slo", ""),
        budget_used=data.get("budget_used", 0.0),
        detail=data.get("detail", ""),
    )
