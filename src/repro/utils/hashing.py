"""Deterministic hashing helpers.

The real Ethereum protocol uses Keccak-256 for addresses, transaction
hashes and event signatures.  Inside this reproduction hashes are only
identifiers -- nothing cryptographic depends on them -- so we use
SHA3-256 from the standard library as a stand-in (see DESIGN.md,
"Numerical conventions").  What matters for the paper's methodology is
that ERC-721 Transfer events are recognisable by a fixed signature
prefix (``ddf252ad``), which we preserve verbatim.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator

#: Signature (topic 0) shared by ERC-20 and ERC-721 ``Transfer`` events on
#: the real chain: ``keccak("Transfer(address,address,uint256)")``.  The
#: paper identifies ERC-721 transfers by this signature *plus* the fact
#: that they carry four topics (the token id is indexed), while ERC-20
#: transfers carry only three.
ERC721_TRANSFER_SIGNATURE = (
    "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
)

#: ``keccak("TransferSingle(address,address,address,uint256,uint256)")`` --
#: the ERC-1155 single-transfer event, used as a distractor in tests.
ERC1155_TRANSFER_SINGLE_SIGNATURE = (
    "0xc3d58168c5ae7397731d063d5bbf3d657854427343f4c083240f7aacaa2d0f62"
)

#: ``keccak("TransferBatch(address,address,address,uint256[],uint256[])")``
#: -- the ERC-1155 batch mint/burn/transfer event.  Like TransferSingle
#: it must never be picked up by the ERC-721 scan.
ERC1155_TRANSFER_BATCH_SIGNATURE = (
    "0x4a39dc06d4c0dbc64b70af90fd698a233a518aa5d07e595d983b8c0526c8f7fb"
)

#: ``keccak("Approval(address,address,uint256)")``.
APPROVAL_SIGNATURE = (
    "0x8c5be1e5ebec7d5bd14f71427d1e84f3dd0314c0f7b2291e5b200ac8c7c3b925"
)


def keccak_hex(*parts: object) -> str:
    """Return a deterministic 32-byte hex digest (``0x`` + 64 chars).

    The digest is a SHA3-256 over the repr of the parts; it serves as a
    stand-in for Keccak-256 identifiers (transaction hashes, addresses).
    The hashed bytes are each part's repr followed by a NUL, fed in one
    ``update``; no parts hash the empty string.
    """
    text = "\x00".join(map(repr, parts)) + "\x00" if parts else ""
    return "0x" + hashlib.sha3_256(text.encode("utf-8")).hexdigest()


def event_signature(declaration: str) -> str:
    """Return the topic-0 signature for an event declaration string.

    Known standard events return their real mainnet signatures so the
    ingest layer can match on the same constants the paper uses; any
    other declaration gets a deterministic synthetic signature.
    """
    known = {
        "Transfer(address,address,uint256)": ERC721_TRANSFER_SIGNATURE,
        "TransferSingle(address,address,address,uint256,uint256)": (
            ERC1155_TRANSFER_SINGLE_SIGNATURE
        ),
        "TransferBatch(address,address,address,uint256[],uint256[])": (
            ERC1155_TRANSFER_BATCH_SIGNATURE
        ),
        "Approval(address,address,uint256)": APPROVAL_SIGNATURE,
    }
    if declaration in known:
        return known[declaration]
    return keccak_hex("event", declaration)


_address_counter: Iterator[int] = itertools.count(1)


def new_address(namespace: str = "account") -> str:
    """Return a fresh, deterministic 20-byte address (``0x`` + 40 chars).

    Addresses are derived from a process-wide counter plus a namespace so
    two worlds built in the same process never collide; determinism
    across runs comes from the simulation layer, which derives addresses
    from its own seeded RNG instead of calling this helper directly.
    """
    serial = next(_address_counter)
    return address_from_parts(namespace, serial)


def address_from_parts(*parts: object) -> str:
    """Derive a 20-byte address deterministically from arbitrary parts."""
    return "0x" + keccak_hex("address", *parts)[2:42]


def new_tx_hash(*parts: object) -> str:
    """Derive a transaction hash deterministically from arbitrary parts."""
    return keccak_hex("tx", *parts)


def is_address(value: str) -> bool:
    """Return True if ``value`` looks like a 20-byte hex address."""
    if not isinstance(value, str) or not value.startswith("0x"):
        return False
    body = value[2:]
    if len(body) != 40:
        return False
    try:
        int(body, 16)
    except ValueError:
        return False
    return True
