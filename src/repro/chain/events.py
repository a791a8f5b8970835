"""Event logs.

Ethereum contracts signal state changes by emitting logs.  A log carries
the address of the emitting contract, up to four *topics* (the first is
the keccak of the event declaration, the rest are the indexed arguments)
and a data blob with the non-indexed arguments.

The paper's data collection hinges on the exact topic layout: an ERC-721
``Transfer`` event has **four** topics (signature, from, to, token id)
while an ERC-20 ``Transfer`` has three (the amount is not indexed) and
ERC-1155 uses a different signature altogether.  The reproduction keeps
that layout byte-for-byte at the signature level so the ingest code can
apply the same discrimination rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.utils.hashing import (
    ERC1155_TRANSFER_BATCH_SIGNATURE,
    ERC1155_TRANSFER_SINGLE_SIGNATURE,
    ERC721_TRANSFER_SIGNATURE,
)


@dataclass(frozen=True, slots=True)
class Log:
    """One event log entry, as a receipt would expose it.

    A log classifies itself once, at construction: ``is_erc721_transfer``
    and ``is_erc20_transfer`` are stored, so the scan, the account index
    and the money-flow extraction read a slot instead of re-deriving the
    topic rule per visit.  They take no part in equality and cannot be
    passed in; ``dataclasses.replace`` recomputes them.
    """

    address: str
    topics: tuple[str, ...]
    data: Mapping[str, Any] = field(default_factory=dict)
    #: The paper's rule: the ``ddf252ad…`` Transfer signature *and* four
    #: topics (token id indexed).
    is_erc721_transfer: bool = field(init=False, compare=False, repr=False)
    #: The same signature with the ERC-20 layout: three topics (the
    #: amount is not indexed).
    is_erc20_transfer: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        topics = self.topics
        transfer = bool(topics) and topics[0] == ERC721_TRANSFER_SIGNATURE
        object.__setattr__(self, "is_erc721_transfer", transfer and len(topics) == 4)
        object.__setattr__(self, "is_erc20_transfer", transfer and len(topics) == 3)

    @property
    def signature(self) -> str:
        """Topic 0: the event signature hash ('' if the log has no topics)."""
        return self.topics[0] if self.topics else ""

    @property
    def is_erc1155_transfer(self) -> bool:
        """True for ERC-1155 TransferSingle or TransferBatch events."""
        return self.signature in (
            ERC1155_TRANSFER_SINGLE_SIGNATURE,
            ERC1155_TRANSFER_BATCH_SIGNATURE,
        )


def erc721_transfer_log(contract: str, sender: str, recipient: str, token_id: int) -> Log:
    """Build an ERC-721 ``Transfer`` log (4 topics)."""
    return Log(
        address=contract,
        topics=(ERC721_TRANSFER_SIGNATURE, sender, recipient, hex(token_id)),
    )


def erc20_transfer_log(contract: str, sender: str, recipient: str, amount: int) -> Log:
    """Build an ERC-20 ``Transfer`` log (3 topics, amount in data)."""
    return Log(
        address=contract,
        topics=(ERC721_TRANSFER_SIGNATURE, sender, recipient),
        data={"value": amount},
    )


def erc1155_transfer_log(
    contract: str, operator: str, sender: str, recipient: str, token_id: int, amount: int
) -> Log:
    """Build an ERC-1155 ``TransferSingle`` log."""
    return Log(
        address=contract,
        topics=(ERC1155_TRANSFER_SINGLE_SIGNATURE, operator, sender, recipient),
        data={"id": token_id, "value": amount},
    )


def erc1155_transfer_batch_log(
    contract: str,
    operator: str,
    sender: str,
    recipient: str,
    token_ids: Sequence[int],
    amounts: Sequence[int],
) -> Log:
    """Build an ERC-1155 ``TransferBatch`` log (ids and amounts in data).

    Like the real event it keeps four topics -- signature, operator,
    from, to -- so it is structurally indistinguishable from an ERC-721
    ``Transfer`` by topic *count* alone; only the signature separates
    them, which is exactly the discrimination the ingest scan must make.
    """
    return Log(
        address=contract,
        topics=(ERC1155_TRANSFER_BATCH_SIGNATURE, operator, sender, recipient),
        data={"ids": tuple(token_ids), "values": tuple(amounts)},
    )
