"""Small value types shared across the chain substrate.

Addresses, hashes and wei amounts are plain ``str``/``int`` throughout
the code base (mirroring how web3.py exposes them); this module defines
the composite value types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

#: The Ethereum null address.  The paper treats it specially: it is the
#: canonical source of mint transactions and sink of burn transactions,
#: and is removed from transaction graphs during refinement.
NULL_ADDRESS = "0x" + "0" * 40


class NFTKey(NamedTuple):
    """Globally unique identifier of one NFT.

    The paper identifies an NFT by the pair (smart-contract address,
    token id); this type is that pair.  It is a tuple record, so its
    hash, equality and ordering (by contract, then token id) run in C:
    keep it out of any key space that also holds other 2-tuples, since
    an equal plain tuple is the same key.
    """

    contract: str
    token_id: int

    def __str__(self) -> str:
        return f"{self.contract}#{self.token_id}"


@dataclass(frozen=True, slots=True)
class Call:
    """A contract call payload (the decoded ``input`` of a transaction).

    ``function`` is the method name on the target contract object and
    ``args`` its keyword arguments.  The real chain encodes this as ABI
    calldata; the decoded form is what every consumer of this substrate
    actually needs.
    """

    function: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def arg(self, name: str, default: Any = None) -> Any:
        """Return a single argument by name."""
        return self.args.get(name, default)


@dataclass(frozen=True, slots=True)
class ValueTransfer:
    """A single movement of ETH recorded while executing a transaction.

    Besides the top-level ``value`` of a transaction, contract execution
    moves ETH internally (e.g. a marketplace forwarding the sale price to
    the seller and the fee to its treasury).  These are the "internal
    transactions" a real node exposes via traces; the funding/exit
    detectors and the profitability analysis both rely on them.
    """

    sender: str
    recipient: str
    amount_wei: int
