"""A pinned digest of the batch dataset over the default world.

The digest covers every record ``build_dataset`` produces and the order
it produces them in: the per-NFT transfer lists (every field, including
the co-occurring ERC-20 payments), the per-account transaction hashes,
the raw scan matches and the compliance sets.  A rewrite of the decode
or ordering code that changes any record, or any order, changes the
digest.

If a change is *meant* to alter the dataset, recompute the digest on
the new code and say in the change why it moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.ingest.dataset import NFTDataset, build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig

#: ``dataset_digest`` of ``build_dataset`` over the default seed-42 world.
DEFAULT_WORLD_DIGEST = (
    "eb4613e4a0b103b50bcd672e9be21e865bf832319eff6ef97e9d3e0ccdd0d994"
)


def dataset_digest(dataset: NFTDataset) -> str:
    """SHA-256 over a canonical rendering of the whole dataset."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())
        digest.update(b"\n")

    for nft, transfers in dataset.transfers_by_nft.items():
        feed("nft", nft.contract, nft.token_id, len(transfers))
        for t in transfers:
            feed(
                "transfer", t.sender, t.recipient, t.tx_hash, t.block_number,
                t.timestamp, t.price_wei, t.gas_fee_wei, t.interacted_contract,
                t.marketplace, t.tx_sender,
                tuple(
                    (p.token, p.sender, p.recipient, p.amount)
                    for p in t.erc20_payments
                ),
            )
    for account, transactions in dataset.account_transactions.items():
        feed("account", account, tuple(tx.hash for tx in transactions))
    for tx, log in dataset.scan.matches:
        feed("match", tx.hash, log.address, log.topics)
    feed("emitting", tuple(sorted(dataset.scan.emitting_contracts)))
    feed("compliant", tuple(sorted(dataset.compliance.compliant)))
    feed("non-compliant", tuple(sorted(dataset.compliance.non_compliant)))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def default_dataset() -> NFTDataset:
    world = build_default_world(SimulationConfig(seed=42))
    return build_dataset(world.node, world.marketplace_addresses)


def test_default_world_dataset_digest_is_pinned(default_dataset):
    assert dataset_digest(default_dataset) == DEFAULT_WORLD_DIGEST
