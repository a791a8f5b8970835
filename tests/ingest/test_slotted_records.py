"""The chain and ingest records are slotted and survive copying.

Every record the ingest path creates per log or per transaction is a
frozen ``slots=True`` dataclass: no per-instance ``__dict__``.  Frozen
slotted dataclasses need their generated pickle support to copy at all,
so each record is round-tripped through ``pickle`` and ``deepcopy``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.chain.events import erc20_transfer_log, erc721_transfer_log
from repro.chain.transaction import Receipt, Transaction
from repro.chain.types import Call, NFTKey, ValueTransfer
from repro.core.detectors.base import MoneyFlow
from repro.ingest.records import ERC20Payment, NFTTransfer

ALICE = "0x" + "a" * 40
BOB = "0x" + "b" * 40
NFT_CONTRACT = "0x" + "c" * 40
TOKEN = "0x" + "d" * 40
TX_HASH = "0x" + "e" * 64

NFT_LOG = erc721_transfer_log(NFT_CONTRACT, ALICE, BOB, 7)
PAYMENT_LOG = erc20_transfer_log(TOKEN, BOB, ALICE, 500)
VALUE_TRANSFER = ValueTransfer(BOB, ALICE, 10**18)
CALL = Call("transferFrom", {"sender": ALICE, "recipient": BOB, "token_id": 7})
RECEIPT = Receipt(
    transaction_hash=TX_HASH,
    status=1,
    gas_used=21_000,
    logs=(NFT_LOG, PAYMENT_LOG),
    value_transfers=(VALUE_TRANSFER,),
)
TRANSACTION = Transaction(
    hash=TX_HASH,
    block_number=3,
    timestamp=1_650_000_000,
    sender=BOB,
    to=NFT_CONTRACT,
    value_wei=10**18,
    gas_used=21_000,
    gas_price_wei=30 * 10**9,
    call=CALL,
    receipt=RECEIPT,
    nonce=4,
)
PAYMENT = ERC20Payment(TOKEN, BOB, ALICE, 500)
TRANSFER = NFTTransfer(
    nft=NFTKey(NFT_CONTRACT, 7),
    sender=ALICE,
    recipient=BOB,
    tx_hash=TX_HASH,
    block_number=3,
    timestamp=1_650_000_000,
    price_wei=10**18,
    gas_fee_wei=21_000 * 30 * 10**9,
    interacted_contract=NFT_CONTRACT,
    marketplace="OpenSea",
    tx_sender=BOB,
    erc20_payments=(PAYMENT,),
)
FLOW = MoneyFlow(ALICE, BOB, 10**18, 1_650_000_000, TX_HASH, "eth")

RECORDS = {
    "Transaction": TRANSACTION,
    "Receipt": RECEIPT,
    "Log": NFT_LOG,
    "ValueTransfer": VALUE_TRANSFER,
    "Call": CALL,
    "NFTKey": TRANSFER.nft,
    "NFTTransfer": TRANSFER,
    "ERC20Payment": PAYMENT,
    "MoneyFlow": FLOW,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_has_no_instance_dict(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    record = RECORDS[name]
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_deepcopy(name):
    record = RECORDS[name]
    copied = copy.deepcopy(record)
    assert copied == record
    assert copied is not record


def test_copies_keep_the_log_classification():
    """The flags take no part in equality, so check them directly."""
    for copied in (pickle.loads(pickle.dumps(TRANSACTION)), copy.deepcopy(TRANSACTION)):
        nft_log, payment_log = copied.logs
        assert nft_log.is_erc721_transfer and not nft_log.is_erc20_transfer
        assert payment_log.is_erc20_transfer and not payment_log.is_erc721_transfer
