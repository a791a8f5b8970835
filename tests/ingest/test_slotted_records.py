"""The chain and ingest records are slotted and survive copying.

Every record the ingest path creates per log or per transaction has no
per-instance ``__dict__``.  Two kinds are pinned here:

- ``NFTKey``, ``NFTTransfer`` and ``ERC20Payment`` are tuple records
  (``typing.NamedTuple``), built once per decoded log; their hash,
  equality and ordering are the tuple's.  Their field order, repr text
  and ``str`` are part of the contract: digests, reports and the wire
  spell them out.
- The other records are frozen ``slots=True`` dataclasses, which need
  their generated pickle support to copy at all.

Each record is round-tripped through ``pickle`` and ``deepcopy``.
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


TUPLE_RECORDS = {
    "NFTKey": (TRANSFER.nft, ("contract", "token_id")),
    "NFTTransfer": (
        TRANSFER,
        (
            "nft",
            "sender",
            "recipient",
            "tx_hash",
            "block_number",
            "timestamp",
            "price_wei",
            "gas_fee_wei",
            "interacted_contract",
            "marketplace",
            "tx_sender",
            "erc20_payments",
        ),
    ),
    "ERC20Payment": (PAYMENT, ("token", "sender", "recipient", "amount")),
}


@pytest.mark.parametrize("name", sorted(TUPLE_RECORDS))
def test_tuple_record_hashes_as_its_fields(name):
    record, fields = TUPLE_RECORDS[name]
    assert isinstance(record, tuple)
    assert hash(record) == hash(tuple(record))
    assert tuple(record) == tuple(getattr(record, field) for field in fields)


@pytest.mark.parametrize("name", sorted(TUPLE_RECORDS))
def test_tuple_record_field_order(name):
    record, fields = TUPLE_RECORDS[name]
    assert type(record)._fields == fields


@pytest.mark.parametrize("name", sorted(TUPLE_RECORDS))
def test_tuple_record_is_immutable(name):
    record, fields = TUPLE_RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[-1]))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_tuple_record_repr_text():
    assert repr(NFTKey(NFT_CONTRACT, 7)) == f"NFTKey(contract='{NFT_CONTRACT}', token_id=7)"
    assert repr(PAYMENT) == (
        f"ERC20Payment(token='{TOKEN}', sender='{BOB}', recipient='{ALICE}', amount=500)"
    )
    assert repr(TRANSFER) == (
        f"NFTTransfer(nft={TRANSFER.nft!r}, sender='{ALICE}', recipient='{BOB}', "
        f"tx_hash='{TX_HASH}', block_number=3, timestamp=1650000000, "
        f"price_wei=1000000000000000000, gas_fee_wei=630000000000000, "
        f"interacted_contract='{NFT_CONTRACT}', marketplace='OpenSea', "
        f"tx_sender='{BOB}', erc20_payments=({PAYMENT!r},))"
    )


def test_nft_key_str_is_contract_hash_id():
    key = NFTKey(NFT_CONTRACT, 7)
    assert str(key) == f"{key}" == f"{NFT_CONTRACT}#7"


def test_nft_key_sorts_by_contract_then_token_id():
    low, high = "0x" + "1" * 40, "0x" + "2" * 40
    keys = [NFTKey(high, 1), NFTKey(low, 10), NFTKey(high, 0), NFTKey(low, 9)]
    assert sorted(keys) == [
        NFTKey(low, 9),
        NFTKey(low, 10),
        NFTKey(high, 0),
        NFTKey(high, 1),
    ]
    assert NFTKey(low, 10) < NFTKey(high, 0)


def test_transfer_defaults_and_properties():
    bare = NFTTransfer(NFTKey(NFT_CONTRACT, 7), ALICE, ALICE, TX_HASH, 3, 0, 0, 0)
    assert bare.interacted_contract is None and bare.marketplace is None
    assert bare.tx_sender == "" and bare.erc20_payments == ()
    assert bare.is_self_transfer and not bare.is_mint and not bare.has_payment
    assert TRANSFER.has_payment and not TRANSFER.is_self_transfer
    paid_in_erc20 = NFTTransfer(
        NFTKey(NFT_CONTRACT, 7), ALICE, BOB, TX_HASH, 3, 0, 0, 0, erc20_payments=(PAYMENT,)
    )
    assert paid_in_erc20.has_payment
