"""Unit tests for event log construction and classification."""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain.events import (
    Log,
    erc1155_transfer_batch_log,
    erc1155_transfer_log,
    erc20_transfer_log,
    erc721_transfer_log,
)
from repro.utils.hashing import ERC721_TRANSFER_SIGNATURE, event_signature

ALICE = "0x" + "a" * 40
BOB = "0x" + "b" * 40
CONTRACT = "0x" + "c" * 40


class TestERC721Log:
    def test_has_four_topics(self):
        log = erc721_transfer_log(CONTRACT, ALICE, BOB, 7)
        assert len(log.topics) == 4

    def test_signature_matches_standard(self):
        log = erc721_transfer_log(CONTRACT, ALICE, BOB, 7)
        assert log.signature == ERC721_TRANSFER_SIGNATURE

    def test_classified_as_erc721(self):
        log = erc721_transfer_log(CONTRACT, ALICE, BOB, 7)
        assert log.is_erc721_transfer
        assert not log.is_erc20_transfer
        assert not log.is_erc1155_transfer

    def test_token_id_encoded_in_topic(self):
        log = erc721_transfer_log(CONTRACT, ALICE, BOB, 255)
        assert int(log.topics[3], 16) == 255


class TestERC20Log:
    def test_has_three_topics_and_amount_data(self):
        log = erc20_transfer_log(CONTRACT, ALICE, BOB, 1000)
        assert len(log.topics) == 3
        assert log.data["value"] == 1000

    def test_shares_signature_but_not_classification(self):
        log = erc20_transfer_log(CONTRACT, ALICE, BOB, 1000)
        assert log.signature == ERC721_TRANSFER_SIGNATURE
        assert log.is_erc20_transfer
        assert not log.is_erc721_transfer


class TestERC1155Log:
    def test_different_signature(self):
        log = erc1155_transfer_log(CONTRACT, ALICE, ALICE, BOB, 3, 10)
        assert log.signature != ERC721_TRANSFER_SIGNATURE
        assert log.is_erc1155_transfer
        assert not log.is_erc721_transfer


class TestLogBasics:
    def test_empty_log_signature(self):
        assert Log(address=CONTRACT, topics=()).signature == ""


def paper_rule(log: Log) -> tuple[bool, bool]:
    """The topic rule, spelled out: the Transfer signature with four
    topics is ERC-721, with three topics ERC-20."""
    transfer = len(log.topics) > 0 and log.topics[0] == ERC721_TRANSFER_SIGNATURE
    return (
        transfer and len(log.topics) == 4,
        transfer and len(log.topics) == 3,
    )


CLASSIFIED_LOGS = {
    "erc721": erc721_transfer_log(CONTRACT, ALICE, BOB, 7),
    "erc20": erc20_transfer_log(CONTRACT, ALICE, BOB, 1000),
    "erc1155-single": erc1155_transfer_log(CONTRACT, ALICE, ALICE, BOB, 3, 10),
    "erc1155-batch": erc1155_transfer_batch_log(
        CONTRACT, ALICE, ALICE, BOB, (1, 2), (5, 6)
    ),
    "other-event-4-topics": Log(
        address=CONTRACT,
        topics=(event_signature("Approval(address,address,uint256)"), ALICE, BOB, "0x7"),
    ),
    "no-topics": Log(address=CONTRACT, topics=()),
}


class TestStoredClassification:
    """A log classifies itself once; the stored flags are the paper's rule."""

    @pytest.mark.parametrize("name", sorted(CLASSIFIED_LOGS))
    def test_flags_equal_the_topic_rule(self, name):
        log = CLASSIFIED_LOGS[name]
        assert (log.is_erc721_transfer, log.is_erc20_transfer) == paper_rule(log)
        assert log.is_erc721_transfer == (name == "erc721")
        assert log.is_erc20_transfer == (name == "erc20")

    def test_replace_recomputes_the_flags(self):
        erc721 = CLASSIFIED_LOGS["erc721"]
        as_erc20 = dataclasses.replace(erc721, topics=erc721.topics[:3])
        assert as_erc20.is_erc20_transfer and not as_erc20.is_erc721_transfer
        back = dataclasses.replace(as_erc20, topics=erc721.topics)
        assert back.is_erc721_transfer and not back.is_erc20_transfer
        other = dataclasses.replace(erc721, topics=("0x" + "1" * 64,) + erc721.topics[1:])
        assert not other.is_erc721_transfer and not other.is_erc20_transfer

    def test_flags_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            Log(address=CONTRACT, topics=(), is_erc721_transfer=True)

    def test_flags_take_no_part_in_equality(self):
        log = CLASSIFIED_LOGS["erc721"]
        twin = Log(address=log.address, topics=log.topics, data=dict(log.data))
        object.__setattr__(twin, "is_erc721_transfer", False)
        assert twin == log
        assert "is_erc721_transfer" not in repr(log)
