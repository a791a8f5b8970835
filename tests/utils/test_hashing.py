"""Unit tests for deterministic hashing helpers."""

from __future__ import annotations

import hashlib

from hypothesis import given, strategies as st

from repro.utils.hashing import (
    ERC1155_TRANSFER_SINGLE_SIGNATURE,
    ERC721_TRANSFER_SIGNATURE,
    address_from_parts,
    event_signature,
    is_address,
    keccak_hex,
    new_address,
    new_tx_hash,
)


class TestKeccakHex:
    def test_is_deterministic(self):
        assert keccak_hex("a", 1) == keccak_hex("a", 1)

    def test_differs_for_different_inputs(self):
        assert keccak_hex("a") != keccak_hex("b")

    def test_has_hash_shape(self):
        digest = keccak_hex("anything")
        assert digest.startswith("0x")
        assert len(digest) == 66

    def test_part_boundaries_matter(self):
        # ("ab",) and ("a", "b") must not collide.
        assert keccak_hex("ab") != keccak_hex("a", "b")

    def test_matches_per_part_updates(self):
        """Every transaction hash and address on a simulated chain comes
        from this function, so its bytes must not change."""

        def reference(*parts: object) -> str:
            digest = hashlib.sha3_256()
            for part in parts:
                digest.update(repr(part).encode("utf-8"))
                digest.update(b"\x00")
            return "0x" + digest.hexdigest()

        cases = [
            (),
            ("tx",),
            ("tx", 42, None),
            ("block", 7, 1_600_000_000, ("0xab", "0xcd")),
            ("naïve", "日本", -3, 10**30),
            ("", 0, (), None),
        ]
        for parts in cases:
            assert keccak_hex(*parts) == reference(*parts), parts


class TestEventSignature:
    def test_transfer_signature_matches_mainnet_constant(self):
        assert (
            event_signature("Transfer(address,address,uint256)")
            == ERC721_TRANSFER_SIGNATURE
        )
        assert ERC721_TRANSFER_SIGNATURE.startswith("0xddf252ad")

    def test_erc1155_signature_is_distinct(self):
        assert ERC1155_TRANSFER_SINGLE_SIGNATURE != ERC721_TRANSFER_SIGNATURE

    def test_unknown_event_gets_synthetic_signature(self):
        signature = event_signature("Foo(uint256)")
        assert signature.startswith("0x")
        assert signature != ERC721_TRANSFER_SIGNATURE


class TestAddresses:
    def test_new_address_shape(self):
        assert is_address(new_address())

    def test_new_addresses_are_unique(self):
        addresses = {new_address() for _ in range(100)}
        assert len(addresses) == 100

    def test_address_from_parts_is_deterministic(self):
        assert address_from_parts("x", 1) == address_from_parts("x", 1)

    def test_is_address_rejects_bad_values(self):
        assert not is_address("0x123")
        assert not is_address("not an address")
        assert not is_address("0x" + "zz" * 20)

    def test_tx_hash_shape(self):
        assert new_tx_hash("a", 1).startswith("0x")
        assert len(new_tx_hash("a", 1)) == 66


@given(st.text(max_size=30), st.integers())
def test_address_from_parts_always_valid(text, number):
    assert is_address(address_from_parts(text, number))


@given(st.lists(st.integers(), max_size=10))
def test_keccak_hex_deterministic_property(parts):
    assert keccak_hex(*parts) == keccak_hex(*parts)
