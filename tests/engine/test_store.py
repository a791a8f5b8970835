"""Unit tests for the columnar store, mask components and sharding."""

from __future__ import annotations

import pickle

import pytest

from repro.chain.types import NFTKey
from repro.core.graph import build_transaction_graph
from repro.engine.executor import AccountSetPredicate
from repro.engine.refine import token_components
from repro.engine.store import ColumnarTransferStore
from repro.ingest.records import NFTTransfer

NFT = NFTKey(contract="0x" + "d" * 40, token_id=7)


def make_transfer(sender, recipient, ts=0, price=0, block=None):
    return NFTTransfer(
        nft=NFT,
        sender=sender,
        recipient=recipient,
        tx_hash=f"0x{sender}-{recipient}-{ts}",
        block_number=block if block is not None else ts,
        timestamp=ts,
        price_wei=price,
        gas_fee_wei=10,
        tx_sender=sender,
    )


class TestColumnarTransferStore:
    def test_interning_is_stable_and_dense(self):
        store = ColumnarTransferStore()
        first = store.intern("A")
        second = store.intern("B")
        assert store.intern("A") == first
        assert (first, second) == (0, 1)
        assert store.accounts == ["A", "B"]
        assert store.address_of(second) == "B"
        assert store.account_id("B") == second

    def test_rows_sorted_like_legacy_graph(self):
        transfers = [
            make_transfer("B", "C", ts=9),
            make_transfer("A", "B", ts=1),
            make_transfer("C", "A", ts=9, block=8),
        ]
        store = ColumnarTransferStore.from_transfers({NFT: transfers})
        columns = store.tokens[NFT]
        legacy = build_transaction_graph(NFT, transfers)
        assert list(columns.transfers) == legacy.transfers
        assert [store.address_of(i) for i in columns.senders] == [
            t.sender for t in legacy.transfers
        ]
        assert [store.address_of(i) for i in columns.recipients] == [
            t.recipient for t in legacy.transfers
        ]

    def test_columns_align_with_transfers(self):
        transfers = [make_transfer("A", "B", ts=1, price=5), make_transfer("B", "B", ts=2)]
        store = ColumnarTransferStore.from_transfers({NFT: transfers})
        columns = store.tokens[NFT]
        for row in range(columns.row_count):
            transfer = columns.transfers[row]
            assert store.address_of(columns.senders[row]) == transfer.sender
            assert store.address_of(columns.recipients[row]) == transfer.recipient
            assert bool(columns.payment_flags[row]) == transfer.has_payment
        assert columns.account_ids == {store.account_id("A"), store.account_id("B")}

    def test_counts_and_order(self):
        other = NFTKey(contract="0x" + "e" * 40, token_id=1)
        store = ColumnarTransferStore.from_transfers(
            {NFT: [make_transfer("A", "B", 1)], other: [make_transfer("B", "A", 2)]}
        )
        assert store.token_count == 2
        assert store.transfer_count == 2
        assert store.account_count == 2
        assert store.nfts() == [NFT, other]

    def test_ids_matching_runs_predicate_per_account(self):
        store = ColumnarTransferStore.from_transfers(
            {NFT: [make_transfer("A", "B", 1), make_transfer("B", "A", 2)]}
        )
        matched = store.ids_matching(lambda address: address == "A")
        assert store.addresses_of(matched) == {"A"}

    def test_touched_by(self):
        store = ColumnarTransferStore.from_transfers({NFT: [make_transfer("A", "B", 1)]})
        columns = store.tokens[NFT]
        assert columns.touched_by(frozenset({store.account_id("A")}))
        assert not columns.touched_by(frozenset({999}))
        assert not columns.touched_by(frozenset())


class TestIncrementalAppend:
    def equivalent_batch(self, transfers):
        return ColumnarTransferStore.from_transfers({NFT: transfers})

    def assert_same_columns(self, store, reference):
        mine, theirs = store.tokens[NFT], reference.tokens[NFT]
        assert list(mine.transfers) == list(theirs.transfers)
        assert mine.payment_flags == theirs.payment_flags
        assert [store.address_of(i) for i in mine.senders] == [
            reference.address_of(i) for i in theirs.senders
        ]
        assert [store.address_of(i) for i in mine.recipients] == [
            reference.address_of(i) for i in theirs.recipients
        ]
        assert store.addresses_of(mine.account_ids) == reference.addresses_of(
            theirs.account_ids
        )

    def test_in_order_append_extends_in_place(self):
        first = [make_transfer("A", "B", 1, price=5)]
        second = [make_transfer("B", "C", 2), make_transfer("C", "A", 3, price=1)]
        store = ColumnarTransferStore()
        store.add_token(NFT, first)
        columns = store.tokens[NFT]
        appended = store.append_token_transfers(NFT, second)
        assert appended is columns  # fast path: no rebuild
        self.assert_same_columns(store, self.equivalent_batch(first + second))

    def test_out_of_order_append_is_rejected(self):
        """Rows sorting before the tail are an input error: the columns
        and the running count stay as they were."""
        late = [make_transfer("A", "B", 5), make_transfer("B", "C", 6)]
        store = ColumnarTransferStore()
        columns = store.add_token(NFT, late)
        with pytest.raises(ValueError, match="out of order"):
            store.append_token_transfers(
                NFT, [make_transfer("C", "D", 7), make_transfer("B", "A", 1, price=2)]
            )
        assert store.tokens[NFT] is columns
        self.assert_same_columns(store, self.equivalent_batch(late))
        assert store.transfer_count == 2
        assert store.account_count == 3

    def test_add_token_refuses_a_stored_token(self):
        store = ColumnarTransferStore()
        columns = store.add_token(NFT, [make_transfer("A", "B", 1)])
        with pytest.raises(ValueError, match="already stored"):
            store.add_token(NFT, [make_transfer("B", "A", 2)])
        assert store.tokens[NFT] is columns
        assert store.transfer_count == 1

    def test_append_to_unknown_token_creates_it(self):
        store = ColumnarTransferStore()
        store.append_token_transfers(NFT, [make_transfer("A", "B", 1)])
        assert store.token_count == 1
        assert store.tokens[NFT].row_count == 1

    def test_empty_append_is_a_noop(self):
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 1)])
        columns = store.append_token_transfers(NFT, [])
        assert columns.row_count == 1

    def test_empty_append_never_creates_a_phantom_token(self):
        store = ColumnarTransferStore()
        assert store.append_token_transfers(NFT, []) is None
        assert store.token_count == 0
        assert NFT not in store.tokens

    def test_appends_grow_stored_and_new_tokens(self):
        other = NFTKey(contract="0x" + "e" * 40, token_id=1)
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 1)])
        store.append_token_transfers(NFT, [make_transfer("B", "A", 2)])
        store.append_token_transfers(other, [make_transfer("C", "D", 2)])
        assert store.nfts() == [NFT, other]
        assert store.token_count == 2
        assert store.transfer_count == 3


class TestRollback:
    def test_truncate_token_restores_watermark_state(self):
        first = [make_transfer("A", "B", 1, price=5), make_transfer("B", "C", 2)]
        second = [make_transfer("C", "A", 3), make_transfer("A", "D", 4)]
        store = ColumnarTransferStore()
        store.add_token(NFT, first)
        columns = store.tokens[NFT]
        watermark = columns.row_count
        store.append_token_transfers(NFT, second)
        removed = store.truncate_token(NFT, watermark)
        assert removed == len(second)
        assert store.tokens[NFT] is columns  # mutated in place
        reference = ColumnarTransferStore.from_transfers({NFT: first})
        assert list(columns.transfers) == list(reference.tokens[NFT].transfers)
        assert list(columns.senders) == list(reference.tokens[NFT].senders)
        assert list(columns.recipients) == list(reference.tokens[NFT].recipients)
        assert columns.payment_flags == reference.tokens[NFT].payment_flags
        assert store.addresses_of(columns.account_ids) == {"A", "B", "C"}

    def test_truncate_interned_accounts_survive(self):
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 1)])
        store.append_token_transfers(NFT, [make_transfer("C", "D", 2)])
        store.truncate_token(NFT, 1)
        # Ids are append-only: "C"/"D" stay interned, rows just stop
        # referencing them.
        assert store.account_count == 4
        assert store.addresses_of(store.tokens[NFT].account_ids) == {"A", "B"}

    def test_truncate_to_zero_removes_token(self):
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 1)])
        assert store.truncate_token(NFT, 0) == 1
        assert NFT not in store.tokens
        assert store.token_count == 0

    def test_truncate_validates_row_count(self):
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 1)])
        with pytest.raises(ValueError):
            store.truncate_token(NFT, 2)
        with pytest.raises(ValueError):
            store.truncate_token(NFT, -1)
        assert store.truncate_token(NFT, 1) == 0

    def test_remove_token_forgets_everything(self):
        store = ColumnarTransferStore()
        store.add_token(NFT, [make_transfer("A", "B", 5)])
        store.remove_token(NFT)
        assert NFT not in store.tokens
        store.remove_token(NFT)  # idempotent


class TestRunningTransferCount:
    """``transfer_count`` is a running total; it must equal the row sum
    after every mutator, including the in-place paths."""

    OTHER = NFTKey(contract="0x" + "e" * 40, token_id=1)

    @staticmethod
    def assert_consistent(store):
        assert store.transfer_count == sum(columns.row_count for columns in store)

    def test_count_tracks_every_mutator(self):
        store = ColumnarTransferStore()
        check = self.assert_consistent
        store.add_token(NFT, [make_transfer("A", "B", 1), make_transfer("B", "A", 2)])
        check(store)
        store.add_token(self.OTHER, [make_transfer("C", "D", 1)])
        check(store)
        assert store.transfer_count == 3
        # In-order append.
        store.append_token_transfers(NFT, [make_transfer("B", "C", 5)])
        check(store)
        assert store.transfer_count == 4
        store.append_token_transfers(self.OTHER, [make_transfer("D", "C", 2)])
        store.append_token_transfers(NFT, [])
        check(store)
        # Rollback: truncate both tokens by watermark.
        assert store.truncate_token(NFT, 1) == 2
        check(store)
        assert store.truncate_token(self.OTHER, 1) == 1
        check(store)
        assert store.transfer_count == 2
        # Whole-token removal through every path.
        store.truncate_token(self.OTHER, 0)
        check(store)
        store.remove_token(NFT)
        store.remove_token(NFT)
        check(store)
        assert store.transfer_count == 0


class TestTokenComponents:
    def build(self, transfers):
        store = ColumnarTransferStore.from_transfers({NFT: transfers})
        return store, store.tokens[NFT]

    def test_round_trip_component(self):
        store, columns = self.build(
            [make_transfer("A", "B", 1, price=1), make_transfer("B", "A", 2, price=1)]
        )
        components = token_components(columns, frozenset())
        assert len(components) == 1
        assert store.addresses_of(components[0].member_ids) == {"A", "B"}
        assert components[0].rows == (0, 1)

    def test_chain_yields_nothing(self):
        _, columns = self.build([make_transfer("A", "B", 1), make_transfer("B", "C", 2)])
        assert token_components(columns, frozenset()) == []

    def test_self_loop_singleton_kept(self):
        store, columns = self.build([make_transfer("A", "A", 1)])
        components = token_components(columns, frozenset())
        assert len(components) == 1
        assert store.addresses_of(components[0].member_ids) == {"A"}

    def test_exclusion_mask_breaks_cycle(self):
        store, columns = self.build(
            [
                make_transfer("A", "X", 1),
                make_transfer("X", "A", 2),
            ]
        )
        assert len(token_components(columns, frozenset())) == 1
        masked = token_components(columns, frozenset({store.account_id("X")}))
        assert masked == []

    def test_mask_only_affects_touching_rows(self):
        store, columns = self.build(
            [
                make_transfer("A", "B", 1),
                make_transfer("B", "A", 2),
                make_transfer("A", "X", 3),
            ]
        )
        masked = token_components(columns, frozenset({store.account_id("X")}))
        assert len(masked) == 1
        assert store.addresses_of(masked[0].member_ids) == {"A", "B"}


class TestSharding:
    def test_account_set_predicate_pickles(self):
        predicate = AccountSetPredicate({"A", "B"})
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone("A") and not clone("Z")


class TestDatasetIntegration:
    def test_columnar_store_cached_on_dataset(self, tiny_world):
        from repro.ingest.dataset import build_dataset

        dataset = build_dataset(tiny_world.node, tiny_world.marketplace_addresses)
        store = dataset.columnar_store()
        assert store is dataset.columnar_store()
        assert store.transfer_count == dataset.transfer_count
        assert store.token_count == dataset.nft_count
