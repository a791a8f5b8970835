"""Block hashes, parent links and the chain reorg primitive."""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block
from repro.chain.chain import Chain, GENESIS_PARENT_HASH
from repro.chain.errors import InvalidReorgError
from repro.chain.node import EthereumNode
from repro.simulation.reorg import apply_random_reorg, build_replacement_blocks

ALICE = "0x" + "a" * 40
BOB = "0x" + "b" * 40


def make_chain(blocks: int = 6, txs_per_block: int = 2) -> Chain:
    chain = Chain()
    chain.faucet(ALICE, 10**24)
    timestamp = chain.genesis_timestamp
    for _ in range(blocks):
        timestamp += 12
        for _ in range(txs_per_block):
            chain.transact(sender=ALICE, to=BOB, value_wei=10**15, timestamp=timestamp)
    return chain


def reinstall(chain: Chain, orphaned: list) -> None:
    """Put a previously orphaned branch back on top of the chain."""
    current_head = chain.blocks[-1]
    chain.reorg(1, [current_head] + orphaned)


class TestBlockHashes:
    def test_hashes_chain_through_parents(self):
        chain = make_chain()
        assert chain.parent_hash(0) == GENESIS_PARENT_HASH
        for number in range(1, len(chain.blocks)):
            assert chain.parent_hash(number) == chain.block_hash(number - 1)

    def test_hashes_are_stable_and_distinct(self):
        chain = make_chain()
        hashes = [chain.block_hash(number) for number in range(len(chain.blocks))]
        assert len(set(hashes)) == len(hashes)
        assert [chain.block_hash(number) for number in range(len(chain.blocks))] == hashes

    def test_node_exposes_block_hash(self):
        chain = make_chain()
        node = EthereumNode(chain)
        assert node.get_block_hash(3) == chain.block_hash(3)
        assert node.get_parent_hash(3) == chain.block_hash(2)
        with pytest.raises(IndexError):
            node.get_block_hash(len(chain.blocks))

    def test_range_hashes_match_single_hashes(self):
        chain = make_chain()
        node = EthereumNode(chain)
        head = chain.head_block_number
        expected = [chain.block_hash(number) for number in range(head + 1)]
        fresh = EthereumNode(make_chain())  # nothing cached yet
        assert fresh.get_block_hashes(0, head) == expected
        assert node.get_block_hashes(2, head - 1) == expected[2:head]
        assert node.get_block_hashes(head, head) == [expected[head]]
        assert node.get_block_hashes(3, 2) == []
        with pytest.raises(IndexError):
            node.get_block_hashes(0, head + 1)
        with pytest.raises(IndexError):
            node.get_block_hashes(-1, head)

    def test_head_hash_tracks_growing_head_block(self):
        chain = make_chain(blocks=2)
        head = chain.head_block_number
        before = chain.block_hash(head)
        # Same timestamp -> the transaction lands in the same head block.
        chain.transact(
            sender=ALICE, to=BOB, value_wei=1, timestamp=chain.head_timestamp
        )
        assert chain.block_hash(head) != before

    def test_tail_hash_commits_to_whole_prefix(self):
        """Changing a deep block changes every later hash via parent links."""
        chain = make_chain()
        head = chain.head_block_number
        upper_hashes = [chain.block_hash(number) for number in (head - 1, head)]
        orphaned = chain.blocks[-3:]
        replacement = [
            Block(
                number=block.number,
                timestamp=block.timestamp,
                transactions=list(block.transactions),
            )
            for block in orphaned
        ]
        del replacement[0].transactions[-1]  # only the deepest block differs
        chain.reorg(3, replacement)
        # The two upper replacement blocks carry identical content...
        assert chain.blocks[head].transaction_hashes == orphaned[-1].transaction_hashes
        # ...but their hashes still differ, because the parent changed.
        assert chain.block_hash(head - 1) != upper_hashes[0]
        assert chain.block_hash(head) != upper_hashes[1]


class TestReorg:
    def test_orphaned_transactions_are_unindexed(self):
        chain = make_chain()
        node = EthereumNode(chain)
        orphaned_hashes = {
            tx.hash for block in chain.blocks[-2:] for tx in block.transactions
        }
        head = chain.head_block_number
        before = len(node.get_transactions_of(ALICE))
        orphaned = chain.reorg(2)
        assert [block.number for block in orphaned] == [head - 1, head]
        for tx_hash in orphaned_hashes:
            assert node.get_transaction(tx_hash) is None
        assert len(node.get_transactions_of(ALICE)) == before - len(orphaned_hashes)

    def test_reinstalled_branch_is_reindexed_and_hashes_restore(self):
        chain = make_chain()
        node = EthereumNode(chain)
        head = chain.head_block_number
        tail_hash = chain.block_hash(head)
        tx_count_before = len(node.get_transactions_of(ALICE))
        orphaned = chain.reorg(3)
        assert chain.head_block_number == head - 3
        reinstall(chain, orphaned)
        assert chain.head_block_number == head
        assert chain.block_hash(head) == tail_hash
        assert len(node.get_transactions_of(ALICE)) == tx_count_before
        for block in orphaned:
            for tx in block.transactions:
                assert node.get_transaction(tx.hash) is tx

    def test_shorter_branch_regresses_head(self):
        chain = make_chain(blocks=6)
        head = chain.head_block_number
        chain.reorg(3)  # no replacement: pure truncation
        assert chain.head_block_number == head - 3
        assert len(chain.blocks) == head - 2

    def test_truncation_uncaches_the_new_head_hash(self):
        """A shortening reorg reopens the fork block: its sealed hash must
        not survive in the cache, or post-reorg growth goes unnoticed."""
        chain = make_chain(blocks=4)
        head = chain.head_block_number
        for number in range(len(chain.blocks)):  # populate the hash cache
            chain.block_hash(number)
        chain.reorg(1)  # block head-1 becomes the open head again
        before_growth = chain.block_hash(head - 1)
        chain.transact(
            sender=ALICE, to=BOB, value_wei=1, timestamp=chain.head_timestamp
        )
        # Mine a sealing block on top, then re-read the grown block's hash.
        chain.transact(
            sender=ALICE, to=BOB, value_wei=1, timestamp=chain.head_timestamp + 12
        )
        assert chain.block_hash(head - 1) != before_growth

    def test_invalid_reorgs_are_rejected(self):
        chain = make_chain()
        with pytest.raises(InvalidReorgError):
            chain.reorg(0)
        with pytest.raises(InvalidReorgError):
            chain.reorg(len(chain.blocks) + 1)
        tail = chain.blocks[-1]
        with pytest.raises(InvalidReorgError):
            chain.reorg(1, [Block(number=tail.number + 5, timestamp=tail.timestamp)])
        with pytest.raises(InvalidReorgError):
            chain.reorg(1, [Block(number=tail.number, timestamp=0)])
        mis_stamped = Block(
            number=tail.number,
            timestamp=tail.timestamp,
            transactions=list(chain.blocks[0].transactions),
        )
        with pytest.raises(InvalidReorgError):
            chain.reorg(1, [mis_stamped])


class TestAdversarialGenerator:
    def test_replacement_respects_slots(self):
        chain = make_chain(blocks=8, txs_per_block=3)
        orphaned_view = chain.blocks[-4:]
        rng = random.Random(7)
        blocks, dropped, _delayed = build_replacement_blocks(
            orphaned_view, rng, drop_probability=0.3, delay_probability=0.3
        )
        assert [b.number for b in blocks] == [b.number for b in orphaned_view]
        total = sum(len(b) for b in blocks)
        assert total == sum(len(b) for b in orphaned_view) - dropped
        for block in blocks:
            for tx in block.transactions:
                assert tx.block_number == block.number
                assert tx.timestamp == block.timestamp

    def test_apply_random_reorg_summary(self):
        chain = make_chain(blocks=8, txs_per_block=3)
        head = chain.head_block_number
        summary = apply_random_reorg(
            chain, 4, random.Random(3), drop_probability=0.5, shorten=1
        )
        assert summary.depth == 4
        assert summary.fork_block == head - 4
        assert summary.new_head == chain.head_block_number == head - 1
        assert summary.replacement_block_count == 3
        assert summary.orphaned_tx_count == 12

    def test_drop_everything_leaves_empty_slots(self):
        chain = make_chain(blocks=5)
        head = chain.head_block_number
        summary = apply_random_reorg(chain, 2, random.Random(0), drop_probability=1.0)
        assert summary.dropped_tx_count == summary.orphaned_tx_count
        assert chain.head_block_number == head
        assert all(len(block) == 0 for block in chain.blocks[-2:])
