"""Per-NFT transaction graphs.

For each NFT *i* the paper builds a directed multigraph ``G_i = (V_i,
E_i)``: one node per account ever involved in a transaction of that NFT,
and one edge ``u -> v`` per transaction in which ``u`` sells (or simply
transfers) the NFT to ``v``, annotated with the tuple ``(t, h, s, p)`` --
timestamp, transaction hash, interacted smart contract and amount paid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.chain.types import NFTKey
from repro.ingest.records import TRANSFER_TIME_ORDER, NFTTransfer


@dataclass
class NFTTransactionGraph:
    """The transaction multigraph of one NFT."""

    nft: NFTKey
    graph: nx.MultiDiGraph
    transfers: List[NFTTransfer] = field(default_factory=list)
    #: Sorted transfer timestamps, built lazily for bisect-based queries.
    _timestamps: Optional[List[int]] = field(default=None, repr=False, compare=False)

    # -- structure ---------------------------------------------------------
    @property
    def nodes(self) -> Set[str]:
        """Accounts that ever held or received this NFT."""
        return set(self.graph.nodes)

    @property
    def edge_count(self) -> int:
        """Number of transfers represented in the graph."""
        return self.graph.number_of_edges()

    def has_self_loop(self, node: str) -> bool:
        """True if the node ever transferred the NFT to itself."""
        return self.graph.has_edge(node, node)

    def edges_between(self, members: Iterable[str]) -> List[NFTTransfer]:
        """Transfers whose both endpoints are inside ``members``."""
        member_set = set(members)
        return [
            transfer
            for transfer in self.transfers
            if transfer.sender in member_set and transfer.recipient in member_set
        ]

    def without_nodes(self, excluded: Iterable[str]) -> "NFTTransactionGraph":
        """A copy of the graph with the given accounts (and their edges) removed."""
        excluded_set = set(excluded)
        if not excluded_set or excluded_set.isdisjoint(self.graph.nodes):
            return self
        kept_transfers = [
            transfer
            for transfer in self.transfers
            if transfer.sender not in excluded_set
            and transfer.recipient not in excluded_set
        ]
        return build_transaction_graph(self.nft, kept_transfers)

    # -- chronology -----------------------------------------------------------
    def first_transfer(self) -> Optional[NFTTransfer]:
        """The earliest transfer of the NFT, if any."""
        return self.transfers[0] if self.transfers else None

    def last_transfer(self) -> Optional[NFTTransfer]:
        """The latest transfer of the NFT, if any."""
        return self.transfers[-1] if self.transfers else None

    def _sorted_timestamps(self) -> List[int]:
        """Transfer timestamps, cached; valid because transfers are sorted."""
        if self._timestamps is None:
            self._timestamps = [transfer.timestamp for transfer in self.transfers]
        return self._timestamps

    def transfers_before(self, timestamp: int) -> List[NFTTransfer]:
        """Transfers strictly earlier than a timestamp."""
        return self.transfers[: bisect_left(self._sorted_timestamps(), timestamp)]

    def transfers_after(self, timestamp: int) -> List[NFTTransfer]:
        """Transfers strictly later than a timestamp."""
        return self.transfers[bisect_right(self._sorted_timestamps(), timestamp) :]

    # -- volume -------------------------------------------------------------------
    @property
    def total_volume_wei(self) -> int:
        """Sum of the payments attached to every transfer of the NFT."""
        return sum(transfer.price_wei for transfer in self.transfers)

    def __iter__(self) -> Iterator[NFTTransfer]:
        return iter(self.transfers)

    def __len__(self) -> int:
        return len(self.transfers)


def build_transaction_graph(
    nft: NFTKey, transfers: Sequence[NFTTransfer]
) -> NFTTransactionGraph:
    """Build the transaction multigraph of one NFT from its transfers.

    Edges carry the paper's ``(t, h, s, p)`` annotation as attributes
    plus a reference to the full transfer record.
    """
    import networkx as nx

    graph = nx.MultiDiGraph()
    ordered = sorted(transfers, key=TRANSFER_TIME_ORDER)
    for transfer in ordered:
        graph.add_node(transfer.sender)
        graph.add_node(transfer.recipient)
        graph.add_edge(
            transfer.sender,
            transfer.recipient,
            t=transfer.timestamp,
            h=transfer.tx_hash,
            s=transfer.interacted_contract,
            p=transfer.price_wei,
            transfer=transfer,
        )
    return NFTTransactionGraph(nft=nft, graph=graph, transfers=ordered)


def build_all_graphs(
    transfers_by_nft: Dict[NFTKey, List[NFTTransfer]]
) -> Dict[NFTKey, NFTTransactionGraph]:
    """Build the transaction graph of every NFT in a dataset."""
    return {
        nft: build_transaction_graph(nft, transfers)
        for nft, transfers in transfers_by_nft.items()
    }
