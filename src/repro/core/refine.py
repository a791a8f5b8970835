"""Candidate search and refinement (Sec. IV-A / IV-B).

The funnel has four stages:

1. **Candidates** -- every NFT whose transaction graph contains an SCC of
   at least two nodes or a single node with a self-loop.
2. **Service-account removal** -- drop Exchange / CeFi / game accounts
   (per the label registry) and the null address from the graphs, then
   recompute SCCs.
3. **Contract-account removal** -- drop every account that holds
   bytecode, then recompute SCCs.
4. **Zero-volume removal** -- drop components in which no intra-component
   transfer moved any ETH or ERC-20 value.

The funnel records, at each stage, how many NFTs still have a component
and how many accounts are involved -- the numbers the paper reports in
the running text (905,562 -> 318,500 -> 305,314 -> 13,156 NFTs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.chain.types import NFTKey
from repro.core.activity import CandidateComponent
from repro.core.graph import NFTTransactionGraph, build_all_graphs
from repro.core.scc import strongly_connected_components
from repro.ingest.dataset import NFTDataset
from repro.services.labels import LabelRegistry


@dataclass(frozen=True)
class FunnelStage:
    """Statistics of one refinement stage."""

    name: str
    nft_count: int
    component_count: int
    account_count: int


@dataclass
class RefinementResult:
    """Final candidates plus the per-stage funnel statistics."""

    candidates: List[CandidateComponent]
    stages: List[FunnelStage] = field(default_factory=list)

    def stage(self, name: str) -> FunnelStage:
        """Look up one stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no funnel stage named {name!r}")


class RefinementFunnel:
    """Runs the candidate search and the three refinement steps."""

    STAGE_CANDIDATES = "candidates"
    STAGE_SERVICES_REMOVED = "services-removed"
    STAGE_CONTRACTS_REMOVED = "contracts-removed"
    STAGE_NONZERO_VOLUME = "nonzero-volume"

    def __init__(
        self,
        labels: LabelRegistry,
        is_contract: Callable[[str], bool],
        skip_service_removal: bool = False,
        skip_contract_removal: bool = False,
        skip_zero_volume_removal: bool = False,
    ) -> None:
        self.labels = labels
        self.is_contract = is_contract
        self.skip_service_removal = skip_service_removal
        self.skip_contract_removal = skip_contract_removal
        self.skip_zero_volume_removal = skip_zero_volume_removal

    # -- public API -----------------------------------------------------------
    def run(self, dataset: NFTDataset) -> RefinementResult:
        """Run candidate search plus refinement over a full dataset."""
        graphs = build_all_graphs(dataset.transfers_by_nft)
        stages: List[FunnelStage] = []

        components = self._components_of(graphs)
        stages.append(self._stage_stats(self.STAGE_CANDIDATES, components))

        if not self.skip_service_removal:
            graphs = {
                nft: graph.without_nodes(
                    node for node in graph.nodes if self.labels.is_graph_excluded_service(node)
                )
                for nft, graph in graphs.items()
            }
            components = self._components_of(graphs)
        stages.append(self._stage_stats(self.STAGE_SERVICES_REMOVED, components))

        if not self.skip_contract_removal:
            graphs = {
                nft: graph.without_nodes(
                    node for node in graph.nodes if self.is_contract(node)
                )
                for nft, graph in graphs.items()
            }
            components = self._components_of(graphs)
        stages.append(self._stage_stats(self.STAGE_CONTRACTS_REMOVED, components))

        if not self.skip_zero_volume_removal:
            components = {
                nft: [component for component in nft_components if not component.is_zero_volume]
                for nft, nft_components in components.items()
            }
            components = {nft: comps for nft, comps in components.items() if comps}
        stages.append(self._stage_stats(self.STAGE_NONZERO_VOLUME, components))

        flattened = [
            component
            for nft_components in components.values()
            for component in nft_components
        ]
        return RefinementResult(candidates=flattened, stages=stages)

    # -- internals ----------------------------------------------------------------
    def _components_of(
        self, graphs: Dict[NFTKey, NFTTransactionGraph]
    ) -> Dict[NFTKey, List[CandidateComponent]]:
        components: Dict[NFTKey, List[CandidateComponent]] = {}
        for nft, graph in graphs.items():
            if graph.edge_count == 0:
                continue
            sccs = strongly_connected_components(graph.graph)
            if not sccs:
                continue
            nft_components = []
            for member_set in sccs:
                members = frozenset(member_set)
                transfers = tuple(graph.edges_between(members))
                if not transfers:
                    continue
                nft_components.append(
                    CandidateComponent(nft=nft, accounts=members, transfers=transfers)
                )
            if nft_components:
                components[nft] = nft_components
        return components

    @staticmethod
    def _stage_stats(
        name: str, components: Dict[NFTKey, List[CandidateComponent]]
    ) -> FunnelStage:
        accounts: Set[str] = set()
        component_count = 0
        for nft_components in components.values():
            for component in nft_components:
                component_count += 1
                accounts.update(component.accounts)
        return FunnelStage(
            name=name,
            nft_count=len(components),
            component_count=component_count,
            account_count=len(accounts),
        )
