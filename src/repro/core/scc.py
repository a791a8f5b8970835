"""Strongly connected components.

The paper uses "Tarjan's algorithm with Nuutila's modifications
implemented by the Python library NetworkX" and then keeps the SCCs with
at least two nodes **plus** single nodes that carry a self-loop (a
self-trade is a one-node wash trade).  This module provides both an
independent iterative Tarjan implementation and a NetworkX-backed one;
tests cross-check them against each other.  Only the legacy oracle
pipeline takes the NetworkX path, as the paper does; networkx is
imported on that path alone, so the columnar engine's adjacency Tarjan
never loads it.

The iterative Tarjan is split in two layers: a flat, integer-indexed
adjacency-list core (:func:`tarjan_scc_adjacency`) used directly by the
columnar detection engine, and a thin graph-object wrapper
(:func:`tarjan_scc`) that preserves the original NetworkX-facing API.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Set


def tarjan_scc_adjacency(
    node_count: int, adjacency: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Iterative Tarjan SCC over an integer adjacency list.

    Nodes are the integers ``0 .. node_count - 1``; ``adjacency[u]`` lists
    the successors of ``u``.  Duplicate successors are tolerated (they
    only re-check an already-visited node) but cost time on every walk,
    so builders are expected to dedupe edges once at construction --
    ``token_components`` keeps the first occurrence, which leaves
    discovery and emission order unchanged.  Returns every
    strongly connected component, including trivial single-node ones, in
    reverse topological order of the condensation (the classic Tarjan
    emission order).
    """
    index = [-1] * node_count
    lowlink = [0] * node_count
    on_stack = [False] * node_count
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(node_count):
        if index[root] != -1:
            continue
        # Each frame is (node, position of the next successor to visit).
        work: List[List[int]] = [[root, 0]]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True

        while work:
            frame = work[-1]
            node = frame[0]
            successors = adjacency[node]
            advanced = False
            position = frame[1]
            while position < len(successors):
                successor = successors[position]
                position += 1
                if index[successor] == -1:
                    frame[1] = position
                    index[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append([successor, 0])
                    advanced = True
                    break
                if on_stack[successor] and index[successor] < lowlink[node]:
                    lowlink[node] = index[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def kept_components_adjacency(
    node_count: int,
    adjacency: Sequence[Sequence[int]],
    has_self_loop: Sequence[bool],
) -> List[List[int]]:
    """SCCs under the paper's definition, over a flat adjacency list.

    Keeps components with at least two nodes, plus single-node components
    whose node has a self-loop (``has_self_loop[u]`` flags those).
    """
    kept: List[List[int]] = []
    for component in tarjan_scc_adjacency(node_count, adjacency):
        if len(component) >= 2 or has_self_loop[component[0]]:
            kept.append(component)
    return kept


def tarjan_scc(graph: nx.DiGraph | nx.MultiDiGraph) -> List[Set[Hashable]]:
    """Iterative Tarjan SCC over a (multi)digraph.

    Returns every strongly connected component, including trivial
    single-node ones, in reverse topological order of the condensation
    (the classic Tarjan emission order).
    """
    nodes = list(graph.nodes)
    ids = {node: position for position, node in enumerate(nodes)}
    adjacency = [
        [ids[successor] for successor in graph.successors(node)] for node in nodes
    ]
    return [
        {nodes[member] for member in component}
        for component in tarjan_scc_adjacency(len(nodes), adjacency)
    ]


def strongly_connected_components(
    graph: nx.DiGraph | nx.MultiDiGraph, use_networkx: bool = True
) -> List[Set[Hashable]]:
    """SCCs under the paper's definition.

    Keeps components with at least two nodes, plus single-node components
    whose node has a self-loop.
    """
    if use_networkx:
        import networkx as nx

        raw = [set(component) for component in nx.strongly_connected_components(graph)]
    else:
        raw = tarjan_scc(graph)

    kept: List[Set[Hashable]] = []
    for component in raw:
        if len(component) >= 2:
            kept.append(component)
            continue
        (only,) = component
        if graph.has_edge(only, only):
            kept.append(component)
    return kept
