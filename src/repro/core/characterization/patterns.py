"""Structural patterns of wash trading activities (Fig. 6 and Fig. 7).

Fig. 6 is the distribution of the number of accounts per activity.
Fig. 7 is a taxonomy of the strongly connected component *shapes*: each
activity's accounts and intra-component transfers are collapsed into a
simple directed graph (parallel transfers collapse into one edge) and
matched against a small library of canonical shapes by directed graph
isomorphism.

The library reproduces the paper's twelve patterns: the self-loop
(pattern 0), the dominant two-account round trip (pattern 1), the
circular patterns with 3-6 participants (patterns 2, 5 and 10, the most
natural for wash traders), and the remaining mixed shapes.  For the rare
patterns whose exact topology cannot be recovered from the paper's
figure, plausible shapes with the stated participant counts are used;
this affects only the long tail of the taxonomy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.activity import CandidateComponent, WashTradingActivity


@dataclass(frozen=True)
class PatternSpec:
    """A canonical SCC shape."""

    pattern_id: int
    description: str
    node_count: int
    edges: Tuple[Tuple[int, int], ...]

    def as_graph(self) -> nx.DiGraph:
        """The canonical shape as a NetworkX digraph."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.node_count))
        graph.add_edges_from(self.edges)
        return graph


def _cycle(n: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((i, (i + 1) % n) for i in range(n))


def _round_trip_chain(n: int) -> Tuple[Tuple[int, int], ...]:
    edges: List[Tuple[int, int]] = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return tuple(edges)


#: The canonical pattern library, ordered as in Fig. 7 (by participant count).
PATTERN_LIBRARY: Tuple[PatternSpec, ...] = (
    PatternSpec(0, "self-trade (single account, self-loop)", 1, ((0, 0),)),
    PatternSpec(1, "two-account round trip", 2, ((0, 1), (1, 0))),
    PatternSpec(2, "three-account cycle", 3, _cycle(3)),
    PatternSpec(3, "chain of two round trips (three accounts)", 3, _round_trip_chain(3)),
    PatternSpec(
        4,
        "three accounts, cycle plus reverse chord",
        3,
        (_cycle(3) + ((1, 0),)),
    ),
    PatternSpec(5, "four-account cycle", 4, _cycle(4)),
    PatternSpec(6, "chain of three round trips (four accounts)", 4, _round_trip_chain(4)),
    PatternSpec(
        7,
        "hub of round trips (four accounts)",
        4,
        ((0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)),
    ),
    PatternSpec(
        8,
        "four-account cycle with a reverse chord",
        4,
        (_cycle(4) + ((2, 1),)),
    ),
    PatternSpec(
        9,
        "four accounts, two cycles sharing an edge",
        4,
        (_cycle(4) + ((2, 0),)),
    ),
    PatternSpec(10, "five-account cycle", 5, _cycle(5)),
    PatternSpec(11, "six-account cycle", 6, _cycle(6)),
)


def component_shape(component: CandidateComponent) -> nx.DiGraph:
    """Collapse a component's transfers into a simple directed shape graph."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(component.accounts)
    for transfer in component.transfers:
        graph.add_edge(transfer.sender, transfer.recipient)
    return graph


def classify_component(component: CandidateComponent) -> Optional[int]:
    """Return the matching pattern id, or None if outside the library."""
    import networkx as nx

    shape = component_shape(component)
    for spec in PATTERN_LIBRARY:
        if shape.number_of_nodes() != spec.node_count:
            continue
        if shape.number_of_edges() != len(spec.edges):
            continue
        matcher = nx.algorithms.isomorphism.DiGraphMatcher(shape, spec.as_graph())
        if matcher.is_isomorphic():
            return spec.pattern_id
    return None


def classify_activities(
    activities: Sequence[WashTradingActivity],
) -> Dict[Optional[int], int]:
    """Occurrences of each pattern id across activities (None = unmatched)."""
    counts: Counter[Optional[int]] = Counter()
    for activity in activities:
        counts[classify_component(activity.component)] += 1
    return dict(counts)


def account_count_distribution(
    activities: Sequence[WashTradingActivity], cap: int = 6
) -> Dict[str, int]:
    """Fig. 6: the distribution of the number of participating accounts.

    Counts above ``cap`` are pooled into a ``"{cap}+"`` bucket, matching
    the figure's x axis.
    """
    counts: Counter[str] = Counter()
    for activity in activities:
        size = activity.component.account_count
        key = f"{cap}+" if size >= cap else str(size)
        counts[key] += 1
    ordered: Dict[str, int] = {}
    for size in range(1, cap):
        ordered[str(size)] = counts.get(str(size), 0)
    ordered[f"{cap}+"] = counts.get(f"{cap}+", 0)
    return ordered


def account_count_fractions(
    activities: Sequence[WashTradingActivity], cap: int = 6
) -> Dict[str, float]:
    """Fig. 6 as fractions of all activities."""
    counts = account_count_distribution(activities, cap=cap)
    total = sum(counts.values())
    if total == 0:
        return {key: 0.0 for key in counts}
    return {key: value / total for key, value in counts.items()}
