"""Batched CSR construction and per-token SCC extraction.

One call packs *every* token of a batch into a single flat CSR graph
and runs one Tarjan pass over it, instead of building a Python
adjacency dict per token.  Exact parity with the per-token path is the
design constraint; the packing is arranged so it holds structurally:

* Node keys are ``token_index * account_count + account_id`` -- tokens
  can never share a node, so the batch graph is the disjoint union of
  the per-token graphs.
* Node ids are assigned by *first appearance* in the interleaved
  ``(sender, recipient)`` row stream, the same order the per-token
  builder interns local ids in.  Rows are token-major, so node ids are
  token-major too, and Tarjan (which scans roots in id order) emits all
  of token ``i``'s components before any of token ``i + 1``'s: the
  global emission sequence is exactly the concatenation of the
  per-token emission sequences.
* Duplicate edges are deduplicated keeping the first occurrence, and
  successors are ordered by that first occurrence -- a duplicate
  successor only re-checks an already-visited node, so discovery and
  emission order are unchanged (the same argument the deduplicating
  ``token_components`` builder relies on).

``tests/engine/test_kernels.py`` pins ``batch_token_components`` against
``token_components`` and both Tarjan backends against each other and
networkx on randomized multigraphs.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence

import numpy

from repro.engine.kernels.tarjan import tarjan_csr
from repro.engine.refine import TokenComponent
from repro.engine.store import TokenColumns

_EMPTY_COMPONENTS: tuple = ()


def _mask_array(excluded: FrozenSet[int]) -> numpy.ndarray:
    mask = numpy.fromiter(excluded, dtype=numpy.int64, count=len(excluded))
    mask.sort()
    return mask


def batch_token_components(
    tokens: Sequence[TokenColumns],
    excluded: FrozenSet[int],
    account_count: int,
) -> List[List[TokenComponent]]:
    """Kept SCCs of every token, under one exclusion mask, in one pass.

    Element ``i`` equals ``token_components(tokens[i], excluded)`` --
    same components, same order, same member ids and row indices.
    ``account_count`` is the store's interned-account count (every id in
    the columns is below it); it spaces the per-token node key ranges.
    """
    results: List[List[TokenComponent]] = [[] for _ in tokens]
    if not tokens:
        return results

    lengths = numpy.array([token.row_count for token in tokens], dtype=numpy.int64)
    total_rows = int(lengths.sum())
    if total_rows == 0:
        return results
    # Fuse the id columns with one frombuffer over joined column bytes
    # rather than a numpy view per token: ``bytes(array)`` is a plain C
    # memcpy, the join is one allocation, and -- unlike
    # ``TokenColumns.as_arrays`` views -- nothing pins the token buffers.
    senders = numpy.frombuffer(
        b"".join(bytes(token.senders) for token in tokens), dtype=numpy.int64
    )
    recipients = numpy.frombuffer(
        b"".join(bytes(token.recipients) for token in tokens), dtype=numpy.int64
    )
    row_token = numpy.repeat(
        numpy.arange(len(tokens), dtype=numpy.int64), lengths
    )
    row_starts = numpy.zeros(len(tokens), dtype=numpy.int64)
    numpy.cumsum(lengths[:-1], out=row_starts[1:])
    row_local = numpy.arange(total_rows, dtype=numpy.int64) - numpy.repeat(
        row_starts, lengths
    )

    if excluded:
        mask = _mask_array(excluded)
        keep = ~numpy.isin(senders, mask) & ~numpy.isin(recipients, mask)
        if not keep.all():
            senders = senders[keep]
            recipients = recipients[keep]
            row_token = row_token[keep]
            row_local = row_local[keep]
        if len(senders) == 0:
            return results

    spacing = max(int(account_count), 1)
    sender_keys = row_token * spacing + senders
    recipient_keys = row_token * spacing + recipients

    # First-appearance node numbering over the interleaved row stream.
    interleaved = numpy.empty(2 * len(sender_keys), dtype=numpy.int64)
    interleaved[0::2] = sender_keys
    interleaved[1::2] = recipient_keys
    unique_keys, first_index, inverse = numpy.unique(
        interleaved, return_index=True, return_inverse=True
    )
    appearance = numpy.argsort(first_index, kind="stable")
    rank = numpy.empty(len(unique_keys), dtype=numpy.int64)
    rank[appearance] = numpy.arange(len(unique_keys), dtype=numpy.int64)
    node_ids = rank[inverse]
    node_key = unique_keys[appearance]
    node_count = len(unique_keys)

    edge_u = node_ids[0::2]
    edge_v = node_ids[1::2]
    self_loop_nodes = edge_u[edge_u == edge_v]

    # Dedupe edges keeping the first occurrence; successor order within
    # each source node is first-occurrence order, matching the legacy
    # adjacency builder.
    edge_keys = edge_u * node_count + edge_v
    unique_edges, edge_first = numpy.unique(edge_keys, return_index=True)
    source = unique_edges // node_count
    edge_order = numpy.lexsort((edge_first, source))
    indices = (unique_edges % node_count)[edge_order]
    indptr = numpy.zeros(node_count + 1, dtype=numpy.int64)
    indptr[1:] = numpy.cumsum(numpy.bincount(source, minlength=node_count))

    comp_of, comp_count = tarjan_csr(indptr, indices)

    comp_sizes = numpy.bincount(comp_of, minlength=comp_count)
    comp_has_loop = numpy.zeros(comp_count, dtype=bool)
    comp_has_loop[comp_of[self_loop_nodes]] = True
    kept = (comp_sizes >= 2) | comp_has_loop

    # Surviving rows whose both endpoints share a kept component, grouped
    # by component id; stable sorts preserve row order inside each group.
    row_comp = comp_of[edge_u]
    in_component = (row_comp == comp_of[edge_v]) & kept[row_comp]
    grouped_rows = row_comp[in_component]
    grouped_local = row_local[in_component]
    row_order = numpy.argsort(grouped_rows, kind="stable")
    grouped_local = grouped_local[row_order]
    row_counts = numpy.bincount(grouped_rows, minlength=comp_count)
    row_offsets = numpy.zeros(comp_count + 1, dtype=numpy.int64)
    numpy.cumsum(row_counts, out=row_offsets[1:])

    # Nodes grouped by component, for member-id extraction.
    node_order = numpy.argsort(comp_of, kind="stable")
    node_offsets = numpy.zeros(comp_count + 1, dtype=numpy.int64)
    numpy.cumsum(comp_sizes, out=node_offsets[1:])
    member_accounts = node_key % spacing
    comp_token = node_key // spacing

    for comp in numpy.nonzero(kept)[0].tolist():
        rows = grouped_local[row_offsets[comp] : row_offsets[comp + 1]]
        if len(rows) == 0:
            continue
        members = node_order[node_offsets[comp] : node_offsets[comp + 1]]
        token_index = int(comp_token[members[0]])
        results[token_index].append(
            TokenComponent(
                member_ids=frozenset(member_accounts[members].tolist()),
                rows=tuple(rows.tolist()),
            )
        )
    return results
