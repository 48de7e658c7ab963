"""Measured counterparts of Lemmas 3.1, 3.3, 4.3 and 4.4.

These are *measurement* functions: they perform the exact process each
lemma analyzes (greedy-process a prefix, orient a prefix's edges, count a
prefix's internal structure) and return the observed value.  The test and
bench suites compare the observations to the bounds in
:mod:`repro.theory.bounds`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike
from repro.util.validation import check_positive_int

__all__ = [
    "max_degree_after_prefix",
    "longest_path_in_prefix",
    "internal_edge_count",
    "vertices_with_internal_edges",
]


def _prefix_vertices(graph: CSRGraph, ranks: np.ndarray, prefix_size: int) -> np.ndarray:
    perm = permutation_from_ranks(ranks)
    return perm[:prefix_size]


def max_degree_after_prefix(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    prefix_size: int = 1,
    *,
    seed: SeedLike = None,
) -> int:
    """Lemma 3.1's quantity: max *residual* degree after a prefix resolves.

    Greedily processes the first *prefix_size* vertices of the order
    (Algorithm 1 restricted to the prefix), removes the resulting set
    members and their neighbors, and returns the maximum degree of the
    induced subgraph on the surviving vertices.

    Lemma 3.1: for an ``(l/d)``-prefix this is at most ``d`` w.p.
    ``>= 1 - n/e^l``.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    prefix_size = check_positive_int(prefix_size, "prefix_size")
    prefix_size = min(prefix_size, n)

    status = new_vertex_status(n)
    offsets, neighbors = graph.offsets, graph.neighbors
    for v in _prefix_vertices(graph, ranks, prefix_size).tolist():
        if status[v] != UNDECIDED:
            continue
        status[v] = IN_SET
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        status[nbrs] = KNOCKED_OUT
    alive = status == UNDECIDED
    if not alive.any():
        return 0
    src, dst = graph.arcs()
    both = alive[src] & alive[dst]
    if not both.any():
        return 0
    residual = np.bincount(src[both], minlength=n)
    return int(residual.max())


def longest_path_in_prefix(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    prefix_size: int = 1,
    *,
    seed: SeedLike = None,
) -> int:
    """Lemma 3.3's quantity: longest directed path in the prefix's DAG.

    Counts vertices on the longest priority-decreasing path within the
    subgraph induced by the first *prefix_size* vertices of the order.
    Lemma 3.3/Corollary 3.4: for an ``O(log(n)/d)``-prefix of a
    degree-``<= d`` graph this is ``O(log n)`` w.h.p.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    prefix_size = check_positive_int(prefix_size, "prefix_size")
    prefix_size = min(prefix_size, n)
    prefix = _prefix_vertices(graph, ranks, prefix_size)
    in_prefix = np.zeros(n, dtype=bool)
    in_prefix[prefix] = True
    offsets, neighbors = graph.offsets, graph.neighbors
    lp = np.zeros(n, dtype=np.int64)
    longest = 0
    # Process in priority order so parents are finalized before children.
    for v in prefix.tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        best = 0
        if nbrs.size:
            mask = in_prefix[nbrs] & (ranks[nbrs] < ranks[v])
            if mask.any():
                best = int(lp[nbrs[mask]].max())
        lp[v] = best + 1
        if lp[v] > longest:
            longest = int(lp[v])
    return longest


def internal_edge_count(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    prefix_size: int = 1,
    *,
    seed: SeedLike = None,
) -> int:
    """Lemma 4.3's quantity: number of edges with both endpoints in the prefix.

    Lemma 4.3: for a ``δ < k/d`` prefix ``P`` of a degree-``<= d`` graph,
    the expectation is ``O(k |P|)`` — sublinear in ``|P|`` for ``k << 1``.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    prefix_size = check_positive_int(prefix_size, "prefix_size")
    prefix_size = min(prefix_size, n)
    prefix = _prefix_vertices(graph, ranks, prefix_size)
    in_prefix = np.zeros(n, dtype=bool)
    in_prefix[prefix] = True
    src, dst = graph.arcs()
    internal_arcs = int(np.count_nonzero(in_prefix[src] & in_prefix[dst]))
    return internal_arcs // 2


def vertices_with_internal_edges(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    prefix_size: int = 1,
    *,
    seed: SeedLike = None,
) -> int:
    """Lemma 4.4's quantity: prefix vertices with >= 1 internal edge.

    Bounded by twice :func:`internal_edge_count` (each edge touches two
    vertices) — the bound the lemma's one-line proof uses.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    prefix_size = check_positive_int(prefix_size, "prefix_size")
    prefix_size = min(prefix_size, n)
    prefix = _prefix_vertices(graph, ranks, prefix_size)
    in_prefix = np.zeros(n, dtype=bool)
    in_prefix[prefix] = True
    src, dst = graph.arcs()
    both = in_prefix[src] & in_prefix[dst]
    return int(sorted_unique(src[both]).size)
