"""Structural graph predicates and statistics.

Validation-grade checks (symmetry, simplicity) live here rather than in the
``CSRGraph`` constructor so graph construction stays ``O(n + m)``; tests and
the I/O layer call these explicitly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, expand_offsets
from repro.util.arrays import sorted_unique

__all__ = [
    "is_symmetric",
    "has_self_loops",
    "has_parallel_edges",
    "is_simple_undirected",
    "degree_histogram",
    "connected_components",
    "num_connected_components",
]


def is_symmetric(graph: CSRGraph) -> bool:
    """True iff every arc ``(u, v)`` has its reverse ``(v, u)`` present.

    Checked by sorting the encoded arc sets; ``O(m log m)``.
    """
    src, dst = graph.arcs()
    n = max(graph.num_vertices, 1)
    fwd = np.sort(src * np.int64(n) + dst)
    rev = np.sort(dst * np.int64(n) + src)
    return bool(np.array_equal(fwd, rev))


def has_self_loops(graph: CSRGraph) -> bool:
    """True iff some vertex lists itself as a neighbor."""
    src, dst = graph.arcs()
    return bool(np.any(src == dst))


def has_parallel_edges(graph: CSRGraph) -> bool:
    """True iff some neighbor appears twice in one vertex's list."""
    src, dst = graph.arcs()
    n = max(graph.num_vertices, 1)
    keys = src * np.int64(n) + dst
    return bool(sorted_unique(keys).size != keys.size)


def is_simple_undirected(graph: CSRGraph) -> bool:
    """Full invariant bundle: symmetric, loop-free, multi-edge-free."""
    return (
        is_symmetric(graph)
        and not has_self_loops(graph)
        and not has_parallel_edges(graph)
    )


def degree_histogram(graph: CSRGraph) -> Dict[int, int]:
    """``{degree: count}`` mapping, sparse (only degrees that occur)."""
    degs = graph.degrees()
    if degs.size == 0:
        return {}
    values, counts = np.unique(degs, return_counts=True)
    return {int(d): int(c) for d, c in zip(values, counts)}


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex via vectorized frontier BFS.

    Labels are the minimum vertex id of each component.  Runs one BFS per
    component but each BFS level is a single numpy gather, so total cost is
    ``O(n + m)`` array work.
    """
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = start
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            _, nbrs = graph.gather(frontier)
            nbrs = sorted_unique(nbrs)
            fresh = nbrs[labels[nbrs] == -1]
            labels[fresh] = start
            frontier = fresh
    return labels


def num_connected_components(graph: CSRGraph) -> int:
    """Number of connected components (isolated vertices count)."""
    if graph.num_vertices == 0:
        return 0
    return int(sorted_unique(connected_components(graph)).size)
