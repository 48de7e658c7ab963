"""Builders: turn edge soups, adjacency lists, or networkx graphs into CSR.

All builders produce a *simple* undirected :class:`~repro.graphs.csr.CSRGraph`:
self-loops are dropped and parallel edges are merged.  Building is two
sorts of 64-bit keys: edges are encoded as ``min*n + max`` keys and
deduplicated by one sort (:func:`~repro.util.arrays.sorted_unique`); each
edge then yields two arcs keyed ``src*n + dst``, and one more sort of those
keys is the CSR layout (``dst = key % n``, degrees from ``key // n``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidGraphError
from repro.graphs.csr import CSRGraph
from repro.util.arrays import sorted_unique
from repro.util.validation import check_index_array, check_int, require

__all__ = [
    "from_edges",
    "from_adjacency_lists",
    "from_networkx",
    "to_networkx",
    "canonical_edges",
]


def canonical_edges(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize an edge soup: drop self-loops, dedup, return ``u < v``.

    Returns sorted (by ``(u, v)``) endpoint arrays.  Works for any ``n``
    with ``n**2`` representable in ``int64`` (n < 3e9 — far beyond what a
    single node can hold anyway).

    Parameters
    ----------
    n:
        Number of vertices; endpoints are validated against ``[0, n)``.
    u, v:
        Endpoint arrays of equal length (directed or undirected soup).
    """
    n = check_int(n, "n")
    keys = _edge_keys(n, u, v)
    return keys // n, keys % n


def _edge_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted distinct ``min*n + max`` keys of the soup's non-loop edges."""
    u = check_index_array(u, n, "u")
    v = check_index_array(v, n, "v")
    require(u.size == v.size, "endpoint arrays must have equal length", InvalidGraphError)
    keep = u != v
    # Boolean indexing copies, so the in-place steps below never touch
    # the caller's arrays.
    lo, hi = u[keep], v[keep]
    keys = np.minimum(lo, hi)
    keys *= n
    keys += np.maximum(lo, hi, out=hi)
    del lo, hi  # free them before sorted_unique copies the keys
    return sorted_unique(keys)


def from_edges(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
) -> CSRGraph:
    """Build a simple undirected CSR graph from endpoint arrays.

    Self-loops are removed and duplicate/parallel edges merged.  Neighbor
    lists come out sorted by neighbor id (the layout is one sort of
    ``src*n + dst`` arc keys); tests pin this layout byte for byte, though
    no algorithm requires it.

    Examples
    --------
    >>> g = from_edges(3, np.array([0, 1, 1, 0]), np.array([1, 0, 2, 0]))
    >>> g.num_edges   # {0,1} deduped, {0,0} self-loop dropped, {1,2} kept
    2
    """
    n = check_int(n, "n")
    return _csr_from_keys(n, _edge_keys(n, u, v))


def _csr_from_keys(n: int, keys: np.ndarray) -> CSRGraph:
    """The CSR layout of distinct ``min*n + max`` edge keys, in any order.

    A generator that already holds distinct keys calls this directly and
    skips :func:`from_edges`' dedup sort; the output is the same bytes.
    """
    # Each undirected edge {lo, hi} contributes arcs lo->hi and hi->lo,
    # keyed src*n + dst; sorted, the keys are the CSR layout.
    arcs = np.concatenate([keys, keys % n])
    reverse = arcs[keys.size:]
    reverse *= n
    reverse += keys // n
    arcs.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arcs // n, minlength=n), out=offsets[1:])
    arcs %= n
    return CSRGraph(offsets, arcs)


def from_adjacency_lists(adjacency: Sequence[Iterable[int]]) -> CSRGraph:
    """Build a graph from a list of neighbor iterables.

    The input may be asymmetric or contain duplicates/self-loops; it is
    canonicalized like :func:`from_edges`.

    >>> g = from_adjacency_lists([[1, 2], [0], [0]])
    >>> g.num_edges
    2
    """
    n = len(adjacency)
    us, vs = [], []
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            us.append(i)
            vs.append(int(j))
    return from_edges(n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))


def from_networkx(nx_graph) -> Tuple[CSRGraph, dict]:
    """Convert a ``networkx.Graph`` to CSR.

    Returns ``(graph, node_to_index)`` since networkx nodes may be
    arbitrary hashables.  Requires networkx (an optional dependency).
    """
    nodes = list(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    m = nx_graph.number_of_edges()
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    for k, (a, b) in enumerate(nx_graph.edges()):
        u[k] = index[a]
        v[k] = index[b]
    return from_edges(len(nodes), u, v), index


def to_networkx(graph: CSRGraph):
    """Convert a CSR graph to a ``networkx.Graph`` (vertex ids 0..n-1)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    el = graph.edge_list()
    g.add_edges_from(zip(el.u.tolist(), el.v.tolist()))
    return g
