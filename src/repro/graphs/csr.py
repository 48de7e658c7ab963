"""Compressed-sparse-row graph storage.

:class:`CSRGraph` stores a simple undirected graph as two ``int64`` arrays:

``offsets``
    Length ``n + 1``; the neighbors of vertex ``v`` occupy
    ``neighbors[offsets[v]:offsets[v+1]]``.
``neighbors``
    Length ``2m``; every undirected edge ``{u, v}`` appears twice, once in
    each endpoint's list.

This mirrors the PBBS representation the paper's code used and keeps every
hot kernel a pure numpy gather/scatter.  The class is immutable by
convention (algorithms never mutate graphs; they carry their own status
arrays), which makes sharing one graph across a parameter sweep safe.

:class:`EdgeList` is the edge-major view used by maximal matching: one row
per *undirected* edge with ``u < v``, plus a vertex→incident-edge CSR index
built lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import InvalidGraphError
from repro.util.validation import require

__all__ = ["CSRGraph", "EdgeList", "gather_neighbors", "expand_offsets"]


def expand_offsets(offsets: np.ndarray) -> np.ndarray:
    """Expand a CSR boundary array into per-slot segment ids.

    ``expand_offsets([0, 2, 2, 5]) == [0, 0, 2, 2, 2]``: slot ``i`` of the
    data array belongs to segment ``expand_offsets(offsets)[i]``.  This is
    the standard vectorized replacement for "for v: for each neighbor of v"
    loops.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.size - 1
    total = int(offsets[-1])
    degrees = np.diff(offsets)
    return np.repeat(np.arange(n, dtype=np.int64), degrees)


def gather_neighbors(
    offsets: np.ndarray, neighbors: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized adjacency gather for a vertex subset.

    Returns ``(src, dst)`` arrays listing every directed edge leaving a
    vertex of *vertices*: ``src[i]`` is the source (repeated per neighbor)
    and ``dst[i]`` the neighbor.  No Python-level per-vertex loop: the
    flat neighbor indices are built with one ``repeat`` + ``arange``
    subtraction, as recommended by the HPC guides.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = offsets[vertices]
    degrees = offsets[vertices + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Flat index of each output slot: output position plus the (constant
    # per segment) offset between a segment's CSR start and its start in
    # the output — one repeat instead of three.
    seg_starts = np.zeros(vertices.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=seg_starts[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_starts, degrees)
    src = np.repeat(vertices, degrees)
    return src, neighbors[flat]


class CSRGraph:
    """Simple undirected graph in CSR form (see module docstring).

    Parameters
    ----------
    offsets, neighbors:
        The CSR arrays.  Converted to contiguous ``int64``; light
        structural validation (monotonicity, index ranges) always runs.
        Full symmetry validation is available via
        :func:`repro.graphs.properties.is_symmetric`.

    Notes
    -----
    Self-loops and parallel edges are rejected by the builders
    (:func:`repro.graphs.builders.from_edges`), not here: the constructor
    checks only what can be checked in ``O(n + m)`` without sorting.
    """

    __slots__ = ("offsets", "neighbors", "_edge_list", "__weakref__")

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        neighbors = np.ascontiguousarray(neighbors, dtype=np.int64)
        require(offsets.ndim == 1 and offsets.size >= 1,
                "offsets must be a 1-D array of length n+1", InvalidGraphError)
        require(neighbors.ndim == 1,
                "neighbors must be a 1-D array", InvalidGraphError)
        require(int(offsets[0]) == 0,
                f"offsets[0] must be 0, got {offsets[0]}", InvalidGraphError)
        require(int(offsets[-1]) == neighbors.size,
                f"offsets[-1] ({offsets[-1]}) must equal len(neighbors) ({neighbors.size})",
                InvalidGraphError)
        if offsets.size > 1:
            require(bool(np.all(np.diff(offsets) >= 0)),
                    "offsets must be non-decreasing", InvalidGraphError)
        n = offsets.size - 1
        if neighbors.size:
            lo, hi = int(neighbors.min()), int(neighbors.max())
            require(0 <= lo and hi < n,
                    f"neighbor ids must lie in [0, {n}), found [{lo}, {hi}]",
                    InvalidGraphError)
        require(neighbors.size % 2 == 0,
                "undirected CSR must hold an even number of directed arcs",
                InvalidGraphError)
        self.offsets = offsets
        self.neighbors = neighbors
        self._edge_list: Optional["EdgeList"] = None

    # -- basic measures ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self.neighbors.size // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs stored (``2m``)."""
        return self.neighbors.size

    def degrees(self) -> np.ndarray:
        """Array of vertex degrees (length ``n``)."""
        return np.diff(self.offsets)

    def degree(self, v: int) -> int:
        """Degree of vertex *v*."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max(initial=0))

    # -- adjacency access ----------------------------------------------------

    def neighbors_of(self, v: int) -> np.ndarray:
        """Read-only view of ``v``'s neighbor list."""
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All directed arcs as ``(src, dst)`` arrays of length ``2m``."""
        return expand_offsets(self.offsets), self.neighbors

    def gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Arcs leaving the given vertex subset; see :func:`gather_neighbors`."""
        return gather_neighbors(self.offsets, self.neighbors, vertices)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test by scanning the smaller endpoint list."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        return bool(np.any(self.neighbors_of(u) == v))

    # -- derived structures --------------------------------------------------

    def edge_list(self) -> "EdgeList":
        """The canonical :class:`EdgeList` view (``u < v``, cached).

        Edge ``i`` of the list is the ``i``-th arc with ``src < dst`` in
        CSR order, which gives a stable, representation-defined edge
        numbering used by the matching algorithms and the line graph.
        """
        if self._edge_list is None:
            src, dst = self.arcs()
            keep = src < dst
            self._edge_list = EdgeList(self.num_vertices, src[keep], dst[keep])
        return self._edge_list

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))


class EdgeList:
    """Edge-major view of an undirected graph.

    Attributes
    ----------
    num_vertices:
        Vertex-count of the underlying graph.
    u, v:
        ``int64`` arrays of endpoints with ``u[i] < v[i]``; edge ids are
        array positions.

    The vertex→incident-edges CSR index (:meth:`incidence`) is built lazily
    because only the matching engines need it.
    """

    __slots__ = ("num_vertices", "u", "v", "_inc_offsets", "_inc_edges", "__weakref__")

    def __init__(self, num_vertices: int, u: np.ndarray, v: np.ndarray) -> None:
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        require(u.shape == v.shape and u.ndim == 1,
                "endpoint arrays must be 1-D and equal length", InvalidGraphError)
        require(num_vertices >= 0, "num_vertices must be non-negative", InvalidGraphError)
        if u.size:
            require(bool(np.all(u < v)),
                    "edge list must be canonical: u[i] < v[i] for all edges",
                    InvalidGraphError)
            # With u < v, u holds the smallest endpoint and v the largest.
            lo, hi = int(u.min()), int(v.max())
            require(0 <= lo and hi < num_vertices,
                    f"edge endpoints must lie in [0, {num_vertices})",
                    InvalidGraphError)
        self.num_vertices = int(num_vertices)
        self.u = u
        self.v = v
        self._inc_offsets: Optional[np.ndarray] = None
        self._inc_edges: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self.u.size

    def incidence(self) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex→incident-edge CSR index ``(offsets, edge_ids)``.

        ``edge_ids[offsets[w]:offsets[w+1]]`` lists the ids of edges
        incident on vertex ``w``.  Built once with a counting sort (linear
        work) and cached.
        """
        if self._inc_offsets is None:
            n, m = self.num_vertices, self.num_edges
            endpoints = np.concatenate([self.u, self.v])
            edge_ids = np.concatenate(
                [np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)]
            )
            order = np.argsort(endpoints, kind="stable")
            counts = np.bincount(endpoints, minlength=n).astype(np.int64, copy=False)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._inc_offsets = offsets
            self._inc_edges = edge_ids[order]
        return self._inc_offsets, self._inc_edges

    def endpoints(self, e: int) -> Tuple[int, int]:
        """Endpoints ``(u, v)`` of edge *e* with ``u < v``."""
        return int(self.u[e]), int(self.v[e])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for a, b in zip(self.u.tolist(), self.v.tolist()):
            yield a, b

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EdgeList(n={self.num_vertices}, m={self.num_edges})"
