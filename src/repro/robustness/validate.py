"""Front-door input validation for the MIS and matching APIs.

The engines assume clean inputs (validated boundary, branch-free hot
loops), so anything malformed must be rejected before any engine work.
This module concentrates the checks behind the two front doors
(:func:`repro.core.mis.api.maximal_independent_set`,
:func:`repro.core.matching.api.maximal_matching`):

* :func:`check_ranks` — a priority array must be a genuine permutation of
  ``0..n-1``: right length, integer dtype (NaN-carrying float arrays are
  rejected with a pointed message), no duplicates, no out-of-range
  entries.  Violations raise
  :class:`~repro.errors.InvalidOrderingError`.  This is an alias of
  :func:`repro.core.orderings.validate_priorities`, the one O(n) check.
  The front doors leave it to the engine's boundary, which runs it before
  any engine work, so a solve checks π once (and a π the engine draws
  from a seed not at all).
* :func:`check_csr_graph` / :func:`check_edge_list` — structural CSR /
  edge-list invariants re-checked on the actual arrays, so a graph object
  whose arrays were corrupted *after* construction (the constructor
  validates too) still fails loudly with
  :class:`~repro.errors.InvalidGraphError` instead of producing a
  wrong-but-plausible answer.

All checks are O(n + m) single passes and run once per front-door call,
never inside engine rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.orderings import validate_priorities
from repro.errors import InvalidGraphError
from repro.graphs.csr import CSRGraph, EdgeList

__all__ = [
    "check_ranks",
    "check_csr_graph",
    "check_csr_symmetric",
    "check_edge_list",
]

#: Alias of :func:`repro.core.orderings.validate_priorities`.
check_ranks = validate_priorities


def check_csr_graph(graph: CSRGraph) -> None:
    """Re-verify the CSR invariants on *graph*'s current arrays.

    The constructor already enforces these, but a fault (or a caller
    mutating ``graph.offsets`` in place) can break them afterwards; the
    front doors re-check so corruption is detected at the boundary.
    """
    n = graph.num_vertices
    offsets, neighbors = graph.offsets, graph.neighbors
    if offsets.ndim != 1 or offsets.size != n + 1:
        raise InvalidGraphError(
            f"offsets must have shape ({n + 1},), got {offsets.shape}"
        )
    if n >= 0 and (int(offsets[0]) != 0 or int(offsets[-1]) != neighbors.size):
        raise InvalidGraphError(
            f"offsets must start at 0 and end at the arc count "
            f"{neighbors.size}, got [{int(offsets[0])}, {int(offsets[-1])}]"
        )
    if offsets.size > 1 and np.any(np.diff(offsets) < 0):
        v = int(np.flatnonzero(np.diff(offsets) < 0)[0])
        raise InvalidGraphError(f"offsets are not monotone at vertex {v}")
    if neighbors.size:
        lo, hi = int(neighbors.min()), int(neighbors.max())
        if lo < 0 or hi >= n:
            raise InvalidGraphError(
                f"neighbor indices must lie in [0, {n}), found [{lo}, {hi}]"
            )
    if neighbors.size % 2 != 0:
        raise InvalidGraphError(
            f"undirected CSR must store each edge twice; arc count "
            f"{neighbors.size} is odd"
        )


def check_csr_symmetric(graph: CSRGraph) -> None:
    """Raise :class:`InvalidGraphError` unless *graph* is symmetric.

    O(m log m); this is the expensive half of CSR validation, so the front
    doors only run it under ``guards="full"``.
    """
    from repro.graphs.properties import is_symmetric

    if not is_symmetric(graph):
        raise InvalidGraphError(
            "undirected CSR graph is asymmetric: some arc (u, v) has no "
            "reverse arc (v, u)"
        )


def check_edge_list(edges: EdgeList) -> None:
    """Re-verify the canonical edge-list invariants on *edges*' arrays."""
    n = edges.num_vertices
    u, v = edges.u, edges.v
    if u.shape != v.shape or u.ndim != 1:
        raise InvalidGraphError(
            "endpoint arrays must be 1-D and equal length, got "
            f"{u.shape} and {v.shape}"
        )
    if u.size:
        if not bool(np.all(u < v)):
            e = int(np.flatnonzero(~(u < v))[0])
            raise InvalidGraphError(
                f"edge list must be canonical (u < v); edge {e} is "
                f"({int(u[e])}, {int(v[e])})"
            )
        # With u < v, u holds the smallest endpoint and v the largest.
        lo, hi = int(u.min()), int(v.max())
        if lo < 0 or hi >= n:
            raise InvalidGraphError(
                f"edge endpoints must lie in [0, {n}), found [{lo}, {hi}]"
            )
