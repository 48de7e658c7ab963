"""Maximal-matching verification predicates.

Definitions (Section 2): a matching ``E'`` has no two edges sharing an
endpoint; it is maximal when every edge outside ``E'`` has a neighbor in
``E'`` — equivalently, no edge has both endpoints unmatched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import VerificationError
from repro.graphs.csr import EdgeList
from repro.util.arrays import sorted_unique

__all__ = [
    "is_matching",
    "is_maximal_matching",
    "is_lexicographically_first_matching",
    "assert_valid_matching",
]


def _as_mask(edges: EdgeList, members) -> np.ndarray:
    mask = np.asarray(members)
    if mask.dtype == bool:
        if mask.shape != (edges.num_edges,):
            raise ValueError(
                f"edge mask must have shape ({edges.num_edges},), got {mask.shape}"
            )
        return mask
    out = np.zeros(edges.num_edges, dtype=bool)
    out[mask.astype(np.int64)] = True
    return out


def is_matching(edges: EdgeList, members) -> bool:
    """True iff no vertex is an endpoint of two selected edges."""
    mask = _as_mask(edges, members)
    ids = np.nonzero(mask)[0]
    endpoints = np.concatenate([edges.u[ids], edges.v[ids]])
    return bool(sorted_unique(endpoints).size == endpoints.size)


def is_maximal_matching(edges: EdgeList, members) -> bool:
    """True iff *members* is a matching and no edge can be added."""
    mask = _as_mask(edges, members)
    if not is_matching(edges, mask):
        return False
    matched_v = np.zeros(edges.num_vertices, dtype=bool)
    ids = np.nonzero(mask)[0]
    matched_v[edges.u[ids]] = True
    matched_v[edges.v[ids]] = True
    free_both = ~matched_v[edges.u] & ~matched_v[edges.v]
    return not bool(np.any(free_both))


def is_lexicographically_first_matching(
    edges: EdgeList, ranks: np.ndarray, members
) -> bool:
    """True iff *members* equals the greedy sequential matching for *ranks*.

    Fixed-point characterization, one vectorized pass (``O(n + m)``): a set
    ``S`` is the lex-first matching iff for **every** edge ``e``,
    ``e ∈ S`` exactly when no earlier adjacent edge is in ``S``.
    (Uniqueness by induction on edge rank.)  Because a candidate ``S``
    might not even be a matching, the check first rejects any vertex with
    two selected edges — such an ``S`` violates the condition at the later
    of the two edges anyway, but the vectorized "matched edge per vertex"
    encoding requires the matching property to be established first.
    """
    from repro.core.orderings import validate_priorities

    mask = _as_mask(edges, members)
    m = edges.num_edges
    ranks = validate_priorities(np.asarray(ranks), m)
    if not is_matching(edges, mask):
        return False
    n = edges.num_vertices
    # Rank of the (unique) selected edge at each vertex; sentinel m if none.
    member_rank = np.full(n, m, dtype=np.int64)
    ids = np.nonzero(mask)[0]
    member_rank[edges.u[ids]] = ranks[ids]
    member_rank[edges.v[ids]] = ranks[ids]
    # An edge is dominated iff some endpoint hosts a *strictly earlier*
    # selected edge.  (A selected edge's own rank never dominates itself.)
    dominated = (
        (member_rank[edges.u] < ranks) | (member_rank[edges.v] < ranks)
    )
    return bool(np.array_equal(mask, ~dominated))


def assert_valid_matching(
    edges: EdgeList,
    members,
    ranks: Optional[np.ndarray] = None,
) -> None:
    """Raise :class:`VerificationError` unless *members* is a valid
    maximal matching (and lex-first for *ranks* when given)."""
    mask = _as_mask(edges, members)
    ids = np.nonzero(mask)[0]
    endpoints = np.concatenate([edges.u[ids], edges.v[ids]])
    uniq, counts = np.unique(endpoints, return_counts=True)
    clash = uniq[counts > 1]
    if clash.size:
        raise VerificationError(
            f"not a matching: vertex {int(clash[0])} is an endpoint of "
            f"{int(counts[counts > 1][0])} selected edges"
        )
    matched_v = np.zeros(edges.num_vertices, dtype=bool)
    matched_v[edges.u[ids]] = True
    matched_v[edges.v[ids]] = True
    free_both = np.nonzero(~matched_v[edges.u] & ~matched_v[edges.v])[0]
    if free_both.size:
        e = int(free_both[0])
        raise VerificationError(
            f"not maximal: edge {e} = ({int(edges.u[e])}, {int(edges.v[e])}) "
            f"has both endpoints unmatched"
        )
    if ranks is not None and not is_lexicographically_first_matching(edges, ranks, mask):
        raise VerificationError(
            "valid maximal matching, but not the lexicographically-first "
            "matching for the given order"
        )
