"""Lexicographically-first maximal clique — the paper's P-completeness link.

Footnote 1 of the paper: "Cook shows this for [the] problem of
lexicographically first maximal clique, which is equivalent to finding the
MIS on the complement graph."  This module makes that equivalence
executable: the direct greedy clique loop and the MIS-of-complement
reduction must produce identical cliques, which the test suite asserts.

(The complement graph is dense — Θ(n²) edges — so the reduction is a
correctness oracle for small graphs, not a scalable algorithm; the direct
greedy loop is O(n + m·|C|).)
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph
from repro.util.rng import SeedLike

__all__ = [
    "lexicographically_first_maximal_clique",
    "maximal_clique_via_complement",
    "complement_graph",
    "is_maximal_clique",
]


def complement_graph(graph: CSRGraph) -> CSRGraph:
    """The complement of *graph* (quadratic; intended for small n)."""
    n = graph.num_vertices
    if n > 3000:
        raise ValueError(
            f"complement of an n={n} graph would hold ~n^2/2 edges; "
            "this helper is an oracle for small graphs"
        )
    adj = np.zeros((n, n), dtype=bool)
    src, dst = graph.arcs()
    adj[src, dst] = True
    comp = ~adj
    np.fill_diagonal(comp, False)
    cu, cv = np.nonzero(np.triu(comp, k=1))
    return from_edges(n, cu.astype(np.int64), cv.astype(np.int64))


def lexicographically_first_maximal_clique(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Greedy maximal clique: take each vertex (in rank order) iff it is
    adjacent to every vertex already taken.  Returns a boolean mask."""
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    in_clique = np.zeros(n, dtype=bool)
    clique_size = 0
    offsets, neighbors = graph.offsets, graph.neighbors
    for v in permutation_from_ranks(ranks).tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if int(in_clique[nbrs].sum()) == clique_size:
            in_clique[v] = True
            clique_size += 1
    return in_clique


def maximal_clique_via_complement(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """The Cook reduction: lex-first MIS of the complement graph."""
    from repro.core.mis.sequential import sequential_greedy_mis
    from repro.pram.machine import null_machine

    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    comp = complement_graph(graph)
    return sequential_greedy_mis(comp, ranks, machine=null_machine()).in_set


def is_maximal_clique(graph: CSRGraph, members) -> bool:
    """True iff *members* is a clique no vertex can extend."""
    mask = np.asarray(members)
    if mask.dtype != bool:
        m2 = np.zeros(graph.num_vertices, dtype=bool)
        m2[mask.astype(np.int64)] = True
        mask = m2
    ids = np.nonzero(mask)[0]
    k = ids.size
    offsets, neighbors = graph.offsets, graph.neighbors
    # Clique: each member is adjacent to the other k-1 members.
    for v in ids.tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if int(mask[nbrs].sum()) != k - 1:
            return False
    # Maximal: no outside vertex is adjacent to all members.
    for v in np.nonzero(~mask)[0].tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if int(mask[nbrs].sum()) == k:
            return False
    return True
