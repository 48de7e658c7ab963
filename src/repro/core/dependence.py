"""Priority-DAG analysis: dependence length, longest paths, step structure.

The *priority DAG* (Section 3) orients every edge from its higher-priority
endpoint to its lower-priority endpoint.  Key quantities:

``dependence_length``
    Number of iterations of Algorithm 2 — the paper's central quantity,
    bounded by ``O(log Δ log n)`` w.h.p. (Theorem 3.5).
``longest_path_length``
    Longest directed path in the priority DAG (counted in vertices).  An
    upper bound on the dependence length that can be *much* larger: on the
    complete graph it is n while the dependence length is 1.
``mis_step_numbers``
    The step at which each vertex is decided by Algorithm 2 — the explicit
    parallel schedule that any dependence-respecting execution refines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.machine import null_machine
from repro.util.rng import SeedLike

__all__ = [
    "priority_dag_arcs",
    "dependence_length",
    "longest_path_length",
    "mis_step_numbers",
    "matching_dependence_length",
    "matching_step_numbers",
    "parallelism_profile",
    "average_parallelism",
    "matching_parallelism_profile",
]


def priority_dag_arcs(graph: CSRGraph, ranks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Arcs of the priority DAG as ``(earlier, later)`` endpoint arrays.

    Each undirected edge appears exactly once, oriented by priority.
    """
    ranks = validate_priorities(ranks, graph.num_vertices)
    src, dst = graph.arcs()
    forward = ranks[src] < ranks[dst]
    return src[forward], dst[forward]


def dependence_length(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> int:
    """Number of Algorithm 2 iterations for (*graph*, *ranks*).

    Zero for the empty graph; 1 when the order makes every vertex a root
    immediately (e.g. any order on an edgeless graph).
    """
    from repro.core.mis.parallel import parallel_greedy_mis

    result = parallel_greedy_mis(graph, ranks, seed=seed, machine=null_machine())
    return result.stats.steps


def longest_path_length(graph: CSRGraph, ranks: np.ndarray) -> int:
    """Longest directed path in the priority DAG, in **vertices**.

    Computed by dynamic programming in priority order (which is a
    topological order of the DAG): ``lp[v] = 1 + max lp[parent]``.
    Returns 0 for the empty graph.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    ranks = validate_priorities(ranks, n)
    perm = permutation_from_ranks(ranks)
    offsets = graph.offsets
    neighbors = graph.neighbors
    lp = np.ones(n, dtype=np.int64)
    ranks_l = ranks
    # Python loop in topological order; each edge relaxed once (O(n + m)).
    for v in perm.tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if nbrs.size:
            earlier = nbrs[ranks_l[nbrs] < ranks_l[v]]
            if earlier.size:
                lp[v] = int(lp[earlier].max()) + 1
    return int(lp.max())


def mis_step_numbers(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Step at which Algorithm 2 decides each vertex (1-based).

    The maximum equals :func:`dependence_length`.  Vertices accepted and
    vertices knocked out in the same step share that step number.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    status = new_vertex_status(n)
    step_no = np.zeros(n, dtype=np.int64)
    live = np.arange(n, dtype=np.int64)
    src, dst = graph.arcs()
    min_nb = np.full(n, n, dtype=np.int64)
    step = 0
    while live.size:
        step += 1
        min_nb[live] = n
        np.minimum.at(min_nb, src, ranks[dst])
        roots = live[ranks[live] < min_nb[live]]
        status[roots] = IN_SET
        step_no[roots] = step
        from_root = status[src] == IN_SET
        victims = dst[from_root]
        fresh = victims[status[victims] == UNDECIDED]
        status[fresh] = KNOCKED_OUT
        step_no[fresh] = step
        keep = (status[src] == UNDECIDED) & (status[dst] == UNDECIDED)
        src, dst = src[keep], dst[keep]
        live = live[status[live] == UNDECIDED]
    return step_no


def parallelism_profile(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Vertices decided per step of Algorithm 2 — the available parallelism.

    Entry ``i`` is the number of vertices (accepted + knocked out) that
    resolve in step ``i+1``; the array sums to ``n`` and its length is the
    dependence length.  The paper's speedups exist because this profile is
    front-loaded: most of the graph resolves in the first few steps.
    """
    steps = mis_step_numbers(graph, ranks, seed=seed)
    if steps.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(steps, minlength=int(steps.max()) + 1)[1:]


def average_parallelism(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> float:
    """Mean vertices decided per step: ``n / dependence_length``.

    The work-over-depth measure of how much a greedy MIS run can be
    parallelized at all; 1.0 means fully sequential.
    """
    profile = parallelism_profile(graph, ranks, seed=seed)
    if profile.size == 0:
        return 0.0
    return float(profile.sum() / profile.size)


def matching_parallelism_profile(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Edges decided per step of Algorithm 4 (the MM parallelism profile).

    The edge analogue of :func:`parallelism_profile`; sums to ``m``, has
    length equal to the matching dependence length.
    """
    steps = matching_step_numbers(edges, ranks, seed=seed)
    if steps.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(steps, minlength=int(steps.max()) + 1)[1:]


def matching_dependence_length(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> int:
    """Number of Algorithm 4 iterations for (*edges*, *ranks*)."""
    from repro.core.matching.parallel import parallel_greedy_matching

    result = parallel_greedy_matching(edges, ranks, seed=seed, machine=null_machine())
    return result.stats.steps


def matching_step_numbers(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Step at which Algorithm 4 decides each edge (1-based)."""
    m = edges.num_edges
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    n = edges.num_vertices
    from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status

    status = new_edge_status(m)
    step_no = np.zeros(m, dtype=np.int64)
    live = np.arange(m, dtype=np.int64)
    eu, ev = edges.u, edges.v
    min_at = np.full(n, m, dtype=np.int64)
    matched_v = np.zeros(n, dtype=bool)
    step = 0
    while live.size:
        step += 1
        lu, lv, lr = eu[live], ev[live], ranks[live]
        min_at[lu] = m
        min_at[lv] = m
        np.minimum.at(min_at, lu, lr)
        np.minimum.at(min_at, lv, lr)
        winners = live[(min_at[lu] == lr) & (min_at[lv] == lr)]
        status[winners] = EDGE_MATCHED
        step_no[winners] = step
        matched_v[eu[winners]] = True
        matched_v[ev[winners]] = True
        alive_mask = status[live] == EDGE_LIVE
        touched = matched_v[lu] | matched_v[lv]
        dead = live[alive_mask & touched]
        status[dead] = EDGE_DEAD
        step_no[dead] = step
        live = live[alive_mask & ~touched]
    return step_no
