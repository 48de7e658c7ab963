"""Power-law random graphs: Chung–Lu and Barabási–Albert.

The rMat input of the paper has a power-law degree distribution; these two
additional models let the test/theory suites confirm that the dependence
length stays polylogarithmic under heavy degree skew generated by an
entirely different process (preferential attachment vs. recursive matrix).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builders import canonical_edges, from_edges
from repro.graphs.csr import CSRGraph
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, require

__all__ = ["chung_lu_graph", "barabasi_albert_graph", "powerlaw_cluster_graph"]


def chung_lu_graph(weights: np.ndarray, seed: SeedLike = None) -> CSRGraph:
    """Chung–Lu model: edge {u, v} appears w.p. ``min(1, w_u w_v / W)``.

    Implemented by sampling ``W/2`` endpoint pairs proportionally to the
    weights and deduplicating — the standard "fast Chung–Lu" approximation
    whose expected degrees match the weights up to collision losses.

    Parameters
    ----------
    weights:
        Non-negative expected degrees, one per vertex.
    """
    w = np.asarray(weights, dtype=np.float64)
    require(w.ndim == 1 and w.size >= 1, "weights must be a non-empty 1-D array", ValueError)
    require(bool(np.all(w >= 0)), "weights must be non-negative", ValueError)
    total = float(w.sum())
    n = w.size
    rng = as_generator(seed)
    if total <= 0:
        e = np.empty(0, dtype=np.int64)
        return from_edges(n, e, e)
    samples = max(int(total / 2), 1)
    p = w / total
    u = rng.choice(n, size=samples, p=p).astype(np.int64)
    v = rng.choice(n, size=samples, p=p).astype(np.int64)
    cu, cv = canonical_edges(n, u, v)
    return from_edges(n, cu, cv)


def barabasi_albert_graph(n: int, k: int, seed: SeedLike = None) -> CSRGraph:
    """Preferential attachment: each new vertex attaches to *k* targets.

    Uses the repeated-endpoints trick (sample targets uniformly from the
    endpoint multiset so far) for linear-time generation.  The first
    ``k + 1`` vertices form a seed clique.
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    require(k < n, f"need n > k, got n={n}, k={k}", ValueError)
    rng = as_generator(seed)
    # Seed clique on vertices 0..k.
    seed_n = k + 1
    iu = np.triu_indices(seed_n, k=1)
    us = [iu[0].astype(np.int64)]
    vs = [iu[1].astype(np.int64)]
    # Endpoint multiset for preferential sampling.
    endpoint_pool = list(np.concatenate([us[0], vs[0]]))
    for new in range(seed_n, n):
        pool = np.asarray(endpoint_pool, dtype=np.int64)
        targets = rng.choice(pool, size=min(k, new), replace=False) if pool.size else np.arange(min(k, new))
        targets = sorted_unique(targets)
        src = np.full(targets.size, new, dtype=np.int64)
        us.append(src)
        vs.append(targets)
        endpoint_pool.extend(src.tolist())
        endpoint_pool.extend(targets.tolist())
    return from_edges(n, np.concatenate(us), np.concatenate(vs))


def powerlaw_cluster_graph(
    n: int, k: int, triangle_p: float, seed: SeedLike = None
) -> CSRGraph:
    """Holme–Kim clustered power-law model.

    Grows the graph by preferential attachment like
    :func:`barabasi_albert_graph`, but after each attachment a triad step
    fires with probability *triangle_p*: the next link goes to a random
    neighbor of the just-chosen target, closing a triangle.  The result
    keeps the Barabási–Albert degree power law while adding tunable
    clustering — the "community-structured social graph" workload for the
    dynamic-session suite, where mutations inside one cluster should not
    re-peel other clusters.

    Parameters
    ----------
    n:
        Vertex count (``n > k``).
    k:
        Links added per new vertex.
    triangle_p:
        Probability in ``[0, 1]`` that a link is converted into a
        triangle-closing step.
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    require(k < n, f"need n > k, got n={n}, k={k}", ValueError)
    require(
        0.0 <= float(triangle_p) <= 1.0,
        f"triangle_p must be in [0, 1], got {triangle_p}",
        ValueError,
    )
    rng = as_generator(seed)
    seed_n = k + 1
    adjacency = [set() for _ in range(n)]
    endpoint_pool: list = []
    for a in range(seed_n):
        for b in range(a + 1, seed_n):
            adjacency[a].add(b)
            adjacency[b].add(a)
            endpoint_pool.extend((a, b))
    for new in range(seed_n, n):
        target = None
        for _ in range(k):
            candidate = None
            if target is not None and rng.random() < float(triangle_p):
                # Triad step: close a triangle through the previous target.
                open_nbrs = [
                    w for w in adjacency[target]
                    if w != new and w not in adjacency[new]
                ]
                if open_nbrs:
                    candidate = int(open_nbrs[int(rng.integers(len(open_nbrs)))])
            while candidate is None:
                # Preferential-attachment step via the endpoint multiset.
                pick = int(endpoint_pool[int(rng.integers(len(endpoint_pool)))])
                if pick != new and pick not in adjacency[new]:
                    candidate = pick
            adjacency[new].add(candidate)
            adjacency[candidate].add(new)
            endpoint_pool.extend((new, candidate))
            target = candidate
    us = []
    vs = []
    for a in range(n):
        for b in adjacency[a]:
            if a < b:
                us.append(a)
                vs.append(b)
    return from_edges(n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))
