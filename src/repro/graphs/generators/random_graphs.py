"""Uniform random graphs: G(n, m) and G(n, p).

``uniform_random_graph`` reproduces the paper's "sparse random graph"
input: ``m`` edges sampled uniformly among all vertex pairs, loops and
duplicates removed.  Sampling is rejection-free in expectation: we
oversample, canonicalize, and top up in the rare case of a shortfall.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.builders import _csr_from_keys, _edge_keys, from_edges
from repro.graphs.csr import CSRGraph
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, require

__all__ = ["uniform_random_graph", "gnp_random_graph"]


def uniform_random_graph(
    n: int,
    m: int,
    seed: SeedLike = None,
    *,
    exact: bool = True,
    max_attempts: int = 64,
) -> CSRGraph:
    """Sample a simple graph with *m* distinct uniform edges on *n* vertices.

    Parameters
    ----------
    n, m:
        Vertex and edge counts.  ``m`` must not exceed ``n*(n-1)/2``.
    seed:
        Seed material (see :data:`repro.util.rng.SeedLike`).
    exact:
        When true (default), keep sampling until exactly *m* distinct
        edges are collected; when false, a single oversampled round is
        taken and the result may have slightly fewer edges (faster for
        throwaway workloads).
    max_attempts:
        Safety bound on top-up rounds (only reachable for near-complete
        graphs).

    Notes
    -----
    The sampled distribution is uniform over simple graphs with exactly
    *m* edges, matching the G(n, m) model the paper's analysis permits
    (the analysis holds for *any* graph; the experiments use this input).
    """
    n = check_positive_int(n, "n")
    m = int(m)
    require(m >= 0, f"edge count must be non-negative, got {m}", ValueError)
    max_edges = n * (n - 1) // 2
    require(
        m <= max_edges,
        f"cannot place {m} simple edges on {n} vertices (max {max_edges})",
        ValueError,
    )
    rng = as_generator(seed)
    if m == 0:
        e = np.empty(0, dtype=np.int64)
        return from_edges(n, e, e)

    # Oversample to absorb expected collision/loop losses.  The sample is
    # kept as sorted distinct ``min*n + max`` edge keys throughout, so the
    # final layout needs no second dedup.
    batch = int(m * 1.15) + 16
    u = rng.integers(0, n, size=batch, dtype=np.int64)
    v = rng.integers(0, n, size=batch, dtype=np.int64)
    keys = _edge_keys(n, u, v)
    # Each soup is dead once keyed; dropping it here keeps it out of the
    # peak of the subsample and of the layout.
    del u, v
    attempts = 0
    while exact and keys.size < m:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"failed to collect {m} distinct edges after {max_attempts} "
                f"rounds (n={n}); graph too dense for rejection sampling"
            )
        deficit = m - keys.size
        extra = max(4 * deficit + 16, 64)
        nu = rng.integers(0, n, size=extra, dtype=np.int64)
        nv = rng.integers(0, n, size=extra, dtype=np.int64)
        keys = sorted_unique(np.concatenate([keys, _edge_keys(n, nu, nv)]))
        del nu, nv
    if keys.size > m:
        # Drop a uniform subset to hit exactly m (order within the
        # canonical list carries no information).  A sorted index keeps
        # the keys sorted, which the layout sort finishes faster.
        keep = rng.choice(keys.size, size=m, replace=False)
        keep.sort()
        keys = keys[keep]
        del keep
    return _csr_from_keys(n, keys)


def gnp_random_graph(n: int, p: float, seed: SeedLike = None) -> CSRGraph:
    """Erdős–Rényi G(n, p): every pair is an edge independently w.p. *p*.

    Used by the theory validation suite (the prior work of Coppersmith et
    al. and Calkin–Frieze analyzed exactly this model).  The number of
    edges is drawn from the exact binomial, then that many distinct edges
    are sampled uniformly — equivalent to per-pair Bernoulli draws but
    ``O(m)`` instead of ``O(n^2)``.
    """
    n = check_positive_int(n, "n")
    require(0.0 <= p <= 1.0, f"p must lie in [0, 1], got {p}", ValueError)
    rng = as_generator(seed)
    max_edges = n * (n - 1) // 2
    m = int(rng.binomial(max_edges, p)) if max_edges > 0 else 0
    return uniform_random_graph(n, m, rng)
