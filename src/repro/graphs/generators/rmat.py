"""R-MAT recursive-matrix graphs (Chakrabarti, Zhan & Faloutsos, SDM 2004).

The paper's second input is "an rMat graph with 2^24 vertices and 5x10^7
edges ... [with] a power-law distribution of degrees" [5].  R-MAT places
each edge by recursively descending a 2x2 partition of the adjacency
matrix, choosing quadrant (a, b, c, d) at each of ``scale`` levels.  We use
the PBBS parameterization (a=0.5, b=c=0.1, d=0.3) with per-level
probability noise, vectorized across all edges: the level loop runs
``scale`` times regardless of ``m``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, require

__all__ = ["rmat_graph"]


def rmat_graph(
    scale: int,
    m: int,
    seed: SeedLike = None,
    *,
    a: float = 0.5,
    b: float = 0.1,
    c: float = 0.1,
    noise: float = 0.1,
) -> CSRGraph:
    """Sample an R-MAT graph with ``n = 2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count (the paper used 24; the scaled default
        workload uses 17).
    m:
        Number of edge *samples*.  Because R-MAT heavily revisits hot
        cells, the simple graph that results after dedup/loop removal has
        somewhat fewer edges — the same behaviour as the PBBS generator.
    a, b, c:
        Quadrant probabilities; ``d = 1 - a - b - c`` must be positive.
    noise:
        Multiplicative jitter applied to ``a`` per level per edge (PBBS
        applies similar smoothing to avoid exact-degree artifacts).

    Returns
    -------
    CSRGraph
        Simple undirected graph with power-law-ish degree distribution.
    """
    scale = check_positive_int(scale, "scale")
    require(scale <= 30, f"scale={scale} would allocate >2^30 vertices", ValueError)
    m = int(m)
    require(m >= 0, f"edge sample count must be non-negative, got {m}", ValueError)
    d = 1.0 - a - b - c
    require(
        min(a, b, c, d) >= 0.0,
        f"quadrant probabilities must be non-negative (a={a}, b={b}, c={c}, d={d})",
        ValueError,
    )
    require(0.0 <= noise < 1.0, f"noise must lie in [0, 1), got {noise}", ValueError)
    rng = as_generator(seed)
    n = 1 << scale
    bq = b / (b + c + d)
    cq = c / (b + c + d)
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    # Per-level buffers, drawn and computed in place.  Every draw and
    # floating-point operation keeps the order of the plain expressions in
    # the comments, so the sample is bit-identical to them.
    x = np.empty(m)
    aa = np.empty(m)
    ab = np.empty(m)
    r = np.empty(m)
    bit = np.empty(m, dtype=bool)
    tmp = np.empty(m, dtype=bool)
    for _level in range(scale):
        # Per-edge jittered quadrant probabilities (keeps ratios of b, c, d):
        # aa = clip(a * (1 + noise * (U * 2 - 1)), 0, 1), else aa = a.
        if noise > 0.0:
            rng.random(out=x)
            x *= 2.0
            x -= 1.0
            x *= noise
            x += 1.0
            np.multiply(x, a, out=aa)
            np.clip(aa, 0.0, 1.0, out=aa)
        else:
            aa.fill(a)
        np.subtract(1.0, aa, out=x)   # rest = 1 - aa
        np.multiply(x, bq, out=ab)
        ab += aa                      # ab = aa + bb
        x *= cq
        x += ab                       # x = aa + bb + cc
        rng.random(out=r)
        # Quadrants: A = top-left (0,0), B = top-right (0,1),
        #            C = bottom-left (1,0), D = bottom-right (1,1).
        # Row bit (C or D): r >= aa + bb, since cc >= 0.
        np.greater_equal(r, ab, out=bit)
        u <<= 1
        u |= bit
        # Column bit (B or D): aa <= r < aa + bb, or r >= aa + bb + cc.
        np.greater_equal(r, aa, out=bit)
        np.less(r, ab, out=tmp)
        bit &= tmp
        np.greater_equal(r, x, out=tmp)
        bit |= tmp
        v <<= 1
        v |= bit
    del x, aa, ab, r, bit, tmp  # free the level buffers before the build
    return from_edges(n, u, v)
