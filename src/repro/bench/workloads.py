"""The paper's evaluation inputs, at container-friendly scale.

Paper inputs (Section 6):

* sparse random graph, n = 10^7, m = 5·10^7 (m = 5n);
* rMat graph, n = 2^24, m = 5·10^7, power-law degrees.

Defaults here shrink both by 100x while preserving the m = 5n ratio and
the rMat parameterization; every plotted quantity in Figures 1–4 is
normalized by input size, so shapes carry over (DESIGN.md §2).  Scale can
be raised via the ``REPRO_BENCH_SCALE`` environment variable
(``tiny`` / ``small`` / ``default`` / ``large`` / ``paper``) or explicit
arguments.  ``paper`` is the paper's own size; each of its inputs needs
several GB to build (docs/performance.md records the build).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import rmat_graph, uniform_random_graph
from repro.util.rng import SeedLike

__all__ = ["bench_scale", "paper_random_graph", "paper_rmat_graph", "workload_pair"]

#: (random-graph n, random-graph m, rmat scale, rmat edge samples) per tier.
_SCALES: Dict[str, Tuple[int, int, int, int]] = {
    "tiny": (2_000, 10_000, 11, 10_000),
    "small": (20_000, 100_000, 14, 100_000),
    "default": (100_000, 500_000, 17, 500_000),
    "large": (400_000, 2_000_000, 19, 2_000_000),
    "paper": (10_000_000, 50_000_000, 24, 50_000_000),
}


def bench_scale() -> str:
    """Scale tier from ``REPRO_BENCH_SCALE`` (default ``"small"``).

    ``small`` keeps a full figure regeneration in tens of seconds on one
    core; ``default`` matches the 100x-shrunk paper inputs documented in
    DESIGN.md.
    """
    tier = os.environ.get("REPRO_BENCH_SCALE", "small").strip().lower()
    if tier not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {tier!r}"
        )
    return tier


def paper_random_graph(scale: str = None, seed: SeedLike = 20120215) -> CSRGraph:
    """The "sparse random graph" input at the given (or env) scale tier.

    The default seed is fixed (the paper's submission date) so every bench
    and experiment record refers to the same instance.
    """
    tier = scale or bench_scale()
    n, m, _, _ = _SCALES[tier]
    return uniform_random_graph(n, m, seed=seed)


def paper_rmat_graph(scale: str = None, seed: SeedLike = 20120215) -> CSRGraph:
    """The rMat input at the given (or env) scale tier (PBBS parameters)."""
    tier = scale or bench_scale()
    _, _, rmat_scale, samples = _SCALES[tier]
    return rmat_graph(rmat_scale, samples, seed=seed)


def workload_pair(scale: str = None) -> Dict[str, CSRGraph]:
    """Both evaluation inputs, keyed ``"random"`` / ``"rmat"``."""
    return {
        "random": paper_random_graph(scale),
        "rmat": paper_rmat_graph(scale),
    }
