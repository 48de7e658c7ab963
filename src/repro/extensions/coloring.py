"""Greedy graph coloring under a fixed random order.

Sequential rule: process vertices by rank; give each the smallest color
absent among its already-colored (i.e. earlier) neighbors.  The
parallelization (Jones–Plassmann style) colors a vertex as soon as *all*
earlier neighbors are colored — the full priority-DAG peel, whose step
count is exactly the DAG's longest path.

Contrast with MIS: MIS resolves a vertex as soon as *any* earlier neighbor
joins the set (or all are knocked out), so its dependence length can be far
below the longest path.  Coloring has no such shortcut, which is why this
extension reports longest-path steps and the benches can compare the two
schedules on the same inputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.core.result import RunStats, stats_from_machine
from repro.graphs.csr import CSRGraph
from repro.pram.machine import Machine, log2_depth
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike

__all__ = [
    "sequential_greedy_coloring",
    "parallel_greedy_coloring",
    "is_proper_coloring",
]


def _smallest_absent(used: np.ndarray) -> int:
    """Smallest non-negative integer missing from *used* (a small array)."""
    if used.size == 0:
        return 0
    present = np.zeros(used.size + 1, dtype=bool)
    inside = used[used <= used.size]
    present[inside] = True
    return int(np.nonzero(~present)[0][0])


def sequential_greedy_coloring(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, RunStats]:
    """First-fit coloring in rank order; returns ``(colors, stats)``.

    Uses at most ``Δ + 1`` colors (first-fit's classical guarantee).
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    if machine is None:
        machine = Machine()
    colors = np.full(n, -1, dtype=np.int64)
    offsets, neighbors = graph.offsets, graph.neighbors
    work = 0
    machine.begin_round()
    for v in permutation_from_ranks(ranks).tolist():
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        earlier = nbrs[ranks[nbrs] < ranks[v]]
        colors[v] = _smallest_absent(colors[earlier])
        work += 1 + int(nbrs.size)
    machine.charge(work, depth=work, parallel=False, tag="sequential")
    stats = stats_from_machine("coloring/sequential", n, graph.num_edges, machine,
                               steps=n, rounds=n)
    return colors, stats


def parallel_greedy_coloring(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, RunStats]:
    """Jones–Plassmann peel: color all ready vertices each step.

    A vertex is *ready* when every earlier neighbor is colored.  Returns
    the identical coloring to :func:`sequential_greedy_coloring` for the
    same *ranks*; ``stats.steps`` equals the priority DAG's longest path.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    if machine is None:
        machine = Machine()
    colors = np.full(n, -1, dtype=np.int64)
    offsets, neighbors = graph.offsets, graph.neighbors
    # Remaining-earlier-neighbor counts drive readiness.
    src, dst = graph.arcs()
    earlier_arc = ranks[dst] < ranks[src]
    pending = np.bincount(src[earlier_arc], minlength=n).astype(np.int64, copy=False)
    ready = np.nonzero(pending == 0)[0].astype(np.int64)
    machine.charge(n + src.size, log2_depth(max(n, 2)), tag="init")
    steps = 0
    machine.begin_round()
    colored = 0
    while ready.size:
        steps += 1
        step_work = int(ready.size)
        # Color each ready vertex from its (already final) earlier nbrs.
        for v in ready.tolist():
            nbrs = neighbors[offsets[v]:offsets[v + 1]]
            earlier = nbrs[ranks[nbrs] < ranks[v]]
            colors[v] = _smallest_absent(colors[earlier])
            step_work += int(nbrs.size)
        colored += int(ready.size)
        # Notify children; those reaching zero become the next frontier.
        c_src, c_dst = graph.gather(ready)
        later = ranks[c_dst] > ranks[c_src]
        children = c_dst[later]
        if children.size:
            np.subtract.at(pending, children, 1)
            candidates = sorted_unique(children)
            ready = candidates[(pending[candidates] == 0) & (colors[candidates] < 0)]
        else:
            ready = np.empty(0, dtype=np.int64)
        step_work += int(c_src.size)
        machine.charge(step_work, log2_depth(max(step_work, 2)), tag="jp-step")
    assert colored == n, f"coloring peel stalled: {colored}/{n} vertices colored"
    stats = stats_from_machine("coloring/parallel", n, graph.num_edges, machine,
                               steps=steps, rounds=1)
    return colors, stats


def is_proper_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff no edge is monochromatic and every vertex is colored."""
    colors = np.asarray(colors)
    if colors.shape != (graph.num_vertices,) or (colors < 0).any():
        return False
    src, dst = graph.arcs()
    return not bool(np.any(colors[src] == colors[dst]))
