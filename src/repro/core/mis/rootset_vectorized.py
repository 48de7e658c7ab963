"""Linear-work MIS via vectorized root-set frontiers (Lemma 4.2, bulk form).

The paper describes each step of the root-set traversal as a bulk
operation over the current root set — accept the roots, delete their
undecided neighbors, ``misCheck`` the children of deleted vertices.  This
engine executes exactly that step structure with the frontier kernels of
:mod:`repro.kernels` instead of per-edge Python loops:

* the roots' children are found with one segmented CSR gather per
  frontier (:func:`~repro.kernels.frontier_gather`);
* the ``misCheck`` pointer advance over the parent array is replaced by a
  per-vertex **undecided-parent count**: every newly deleted vertex
  retires one parent arc of each undecided child
  (:func:`~repro.kernels.decrement_counts`), and a count hitting zero is
  exactly a pointer reaching the end of the parent array — the vertex is
  a root of the next step;
* duplicate nominations collapse in the same bulk reduction, playing the
  role of Lemma 4.2's concurrent ownership write.

Consequently this engine makes the identical decisions in the identical
step as :func:`repro.core.mis.rootset.rootset_mis` — ``stats.steps`` is
the same dependence length, the status vector is bit-identical to
:func:`~repro.core.mis.sequential.sequential_greedy_mis` for the same π —
while running at numpy speed on the large workloads the pointer-level
transcription cannot reach.  Charged work remains ``O(n + m)``: every
gather slot, decrement, and accept is paid exactly once per retired arc
or decided vertex.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.kernels import (
    decrement_counts,
    frontier_gather,
    scatter_distinct,
    split_parents_children,
)
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import mis_guard
from repro.util.rng import SeedLike

__all__ = ["rootset_mis_vectorized"]


def rootset_mis_vectorized(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    use_cache: bool = True,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MISResult:
    """Run the Lemma 4.2 root-set algorithm on vectorized frontiers.

    ``result.stats.steps`` equals the dependence length (the same step
    structure as Algorithm 2 and as the pointer-level
    :func:`~repro.core.mis.rootset.rootset_mis`); total charged work is
    ``O(n + m)``.  Set ``use_cache=False`` to bypass the memoized
    parent/child partition (accounting is identical either way).
    ``guards`` enables per-round invariant checks (``off|cheap|full``);
    ``budget`` meters one step per frontier round.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    guard = mis_guard(guards, graph, ranks, "mis/rootset-vec")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mis/rootset-vec", n, graph.num_edges, machine=machine)

    p_off, _, c_off, c_nbr = split_parents_children(
        graph, ranks, machine=machine, use_cache=use_cache
    )
    status = new_vertex_status(n)
    # Undecided-parent counts: the vectorized misCheck cursor state.
    pcount = np.diff(p_off)
    roots = np.flatnonzero(pcount == 0).astype(np.int64, copy=False)
    machine.charge(n, log2_depth(max(n, 2)), tag="init-roots")

    steps = 0
    while roots.size:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_roots(status, roots)
        # Accept this step's roots.
        status[roots] = IN_SET
        machine.charge(roots.size, log2_depth(max(int(roots.size), 2)), tag="accept")
        # Delete their undecided neighbors (children only: a root has no
        # undecided parents by definition).  Duplicates collapse via the
        # arbitrary-concurrent-write of Lemma 4.2.
        _, cand = frontier_gather(
            c_off, c_nbr, roots, machine, tag="knock-gather", need_owner=False
        )
        knocked = scatter_distinct(cand[status[cand] == UNDECIDED], n)
        status[knocked] = KNOCKED_OUT
        machine.charge(
            knocked.size, log2_depth(max(int(knocked.size), 2)), tag="knockout"
        )
        # Each deletion retires one parent arc of every undecided child;
        # counts hitting zero are the next step's roots (misCheck at end).
        # Decided children receive spurious decrements, but their counts no
        # longer matter: filtering the (much smaller) zero set by status is
        # cheaper than filtering the full target stream, and undecided
        # counts only ever see genuine parent-arc retirements either way.
        _, targets = frontier_gather(
            c_off, c_nbr, knocked, machine, tag="mischeck-gather", need_owner=False
        )
        next_roots = decrement_counts(pcount, targets, machine, tag="mischeck")
        next_roots = next_roots[status[next_roots] == UNDECIDED]
        if guard is not None:
            guard.check_step(status, roots, knocked)
        if tracer is not None:
            tracer.round(
                frontier=int(roots.size),
                decided=int(roots.size) + int(knocked.size),
                selected=int(roots.size),
                tag="rootset-step",
            )
        roots = next_roots
        steps += 1

    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mis/rootset-vec", n, graph.num_edges, machine, steps=steps, rounds=1
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
