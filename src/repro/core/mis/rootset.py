"""Linear-work MIS via explicit root sets (Lemmas 4.1 and 4.2).

A faithful, pointer-level transcription of the paper's first linear-work
implementation:

* each vertex's neighbor list is pre-partitioned into **parents** (earlier
  in π) and **children** (later);
* deletion is lazy — a decided vertex is only marked, never removed from
  its neighbors' lists;
* ``misCheck(v)`` advances a per-vertex pointer over the parent array past
  decided parents, charging each advance to the edge it retires
  (Lemma 4.1's amortization), so the total across the run is ``O(m)``;
* duplicate candidates in a step are suppressed with a stamp array, the
  sequential stand-in for the arbitrary-concurrent-write ownership trick
  of Lemma 4.2.

This engine is deliberately written with explicit Python loops — it is the
specification-fidelity implementation, used at moderate scale and as the
work-accounting gold standard (its charged work must be ``O(n + m)``, which
the test suite asserts).  Its bulk-synchronous twin,
:mod:`repro.core.mis.rootset_vectorized`, executes the identical step
structure on the frontier kernels of :mod:`repro.kernels` and is the one
used on the large workloads.  The parent/child partition is the shared
memoized builder :func:`repro.kernels.split_parents_children` (re-exported
here for backward compatibility).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.kernels import split_parents_children
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import mis_guard
from repro.util.rng import SeedLike

__all__ = ["rootset_mis", "split_parents_children"]


def rootset_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MISResult:
    """Run the Lemma 4.2 root-set algorithm; total work is ``O(n + m)``.

    ``result.stats.steps`` equals the dependence length (the same step
    structure as Algorithm 2: each step processes exactly the current
    priority-DAG roots).  ``guards`` enables per-round invariant checks
    (``off|cheap|full``; on this pointer engine each check snapshots the
    list-typed status, adding ``O(n)`` per round, so guards here are a
    debugging aid rather than a production mode).  ``budget`` meters one
    step per frontier round.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    guard = mis_guard(guards, graph, ranks, "mis/rootset")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mis/rootset", n, graph.num_edges, machine=machine)

    p_off, p_nbr, c_off, c_nbr = split_parents_children(graph, ranks, machine=machine)

    status = new_vertex_status(n)
    ptr = p_off[:-1].copy()  # per-vertex cursor into the parent array

    # Lists for the Python hot loop (faster element access than ndarray).
    p_off_l = p_off.tolist()
    p_nbr_l = p_nbr.tolist()
    c_off_l = c_off.tolist()
    c_nbr_l = c_nbr.tolist()
    ptr_l = ptr.tolist()
    status_l = [UNDECIDED] * n

    stamp = [-1] * n
    roots: List[int] = [v for v in range(n) if p_off_l[v] == p_off_l[v + 1]]
    machine.charge(n, log2_depth(max(n, 2)), tag="init-roots")

    steps = 0
    while roots:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_roots(
                np.array(status_l, dtype=np.int8), np.array(roots, dtype=np.int64)
            )
        step_work = 0
        step_id = steps
        # Accept this step's roots.
        for r in roots:
            status_l[r] = IN_SET
            step_work += 1
        # Delete their undecided neighbors (children only: a root has no
        # undecided parents by definition).
        knocked: List[int] = []
        for r in roots:
            for c in c_nbr_l[c_off_l[r]:c_off_l[r + 1]]:
                step_work += 1
                if status_l[c] == UNDECIDED:
                    status_l[c] = KNOCKED_OUT
                    knocked.append(c)
        # Each deletion may unblock the deleted vertex's children: misCheck
        # them, deduplicating via the stamp (ownership write of Lemma 4.2).
        next_roots: List[int] = []
        for d in knocked:
            for w in c_nbr_l[c_off_l[d]:c_off_l[d + 1]]:
                step_work += 1
                if status_l[w] != UNDECIDED or stamp[w] == step_id:
                    continue
                stamp[w] = step_id
                # misCheck(w): advance past decided parents, charging each
                # advance to the edge it permanently retires.
                p = ptr_l[w]
                end = p_off_l[w + 1]
                while p < end and status_l[p_nbr_l[p]] != UNDECIDED:
                    p += 1
                    step_work += 1
                ptr_l[w] = p
                step_work += 1  # the terminating check itself
                if p == end:
                    next_roots.append(w)
        machine.charge(step_work, log2_depth(max(len(roots), 2)), tag="rootset-step")
        if guard is not None:
            guard.check_step(
                np.array(status_l, dtype=np.int8),
                np.array(roots, dtype=np.int64),
                np.array(knocked, dtype=np.int64),
            )
        steps += 1
        if tracer is not None:
            tracer.round(
                frontier=len(roots),
                decided=len(roots) + len(knocked),
                selected=len(roots),
                tag="rootset-step",
            )
        roots = next_roots

    status = np.array(status_l, dtype=status.dtype)
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mis/rootset", n, graph.num_edges, machine, steps=steps, rounds=1
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
