"""Algorithm 1: the sequential greedy MIS.

Processes vertices in increasing rank; a vertex still undecided at its turn
enters the set and knocks out its neighbors.  The output is the
*lexicographically first* MIS with respect to π — the reference answer every
parallel engine must reproduce.

Work accounting (the paper's sequential baseline in Figures 1a/1d): one
operation per vertex visited, plus one per neighbor scanned when a vertex
enters the set.  The trace is a single non-parallel step, so the scheduler
costs it at single-processor speed for every ``P`` (the flat "serial MIS"
lines of Figure 3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    scatter_by_priority,
)
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.pram.machine import Machine
from repro.robustness.budget import Budget
from repro.util.rng import SeedLike

__all__ = ["sequential_greedy_mis"]

# Sequential engines spend their budget in chunks of this many vertices so
# enforcement stays out of the per-item hot loop.
_BUDGET_CHUNK = 2048


def sequential_greedy_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MISResult:
    """Run Algorithm 1 and return the lexicographically-first MIS.

    Parameters
    ----------
    graph:
        Simple undirected graph.
    ranks:
        Priority array (item → position); generated uniformly at random
        from *seed* when omitted.
    seed:
        Used only when *ranks* is omitted.
    machine:
        Work--depth machine to charge; a fresh one is created if omitted.
    budget:
        Optional :class:`~repro.robustness.Budget`; one step is spent per
        vertex visited, enforced every ``2048`` vertices.
    tracer:
        Optional :class:`~repro.observability.Tracer`; emits one round
        event per vertex visited (``frontier=1``, matching
        ``stats.steps == n``) with exact per-step work.

    Examples
    --------
    >>> from repro.graphs.generators import path_graph
    >>> import numpy as np
    >>> r = sequential_greedy_mis(path_graph(4), np.array([0, 1, 2, 3]))
    >>> r.vertices.tolist()
    [0, 2]
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
        perm = permutation_from_ranks(ranks)
    else:
        ranks, perm = scatter_by_priority(ranks, n)
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()

    if tracer is not None:
        tracer.begin_run("mis/sequential", n, graph.num_edges, machine=machine)

    status = new_vertex_status(n)
    offsets = graph.offsets
    neighbors = graph.neighbors
    work = 0
    visited = 0
    machine.begin_round()
    # Hot loop: plain Python over vertices, numpy slices per accepted
    # vertex.  Skipped vertices cost O(1); the total is n + sum of accepted
    # degrees — exactly the paper's sequential work.
    for v in perm.tolist():
        work += 1
        visited += 1
        if budget is not None and visited % _BUDGET_CHUNK == 0:
            budget.spend_steps(_BUDGET_CHUNK)
        if status[v] != UNDECIDED:
            if tracer is not None:
                tracer.round(frontier=1, decided=0, selected=0, work=1, depth=1)
            continue
        status[v] = IN_SET
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        if tracer is not None:
            knocked = int(np.count_nonzero(status[nbrs] == UNDECIDED))
            tracer.round(
                frontier=1, decided=1 + knocked, selected=1,
                work=1 + int(nbrs.size), depth=1 + int(nbrs.size),
            )
        work += nbrs.size
        status[nbrs] = KNOCKED_OUT
    if budget is not None and visited % _BUDGET_CHUNK:
        budget.spend_steps(visited % _BUDGET_CHUNK)
    machine.charge(work, depth=work, parallel=False, tag="sequential")
    stats = stats_from_machine(
        "mis/sequential", n, graph.num_edges, machine, steps=n, rounds=n,
        aux={"slot_scans": n, "item_examinations": 0},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
