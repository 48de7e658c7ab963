"""Sequential greedy maximal matching.

"The efficient (linear time) sequential greedy algorithm goes through the
edges in an arbitrary order adding an edge if no adjacent edge has already
been added" — equivalently, if both endpoints are still free.  The output
is the lexicographically-first matching for the edge order π.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    scatter_by_priority,
)
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.pram.machine import Machine
from repro.robustness.budget import Budget
from repro.util.rng import SeedLike

__all__ = ["sequential_greedy_matching"]

# Budget enforcement granularity for the per-edge hot loop.
_BUDGET_CHUNK = 2048


def sequential_greedy_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MatchingResult:
    """Greedy matching over edges in increasing rank.

    Work: one operation per edge visited plus one per endpoint update —
    the sequential baseline of Figures 2 and 4.

    Examples
    --------
    >>> from repro.graphs.generators import path_graph
    >>> import numpy as np
    >>> el = path_graph(4).edge_list()
    >>> r = sequential_greedy_matching(el, np.arange(el.num_edges))
    >>> r.size   # edges (0,1) and (2,3)
    2
    """
    m = edges.num_edges
    if ranks is None:
        ranks = random_priorities(m, seed)
        perm = permutation_from_ranks(ranks)
    else:
        ranks, perm = scatter_by_priority(ranks, m)
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()

    if tracer is not None:
        tracer.begin_run(
            "mm/sequential", edges.num_vertices, m, machine=machine
        )

    status = new_edge_status(m)
    matched_v = np.zeros(edges.num_vertices, dtype=bool)
    eu = edges.u
    ev = edges.v
    work = 0
    visited = 0
    machine.begin_round()
    for e in perm.tolist():
        work += 1
        visited += 1
        if budget is not None and visited % _BUDGET_CHUNK == 0:
            budget.spend_steps(_BUDGET_CHUNK)
        a, b = eu[e], ev[e]
        if matched_v[a] or matched_v[b]:
            status[e] = EDGE_DEAD
            if tracer is not None:
                tracer.round(frontier=1, decided=1, selected=0, work=1, depth=1)
            continue
        status[e] = EDGE_MATCHED
        matched_v[a] = True
        matched_v[b] = True
        work += 2
        if tracer is not None:
            tracer.round(frontier=1, decided=1, selected=1, work=3, depth=3)
    if budget is not None and visited % _BUDGET_CHUNK:
        budget.spend_steps(visited % _BUDGET_CHUNK)
    machine.charge(work, depth=work, parallel=False, tag="sequential")
    stats = stats_from_machine(
        "mm/sequential", edges.num_vertices, m, machine, steps=m, rounds=m,
        aux={"slot_scans": m, "item_examinations": 0},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MatchingResult(
        status=status,
        edge_u=eu,
        edge_v=ev,
        ranks=ranks,
        stats=stats,
        machine=machine,
    )
