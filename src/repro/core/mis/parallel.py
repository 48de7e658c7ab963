"""Algorithm 2: step-synchronous parallel greedy MIS.

Each synchronous step accepts every still-undecided vertex with no
still-undecided *earlier* neighbor (the roots of the remaining priority
DAG) and knocks out their neighbors.  The number of steps executed is, by
definition, the **dependence length** that Theorem 3.5 bounds by
``O(log Δ · log n)`` w.h.p. for random π.

The kernel is fully vectorized: live arcs are kept compacted, and root
detection is one concurrent-min scatter (every live arc writes its far
endpoint's rank onto its near endpoint) followed by a compare — the CRCW
idiom of the paper's implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.kernels import sorted_segment_min
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.util.rng import SeedLike

__all__ = ["parallel_greedy_mis"]


def parallel_greedy_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MISResult:
    """Run Algorithm 2; ``result.stats.steps`` is the dependence length.

    Returns the same set as :func:`repro.core.mis.sequential_greedy_mis`
    for the same *ranks* (proved by induction on priority order in §3 of
    the paper; asserted by the property-test suite here).

    Work charged per step: the live vertices examined plus the live arcs
    inspected — the "naive" implementation of §4 whose total is
    ``O(m · dependence length)`` in the worst case.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()

    if tracer is not None:
        tracer.begin_run("mis/parallel", n, graph.num_edges, machine=machine)

    status = new_vertex_status(n)
    live = np.arange(n, dtype=np.int64)
    src, dst = graph.arcs()
    # Persistent scratch: min rank among live neighbors; sentinel n beats
    # every real rank, so isolated-or-unblocked vertices become roots.
    min_nb = np.full(n, n, dtype=np.int64)
    steps = 0
    item_exams = 0
    machine.begin_round()
    while live.size:
        if budget is not None:
            budget.spend_steps()
        min_nb[live] = n
        # src stays sorted through compaction, so the concurrent-min
        # scatter is a contiguous segmented reduction; the kernel picks
        # the fastest formulation for the running numpy.
        sorted_segment_min(src, ranks[dst], min_nb)
        roots = live[ranks[live] < min_nb[live]]
        status[roots] = IN_SET
        # Knock out every live neighbor of a root: arcs out of roots.
        from_root = status[src] == IN_SET
        victims = dst[from_root]
        status[victims[status[victims] == UNDECIDED]] = KNOCKED_OUT
        item_exams += int(live.size)
        machine.charge(
            live.size + 2 * src.size,
            log2_depth(max(int(live.size), 2)),
            tag="peel",
        )
        steps += 1
        # Compact to the surviving subproblem.
        keep = (status[src] == UNDECIDED) & (status[dst] == UNDECIDED)
        src, dst = src[keep], dst[keep]
        frontier = live.size
        live = live[status[live] == UNDECIDED]
        if tracer is not None:
            tracer.round(
                frontier=frontier,
                decided=frontier - int(live.size),
                selected=int(roots.size),
                tag="peel",
            )
    stats = stats_from_machine(
        "mis/parallel", n, graph.num_edges, machine, steps=steps, rounds=1,
        aux={"slot_scans": 0, "item_examinations": item_exams},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
