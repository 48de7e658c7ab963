"""Arbitrary dependence-respecting schedules.

The strongest form of the paper's determinism claim: "the approach
guarantees the same result whether run in parallel or sequentially or, in
fact, **choosing any schedule of the iterations that respects the
dependences**" (Section 1).

This engine makes that statement executable.  At every moment a vertex is
*decidable* when its fate is already forced:

* some earlier neighbor is in the set  -> it must be knocked out, or
* every earlier neighbor is decided-out (or it has none) -> it must join.

``randomly_scheduled_mis`` repeatedly picks a uniformly random decidable
vertex and decides it — a maximally adversarial asynchronous schedule —
and still produces the lexicographically-first MIS.  It is an
executable-proof engine, O(n·(n+m)) in the worst case, intended for tests
and demonstrations rather than large inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.graphs.csr import CSRGraph
from repro.pram.machine import Machine
from repro.util.rng import SeedLike, as_generator

__all__ = ["randomly_scheduled_mis"]


def randomly_scheduled_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    schedule_seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> MISResult:
    """Decide vertices one at a time in a random dependence-respecting order.

    Parameters
    ----------
    graph, ranks, seed, machine:
        As in the other engines; *ranks* (with *seed* as fallback) fixes
        the priority order whose lex-first MIS is produced.
    schedule_seed:
        Seeds the *schedule* — which decidable vertex goes next.  Any
        value yields the identical result; that is the point.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    if machine is None:
        machine = Machine()
    rng = as_generator(schedule_seed)

    status = new_vertex_status(n)
    offsets, neighbors = graph.offsets, graph.neighbors
    work = 0
    decided = 0
    machine.begin_round()
    while decided < n:
        undecided = np.nonzero(status == UNDECIDED)[0]
        # Classify every undecided vertex against its earlier neighbors.
        decidable = []
        forced_out = {}
        for v in undecided.tolist():
            nbrs = neighbors[offsets[v]:offsets[v + 1]]
            earlier = nbrs[ranks[nbrs] < ranks[v]]
            work += 1 + int(nbrs.size)
            if earlier.size and bool((status[earlier] == IN_SET).any()):
                decidable.append(v)
                forced_out[v] = True
            elif earlier.size == 0 or bool((status[earlier] == KNOCKED_OUT).all()):
                decidable.append(v)
                forced_out[v] = False
        assert decidable, "no decidable vertex although some remain undecided"
        v = int(rng.choice(decidable))
        status[v] = KNOCKED_OUT if forced_out[v] else IN_SET
        decided += 1
    machine.charge(max(work, 1), depth=max(work, 1), parallel=False, tag="scheduled")
    stats = stats_from_machine(
        "mis/scheduled", n, graph.num_edges, machine, steps=n, rounds=n
    )
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
