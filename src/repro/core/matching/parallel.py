"""Algorithm 4: step-synchronous parallel greedy maximal matching.

Each step matches every live edge that has the minimum rank on *both* of
its endpoints (no earlier live adjacent edge), then kills every live edge
sharing an endpoint with a match.  The step count is the dependence length
of the edge priority DAG, which Lemma 5.1 bounds by ``O(log^2 m)`` w.h.p.
via the line-graph reduction to Theorem 3.5.

Root detection is two concurrent-min scatters (one per endpoint column):
an edge is a root iff its own rank survives as the minimum at both ends.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.util.rng import SeedLike

__all__ = ["parallel_greedy_matching"]


def parallel_greedy_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MatchingResult:
    """Run Algorithm 4; ``result.stats.steps`` is the dependence length.

    Returns the same matching as the sequential engine for the same
    *ranks* (the MM determinism property).
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()

    if tracer is not None:
        tracer.begin_run("mm/parallel", n, m, machine=machine)

    status = new_edge_status(m)
    live = np.arange(m, dtype=np.int64)
    eu = edges.u
    ev = edges.v
    min_at = np.full(n, m, dtype=np.int64)
    matched_v = np.zeros(n, dtype=bool)
    steps = 0
    item_exams = 0
    machine.begin_round()
    while live.size:
        if budget is not None:
            budget.spend_steps()
        item_exams += int(live.size)
        lu = eu[live]
        lv = ev[live]
        lr = ranks[live]
        min_at[lu] = m
        min_at[lv] = m
        np.minimum.at(min_at, lu, lr)
        np.minimum.at(min_at, lv, lr)
        winners = live[(min_at[lu] == lr) & (min_at[lv] == lr)]
        status[winners] = EDGE_MATCHED
        matched_v[eu[winners]] = True
        matched_v[ev[winners]] = True
        machine.charge(
            3 * live.size + winners.size,
            log2_depth(max(int(live.size), 2)),
            tag="mm-peel",
        )
        steps += 1
        # Kill neighbors of matches, keep the rest.
        alive_mask = (status[live] == EDGE_LIVE)
        touched = matched_v[lu] | matched_v[lv]
        dead = live[alive_mask & touched]
        status[dead] = EDGE_DEAD
        if tracer is not None:
            tracer.round(
                frontier=int(live.size),
                decided=int(winners.size) + int(dead.size),
                selected=int(winners.size),
                tag="mm-peel",
            )
        live = live[alive_mask & ~touched]
    stats = stats_from_machine(
        "mm/parallel", n, m, machine, steps=steps, rounds=1,
        aux={"slot_scans": 0, "item_examinations": item_exams},
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
