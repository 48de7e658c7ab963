"""Arbitrary dependence-respecting schedules for maximal matching.

The matching analogue of :mod:`repro.core.mis.scheduled`: an edge is
*decidable* the moment its fate is forced —

* one of its endpoints is already matched -> it must die, or
* it is the highest-priority live edge at **both** endpoints among edges
  whose earlier adjacent edges are all decided... more precisely: every
  adjacent edge with higher priority is decided (necessarily dead, or this
  edge would already be dead) -> it must match.

``randomly_scheduled_matching`` repeatedly decides a uniformly random
decidable edge; the result equals the lexicographically-first matching for
every schedule seed.  Test/demo engine: O(m·(m_adjacency)) worst case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.pram.machine import Machine
from repro.util.rng import SeedLike, as_generator

__all__ = ["randomly_scheduled_matching"]


def randomly_scheduled_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    schedule_seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> MatchingResult:
    """Decide edges one at a time in a random dependence-respecting order.

    Any *schedule_seed* yields the identical (lex-first) matching for the
    given *ranks*.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    if machine is None:
        machine = Machine()
    rng = as_generator(schedule_seed)

    status = new_edge_status(m)
    matched_v = np.zeros(n, dtype=bool)
    inc_off, inc_eids = edges.incidence()
    eu, ev = edges.u, edges.v
    work = 0
    decided = 0
    machine.begin_round()
    while decided < m:
        live = np.nonzero(status == EDGE_LIVE)[0]
        decidable = []
        forced_dead = {}
        for e in live.tolist():
            a, b = int(eu[e]), int(ev[e])
            work += 1
            if matched_v[a] or matched_v[b]:
                decidable.append(e)
                forced_dead[e] = True
                continue
            # Every earlier adjacent edge must be decided for e to match.
            blocked = False
            for w in (a, b):
                adj = inc_eids[inc_off[w]:inc_off[w + 1]]
                earlier = adj[ranks[adj] < ranks[e]]
                work += int(adj.size)
                if earlier.size and bool((status[earlier] == EDGE_LIVE).any()):
                    blocked = True
                    break
            if not blocked:
                decidable.append(e)
                forced_dead[e] = False
        assert decidable, "no decidable edge although live edges remain"
        e = int(rng.choice(decidable))
        if forced_dead[e]:
            status[e] = EDGE_DEAD
        else:
            status[e] = EDGE_MATCHED
            matched_v[eu[e]] = True
            matched_v[ev[e]] = True
        decided += 1
    machine.charge(max(work, 1), depth=max(work, 1), parallel=False, tag="scheduled")
    stats = stats_from_machine(
        "mm/scheduled", n, m, machine, steps=m, rounds=m
    )
    return MatchingResult(
        status=status, edge_u=eu, edge_v=ev, ranks=ranks,
        stats=stats, machine=machine,
    )
