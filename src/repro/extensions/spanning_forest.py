"""Greedy spanning forest under a fixed random edge order.

Sequential rule (Kruskal without weights): process edges by rank; accept an
edge iff its endpoints are in different components.  The step-synchronous
parallelization follows the deterministic-reservations pattern of the
authors' PBBS suite: each step, every live edge write-mins its rank onto
both of its endpoints' component roots; an edge that *owns* (holds the
minimum at) at least one of its roots commits — the owned root is linked
under the other side.  An edge whose endpoints share a component dies.

Why this is safe and sequential-equivalent:

* **No cycles.**  Along any would-be cycle of links ``r1→r2→…→r1``, the
  edge linking ``r_i`` owns ``r_i`` but also wrote at ``r_{i+1}``, whose
  owner therefore has strictly smaller rank — ranks strictly decrease
  around the cycle, a contradiction.
* **Lex-first result.**  By strong induction on rank: while an edge *e* is
  live with distinct components, the first still-undecided earlier edge on
  any earlier-accepted path between its endpoints touches one of *e*'s
  components and out-bids *e* there, and no *later* edge can merge *e*'s
  two components (it would have to own a root *e* wrote at).  So *e* is
  decided against exactly the sequential component structure.

The one-sided rule is what lets a hub component (think star graphs) accept
many leaf edges in one step instead of one per step.
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
from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.machine import Machine, log2_depth
from repro.util.rng import SeedLike

__all__ = [
    "sequential_spanning_forest",
    "parallel_spanning_forest",
    "is_spanning_forest",
]


class _UnionFind:
    """Array union-find with path halving; used by both engines."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # Deterministic orientation: larger root under smaller.
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True


def sequential_spanning_forest(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, RunStats]:
    """Greedy forest in rank order; returns ``(accepted_mask, stats)``."""
    m = edges.num_edges
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    if machine is None:
        machine = Machine()
    uf = _UnionFind(edges.num_vertices)
    accepted = np.zeros(m, dtype=bool)
    eu, ev = edges.u, edges.v
    work = 0
    machine.begin_round()
    for e in permutation_from_ranks(ranks).tolist():
        work += 1
        if uf.union(int(eu[e]), int(ev[e])):
            accepted[e] = True
    machine.charge(work, depth=work, parallel=False, tag="sequential")
    stats = stats_from_machine("forest/sequential", edges.num_vertices, m, machine,
                               steps=m, rounds=m)
    return accepted, stats


def parallel_spanning_forest(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, RunStats]:
    """Step-synchronous commit; identical forest to the sequential engine.

    ``stats.steps`` is the number of commit rounds — the forest analogue of
    the dependence length the benches track across graph families.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    if machine is None:
        machine = Machine()
    parent = np.arange(n, dtype=np.int64)
    accepted = np.zeros(m, dtype=bool)
    live = np.arange(m, dtype=np.int64)
    eu, ev = edges.u, edges.v
    min_at = np.full(n, m, dtype=np.int64)
    steps = 0
    machine.begin_round()
    while live.size:
        steps += 1
        # Fully compress the component forest by pointer jumping (depth
        # halves per sweep, so O(log n) sweeps of O(n) vectorized work).
        while True:
            gp = parent[parent]
            if np.array_equal(gp, parent):
                break
            parent = gp
        ru = parent[eu[live]]
        rv = parent[ev[live]]
        same = ru == rv
        live_now = live[~same]
        ru, rv = ru[~same], rv[~same]
        lr = ranks[live_now]
        if live_now.size:
            touched = np.concatenate([ru, rv])
            min_at[touched] = m
            np.minimum.at(min_at, ru, lr)
            np.minimum.at(min_at, rv, lr)
        own_u = min_at[ru] == lr
        own_v = min_at[rv] == lr
        winners_mask = own_u | own_v
        # Ownership is exclusive per root (write-min of distinct ranks),
        # so the scatter-writes below never collide.
        both = own_u & own_v
        hi = np.maximum(ru[both], rv[both])
        lo = np.minimum(ru[both], rv[both])
        parent[hi] = lo
        only_u = own_u & ~own_v
        parent[ru[only_u]] = rv[only_u]
        only_v = own_v & ~own_u
        parent[rv[only_v]] = ru[only_v]
        accepted[live_now[winners_mask]] = True
        machine.charge(
            3 * live.size + int(np.count_nonzero(winners_mask)),
            log2_depth(max(int(live.size), 2)),
            tag="forest-step",
        )
        live = live_now[~winners_mask]
    stats = stats_from_machine("forest/parallel", n, m, machine,
                               steps=steps, rounds=1)
    return accepted, stats


def is_spanning_forest(edges: EdgeList, accepted: np.ndarray) -> bool:
    """True iff *accepted* is acyclic and spans every component.

    Checked by counting: a forest on the graph's components has exactly
    ``n - #components`` edges, and acyclicity follows if unioning the
    accepted edges never finds a cycle.
    """
    accepted = np.asarray(accepted, dtype=bool)
    if accepted.shape != (edges.num_edges,):
        return False
    uf = _UnionFind(edges.num_vertices)
    for e in np.nonzero(accepted)[0].tolist():
        if not uf.union(int(edges.u[e]), int(edges.v[e])):
            return False  # cycle
    # Spanning: every edge's endpoints must be connected in the forest.
    for e in range(edges.num_edges):
        if uf.find(int(edges.u[e])) != uf.find(int(edges.v[e])):
            return False
    return True
