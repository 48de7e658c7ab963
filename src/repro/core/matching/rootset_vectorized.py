"""Linear-work maximal matching via vectorized sorted-incidence frontiers.

The bulk-synchronous twin of :mod:`repro.core.matching.rootset`: each step
of Lemma 5.3's algorithm — match the ready set, lazily delete the matched
vertices' remaining edges, ``mmcheck`` the far endpoints — is a bulk
operation over a frontier, executed here with the kernels of
:mod:`repro.kernels`:

* the incidence index comes from the shared memoized builder
  (:func:`~repro.kernels.rank_sorted_incidence`, the lemma's linear-work
  bucket sort);
* ``mmcheck`` phase 1 (skip deleted edges) is the bulk lazy-deletion
  cursor advance :func:`~repro.kernels.advance_cursors`, whose charged
  work is one unit per permanently retired slot — Lemma 5.2's
  amortization;
* phase 2 (is my top edge also my partner's top?) is one vectorized
  compare after advancing the partners' cursors;
* the per-step ready set is deduplicated with an edge stamp
  (:func:`~repro.kernels.stamp_dedup`), the concurrent ownership write.

The engine makes the identical decisions in the identical step as the
pointer-level engine: ``stats.steps`` is the same dependence length and
the matched edge set is bit-identical to
:func:`~repro.core.matching.sequential.sequential_greedy_matching` for the
same π.  Charged work remains ``O(n + m)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.kernels import (
    advance_cursors,
    range_gather,
    rank_sorted_incidence,
    scatter_distinct,
    stamp_dedup,
)
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import matching_guard
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike

__all__ = ["rootset_matching_vectorized"]

_EMPTY = np.empty(0, dtype=np.int64)


def rootset_matching_vectorized(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    use_cache: bool = True,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MatchingResult:
    """Run the Lemma 5.3 algorithm on vectorized frontiers.

    ``result.stats.steps`` equals the dependence length of Algorithm 4
    (same step structure as the pointer-level
    :func:`~repro.core.matching.rootset.rootset_matching`); total charged
    work is ``O(n + m)``.  Set ``use_cache=False`` to bypass the memoized
    incidence index (accounting is identical either way).  ``guards``
    enables per-round invariant checks (``off|cheap|full``); ``budget``
    meters one step per frontier round.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    ranks = validate_priorities(ranks, m)
    guard = matching_guard(guards, edges, ranks, "mm/rootset-vec")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mm/rootset-vec", n, m, machine=machine)

    inc_off, inc_eids = rank_sorted_incidence(
        edges, ranks, machine=machine, use_cache=use_cache
    )
    inc_end = inc_off[1:]
    cursors = inc_off[:-1].copy()  # writable per-vertex cursor array
    status = new_edge_status(m)
    v_matched = np.zeros(n, dtype=bool)
    estamp = np.full(m, -1, dtype=np.int64)
    eu, ev = edges.u, edges.v
    # Endpoint-sum table: the far endpoint of edge e seen from vertex w is
    # euv[e] - w, one gather instead of two.
    euv = eu + ev

    def mmcheck(cand: np.ndarray, step_id: int) -> np.ndarray:
        """Ready edges among *cand* (unique, unmatched vertices)."""
        if cand.size == 0:
            return _EMPTY
        # Phase 1: advance each candidate's cursor past deleted edges.
        advance_cursors(
            cursors, inc_end, inc_eids, status, EDGE_LIVE, cand, machine,
            tag="mm-cursor",
        )
        cur = cursors[cand]
        has_top = cur < inc_end[cand]
        vtop = cand[has_top]
        machine.charge(cand.size, log2_depth(max(int(cand.size), 2)), tag="mm-check")
        if vtop.size == 0:
            return _EMPTY
        tops = inc_eids[cur[has_top]]
        others = euv[tops] - vtop
        # Phase 2: advance the partners' cursors and compare tops.  The
        # cursor kernel requires a duplicate-free frontier (several
        # candidates may share a partner).
        advance_cursors(
            cursors, inc_end, inc_eids, status, EDGE_LIVE,
            scatter_distinct(others, n), machine, tag="mm-cursor",
        )
        ocur = cursors[others]
        on_top = np.zeros(vtop.size, dtype=bool)
        in_range = np.flatnonzero(ocur < inc_end[others])
        if in_range.size:
            on_top[in_range] = inc_eids[ocur[in_range]] == tops[in_range]
        machine.charge(vtop.size, log2_depth(max(int(vtop.size), 2)), tag="mm-check")
        # Both endpoints may nominate the same edge: stamp-dedup per step.
        return stamp_dedup(
            tops[on_top], estamp, step_id, machine, tag="mm-ready-dedup"
        )

    # Initial ready set: one mmcheck per vertex.
    ready = mmcheck(np.arange(n, dtype=np.int64), 0)

    steps = 0
    while ready.size:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_ready(status, ready, v_matched)
        # Match the ready set (no two ready edges share an endpoint).
        status[ready] = EDGE_MATCHED
        a, b = eu[ready], ev[ready]
        v_matched[a] = True
        v_matched[b] = True
        machine.charge(
            ready.size, log2_depth(max(int(ready.size), 2)), tag="mm-match"
        )
        # Lazily delete every remaining edge incident on a matched vertex,
        # scanning from each cursor (the prefix before it is already dead).
        endpoints = np.concatenate([a, b])
        owner, scanned = range_gather(
            cursors, inc_end, inc_eids, endpoints, machine, tag="mm-kill-gather"
        )
        live = status[scanned] == EDGE_LIVE
        killed, far_owner = scanned[live], owner[live]
        status[killed] = EDGE_DEAD
        machine.charge(
            killed.size, log2_depth(max(int(killed.size), 2)), tag="mm-kill"
        )
        # Each deleted edge nominates its far endpoint for mmcheck.
        far = euv[killed] - far_owner
        cand = scatter_distinct(far[~v_matched[far]], n)
        if guard is not None:
            # An edge incident on two same-step matches is scanned (and
            # killed) once from each endpoint, so repeats are legitimate.
            guard.check_step(status, ready, killed, killed_distinct=False)
        steps += 1
        if tracer is not None:
            # An edge incident on two same-step matches appears twice in
            # the kill stream; count it once.
            tracer.round(
                frontier=int(ready.size),
                decided=int(ready.size) + int(sorted_unique(killed).size),
                selected=int(ready.size),
                tag="mm-step",
            )
        ready = mmcheck(cand, steps)

    # Any edge never scanned ends dead (its endpoints matched elsewhere).
    status[status == EDGE_LIVE] = EDGE_DEAD
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mm/rootset-vec", n, m, machine, steps=steps, rounds=1
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MatchingResult(
        status=status,
        edge_u=edges.u,
        edge_v=edges.v,
        ranks=ranks,
        stats=stats,
        machine=machine,
    )
