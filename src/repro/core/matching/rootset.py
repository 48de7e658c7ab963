"""Linear-work maximal matching via sorted incidence lists (Lemma 5.3).

The faithful transcription of the paper's second linear-work construction:

* each vertex keeps its incident edges **sorted by priority** (built with
  the linear-work bucket sort of :mod:`repro.pram.primitives`, as the
  lemma prescribes — random priorities make bucket sort linear);
* deletion is lazy (edges are only marked);
* ``mmcheck(v)`` advances the vertex's cursor past deleted edges to find
  its highest-priority remaining edge (phase 1), then asks whether that
  edge is also on top at its other endpoint (phase 2) — "a vertex can have
  at most one ready incident edge";
* each step matches the ready set, marks neighborhoods deleted, and
  mmchecks the far endpoints of deleted edges to build the next ready set.

Like :mod:`repro.core.mis.rootset`, this engine is loop-level faithful
rather than vectorized; its charged work must be ``O(n + m)``, asserted by
the tests.  Its bulk-synchronous twin,
:mod:`repro.core.matching.rootset_vectorized`, runs the identical step
structure on the frontier kernels; both share the memoized incidence
builder :func:`repro.kernels.rank_sorted_incidence`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.kernels import rank_sorted_incidence
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import matching_guard
from repro.util.rng import SeedLike

__all__ = ["rootset_matching"]


def rootset_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MatchingResult:
    """Run the Lemma 5.3 algorithm; total charged work is ``O(n + m)``.

    ``result.stats.steps`` equals the dependence length of Algorithm 4.
    ``guards`` enables per-round invariant checks (``off|cheap|full``; on
    this pointer engine each check snapshots the list-typed status, adding
    ``O(m)`` per round, so guards here are a debugging aid rather than a
    production mode).  ``budget`` meters one step per frontier round.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    guard = matching_guard(guards, edges, ranks, "mm/rootset")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mm/rootset", n, m, machine=machine)

    # Per-vertex incidence lists ordered by edge priority (the lemma's
    # bucket sort), from the shared memoized builder.
    inc_off, inc_eids = rank_sorted_incidence(edges, ranks, machine=machine)

    status = new_edge_status(m)
    status_l = [EDGE_LIVE] * m
    inc_off_l = inc_off.tolist()
    inc_l = inc_eids.tolist()
    eu_l = edges.u.tolist()
    ev_l = edges.v.tolist()
    ptr = inc_off[:-1].copy().tolist()
    v_matched = [False] * n
    work_box = [0]

    def mmcheck(v: int) -> int:
        """Return v's ready edge id, or -1; advances v's cursor (phase 1)
        and peeks the partner's top (phase 2)."""
        if v_matched[v]:
            return -1
        p = ptr[v]
        end = inc_off_l[v + 1]
        w = 0
        while p < end and status_l[inc_l[p]] != EDGE_LIVE:
            p += 1
            w += 1
        ptr[v] = p
        w += 1
        work_box[0] += w
        if p == end:
            return -1
        e = inc_l[p]
        other = ev_l[e] if eu_l[e] == v else eu_l[e]
        # Phase 2: advance the partner cursor and compare tops.
        q = ptr[other]
        oend = inc_off_l[other + 1]
        w2 = 0
        while q < oend and status_l[inc_l[q]] != EDGE_LIVE:
            q += 1
            w2 += 1
        ptr[other] = q
        work_box[0] += w2 + 1
        if q < oend and inc_l[q] == e:
            return e
        return -1

    # Initial ready set: one mmcheck per vertex, deduplicated.
    ready: List[int] = []
    seen = [False] * m
    for v in range(n):
        e = mmcheck(v)
        if e >= 0 and not seen[e]:
            seen[e] = True
            ready.append(e)
    machine.charge(work_box[0] + n, log2_depth(max(n, 2)), tag="mm-init")
    work_box[0] = 0

    steps = 0
    while ready:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_ready(
                np.array(status_l, dtype=np.int8),
                np.array(ready, dtype=np.int64),
                np.array(v_matched, dtype=bool),
            )
        candidates: List[int] = []
        killed: List[int] = []
        kill_count = 0
        for e in ready:
            a, b = eu_l[e], ev_l[e]
            status_l[e] = EDGE_MATCHED
            v_matched[a] = True
            v_matched[b] = True
            work_box[0] += 1
        for e in ready:
            for endpoint in (eu_l[e], ev_l[e]):
                for slot in range(ptr[endpoint], inc_off_l[endpoint + 1]):
                    f = inc_l[slot]
                    work_box[0] += 1
                    if status_l[f] != EDGE_LIVE:
                        continue
                    status_l[f] = EDGE_DEAD
                    kill_count += 1
                    if guard is not None:
                        killed.append(f)
                    far = ev_l[f] if eu_l[f] == endpoint else eu_l[f]
                    if not v_matched[far]:
                        candidates.append(far)
        next_ready: List[int] = []
        for v in candidates:
            e = mmcheck(v)
            if e >= 0 and not seen[e]:
                seen[e] = True
                next_ready.append(e)
        machine.charge(work_box[0], log2_depth(max(len(ready), 2)), tag="mm-step")
        work_box[0] = 0
        if guard is not None:
            guard.check_step(
                np.array(status_l, dtype=np.int8),
                np.array(ready, dtype=np.int64),
                np.array(killed, dtype=np.int64),
            )
        steps += 1
        if tracer is not None:
            tracer.round(
                frontier=len(ready),
                decided=len(ready) + kill_count,
                selected=len(ready),
                tag="mm-step",
            )
        ready = next_ready

    status = np.array(status_l, dtype=status.dtype)
    # Any edge never scanned ends dead (its endpoints matched elsewhere).
    status[status == EDGE_LIVE] = EDGE_DEAD
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mm/rootset", n, m, machine, steps=steps, rounds=1
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
