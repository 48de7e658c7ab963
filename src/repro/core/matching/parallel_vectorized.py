"""Process-parallel maximal matching: multicore execution of Lemma 5.3.

The coordinator loop is byte-for-byte the one in
:mod:`repro.core.matching.rootset_vectorized` — match the ready set,
lazily delete the matched vertices' remaining edges, ``mmcheck`` the far
endpoints — but the step's dominant bulk operation, the **kill-scan**
(:func:`~repro.kernels.range_gather` from each matched endpoint's cursor
to its segment end), is split across N persistent shard workers:

* the rank-sorted incidence index ships once per ``(edges, π)`` into a
  memoized shared-memory bundle;
* the per-vertex lazy-deletion **cursor array lives in shared scratch**
  once the executor engages: the coordinator's ``advance_cursors``
  mutations write through the shared view, so workers read live cursor
  state at every barrier with zero copies (``mode="range"`` in the shard
  protocol);
* endpoints are chunked contiguously by remaining-slot mass into
  disjoint output ranges, so the concatenated shards equal the
  single-process gather exactly — the engine is **bit-identical** to
  ``rootset-vec`` (and so to sequential greedy) for fixed π, with the
  same charged (work, depth, steps);
* ``mmcheck`` cursor advances stay on the coordinator: their amortized
  work is one unit per permanently retired slot (Lemma 5.2), far below
  the fan-out break-even; scans under ``min_fanout`` slots likewise run
  locally;
* :class:`~repro.robustness.Budget` wall-clock limits propagate to the
  shard workers as absolute monotonic deadlines.

``stats.aux["parallel"]`` records worker count, per-worker slot split,
busy seconds, barrier wait, and fan-out versus local scan counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.executor import get_executor
from repro.core.fanout import (
    DEFAULT_MIN_FANOUT,
    FanoutStats,
    budget_deadline,
    bundle_digest,
    charge_gather,
    reraise_deadline,
    resolve_workers,
)
from repro.core.orderings import random_priorities, validate_priorities
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.errors import DeadlineExceededError
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

__all__ = ["parallel_matching_vectorized"]

_EMPTY = np.empty(0, dtype=np.int64)


def parallel_matching_vectorized(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    use_cache: bool = True,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
    workers: Optional[int] = None,
    min_fanout: Optional[int] = None,
) -> MatchingResult:
    """Run the Lemma 5.3 algorithm with process-parallel kill-scans.

    Bit-identical to :func:`~repro.core.matching.rootset_vectorized.
    rootset_matching_vectorized` for fixed π (same matched set, same
    charged work/depth/steps); the difference is wall-clock.  ``workers``
    resolves via :func:`~repro.core.fanout.resolve_workers`.  With one
    worker, or scans below *min_fanout* slots, the gather runs locally —
    same kernel, same result.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    ranks = validate_priorities(ranks, m)
    nworkers = resolve_workers(workers)
    if min_fanout is None:
        min_fanout = DEFAULT_MIN_FANOUT
    guard = matching_guard(guards, edges, ranks, "mm/parallel-vec")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mm/parallel-vec", n, m, machine=machine)

    inc_off, inc_eids = rank_sorted_incidence(
        edges, ranks, machine=machine, use_cache=use_cache
    )
    inc_end = inc_off[1:]
    cursors = inc_off[:-1].copy()  # writable per-vertex cursor array
    status = new_edge_status(m)
    v_matched = np.zeros(n, dtype=bool)
    estamp = np.full(m, -1, dtype=np.int64)
    eu, ev = edges.u, edges.v
    euv = eu + ev

    par = FanoutStats(nworkers)
    executor = None
    bundle_name = None

    def fan_kill_gather(endpoints: np.ndarray):
        """One kill-scan, remote when big enough, else local."""
        nonlocal executor, bundle_name, cursors
        degrees = inc_end[endpoints] - cursors[endpoints]
        total = int(degrees.sum()) if endpoints.size else 0
        charge_gather(machine, endpoints.size, total, "mm-kill-gather")
        if nworkers <= 1 or total < min_fanout:
            par.record_local()
            return range_gather(cursors, inc_end, inc_eids, endpoints, None)
        if executor is None:
            # Lazy: tiny runs never pay for pool spawn or segment setup.
            # The cursor array migrates into shared scratch here; from now
            # on advance_cursors writes through the shared view and every
            # barrier reads live cursor state without copying.
            executor = get_executor(nworkers)
            views = executor.reserve({
                "frontier": n,
                "out_v": max(2 * m, 1),
                "out_o": max(2 * m, 1),
                "cursors": n,
            })
            views["cursors"][:n] = cursors
            cursors = views["cursors"][:n]
            bundle_name = executor.share_bundle(
                "mm", bundle_digest(inc_off, inc_eids),
                lambda: {"inc_off": inc_off, "inc_eids": inc_eids},
            )
        try:
            owner, values, info = executor.gather(
                graph=bundle_name,
                offsets_key="inc_off",
                data_key="inc_eids",
                frontier=endpoints,
                degrees=degrees,
                mode="range",
                starts_key="cursors",
                need_owner=True,
                deadline=budget_deadline(budget),
            )
        except DeadlineExceededError as exc:
            reraise_deadline(exc, budget)
        par.record_fanout(info)
        # The views live in reusable scratch: copy before the next barrier.
        return owner.copy(), values.copy()

    def mmcheck(cand: np.ndarray, step_id: int) -> np.ndarray:
        """Ready edges among *cand* (unique, unmatched vertices)."""
        if cand.size == 0:
            return _EMPTY
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
        return stamp_dedup(
            tops[on_top], estamp, step_id, machine, tag="mm-ready-dedup"
        )

    ready = mmcheck(np.arange(n, dtype=np.int64), 0)

    steps = 0
    while ready.size:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_ready(status, ready, v_matched)
        status[ready] = EDGE_MATCHED
        a, b = eu[ready], ev[ready]
        v_matched[a] = True
        v_matched[b] = True
        machine.charge(
            ready.size, log2_depth(max(int(ready.size), 2)), tag="mm-match"
        )
        endpoints = np.concatenate([a, b])
        owner, scanned = fan_kill_gather(endpoints)
        live = status[scanned] == EDGE_LIVE
        killed, far_owner = scanned[live], owner[live]
        status[killed] = EDGE_DEAD
        machine.charge(
            killed.size, log2_depth(max(int(killed.size), 2)), tag="mm-kill"
        )
        far = euv[killed] - far_owner
        cand = scatter_distinct(far[~v_matched[far]], n)
        if guard is not None:
            guard.check_step(status, ready, killed, killed_distinct=False)
        steps += 1
        if tracer is not None:
            tracer.round(
                frontier=int(ready.size),
                decided=int(ready.size) + int(sorted_unique(killed).size),
                selected=int(ready.size),
                tag="mm-step",
            )
        ready = mmcheck(cand, steps)

    status[status == EDGE_LIVE] = EDGE_DEAD
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mm/parallel-vec", n, m, machine, steps=steps, rounds=1,
        aux={"parallel": par.to_aux()},
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
