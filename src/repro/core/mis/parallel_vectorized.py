"""Process-parallel root-set MIS: real multicore execution of Lemma 4.2.

The GIL substitution of DESIGN §2 *simulates* the paper's parallelism;
this engine executes it.  The coordinator loop is byte-for-byte the one
in :mod:`repro.core.mis.rootset_vectorized` — accept roots, knock out
children, ``misCheck`` via undecided-parent counts — but each step's two
segmented gathers (the only super-constant bulk operations per step) are
split across N persistent shard workers through a
:class:`~repro.backends.FrontierExecutor`:

* the parent/child partition is shipped once per ``(graph, π)`` into a
  shared-memory bundle (memoized; repeated solves reuse it);
* each frontier is chunked contiguously by slot mass and gathered into
  disjoint ranges of a shared scratch segment, so the concatenation is
  exactly the single-process gather — which makes this engine
  **bit-identical** to ``rootset-vec`` (and so to sequential greedy) for
  fixed π, with the same charged (work, depth, steps);
* frontiers below ``min_fanout`` slots run locally (same kernel, same
  result) — at small sizes the barrier costs more than the split;
* a :class:`~repro.robustness.Budget` wall-clock limit propagates to the
  shard workers as an absolute monotonic deadline, checked both before
  each remote gather and inside each worker.

``stats.aux["parallel"]`` records the worker count, per-worker slot
split, busy seconds, barrier wait, and the fan-out/local step counts.
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
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.errors import DeadlineExceededError
from repro.graphs.csr import CSRGraph
from repro.kernels import (
    decrement_counts,
    frontier_gather,
    scatter_distinct,
    split_parents_children,
)
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import mis_guard
from repro.util.rng import SeedLike

__all__ = ["parallel_mis_vectorized"]


def parallel_mis_vectorized(
    graph: CSRGraph,
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
) -> MISResult:
    """Run the Lemma 4.2 root-set algorithm with process-parallel gathers.

    Bit-identical to :func:`~repro.core.mis.rootset_vectorized.
    rootset_mis_vectorized` for fixed π (same status vector, same charged
    work/depth/steps); the difference is wall-clock.  ``workers``
    resolves via :func:`~repro.core.fanout.resolve_workers`.  With one
    worker, or frontiers below *min_fanout* slots, gathers run locally —
    same kernels, same result.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    ranks = validate_priorities(ranks, n)
    nworkers = resolve_workers(workers)
    if min_fanout is None:
        min_fanout = DEFAULT_MIN_FANOUT
    guard = mis_guard(guards, graph, ranks, "mis/parallel-vec")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if tracer is not None:
        tracer.begin_run("mis/parallel-vec", n, graph.num_edges, machine=machine)

    p_off, _, c_off, c_nbr = split_parents_children(
        graph, ranks, machine=machine, use_cache=use_cache
    )
    status = new_vertex_status(n)
    pcount = np.diff(p_off)
    roots = np.flatnonzero(pcount == 0).astype(np.int64, copy=False)
    machine.charge(n, log2_depth(max(n, 2)), tag="init-roots")

    par = FanoutStats(nworkers)
    executor = None
    bundle_name = None

    def fan_gather(frontier: np.ndarray, tag: str) -> np.ndarray:
        """One knock/misCheck gather, remote when big enough, else local."""
        nonlocal executor, bundle_name
        degrees = c_off[frontier + 1] - c_off[frontier]
        total = int(degrees.sum()) if frontier.size else 0
        charge_gather(machine, frontier.size, total, tag)
        if nworkers <= 1 or total < min_fanout:
            par.record_local()
            _, values = frontier_gather(
                c_off, c_nbr, frontier, None, need_owner=False
            )
            return values
        if executor is None:
            # Lazy: tiny runs never pay for pool spawn or segment setup.
            executor = get_executor(nworkers)
            executor.reserve(
                {"frontier": n, "out_v": max(graph.num_arcs, 1)}
            )
            bundle_name = executor.share_bundle(
                "mis", bundle_digest(c_off, c_nbr),
                lambda: {"c_off": c_off, "c_nbr": c_nbr},
            )
        try:
            _, values, info = executor.gather(
                graph=bundle_name,
                offsets_key="c_off",
                data_key="c_nbr",
                frontier=frontier,
                degrees=degrees,
                deadline=budget_deadline(budget),
            )
        except DeadlineExceededError as exc:
            reraise_deadline(exc, budget)
        par.record_fanout(info)
        # The view lives in reusable scratch: copy before the next barrier.
        return values.copy()

    steps = 0
    while roots.size:
        if budget is not None:
            budget.spend_steps()
        if guard is not None:
            guard.check_roots(status, roots)
        status[roots] = IN_SET
        machine.charge(roots.size, log2_depth(max(int(roots.size), 2)), tag="accept")
        cand = fan_gather(roots, "knock-gather")
        knocked = scatter_distinct(cand[status[cand] == UNDECIDED], n)
        status[knocked] = KNOCKED_OUT
        machine.charge(
            knocked.size, log2_depth(max(int(knocked.size), 2)), tag="knockout"
        )
        targets = fan_gather(knocked, "mischeck-gather")
        next_roots = decrement_counts(pcount, targets, machine, tag="mischeck")
        next_roots = next_roots[status[next_roots] == UNDECIDED]
        if guard is not None:
            guard.check_step(status, roots, knocked)
        if tracer is not None:
            tracer.round(
                frontier=int(roots.size),
                decided=int(roots.size) + int(knocked.size),
                selected=int(roots.size),
                tag="rootset-step",
            )
        roots = next_roots
        steps += 1

    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mis/parallel-vec", n, graph.num_edges, machine, steps=steps, rounds=1,
        aux={"parallel": par.to_aux()},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)
