"""Prefix-based greedy maximal matching (the Section 6 MM implementation).

The edge analogue of Algorithm 3: each round takes the next ``prefix_size``
positions of the edge priority order, resolves that prefix with the
step-synchronous kernel of Algorithm 4, and moves on.  Edges whose
endpoints were matched by earlier rounds cost one status check when their
slot is scanned — they are not packed out, so rounds = ceil(m / prefix),
matching the Figure 2b/2e lines.

Within a round, only edges *inside* the prefix can block each other: all
earlier edges are decided (if one had matched an endpoint, this edge would
already be dead) and later edges have lower priority.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mis.prefix import resolve_prefix_size
from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_LIVE, EDGE_MATCHED, new_edge_status
from repro.graphs.csr import EdgeList
from repro.kernels import scatter_min
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import matching_guard
from repro.util.rng import SeedLike

__all__ = ["prefix_greedy_matching"]


def prefix_greedy_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    prefix_size: Optional[int] = None,
    prefix_frac: Optional[float] = None,
    prefix_sizes: Optional[list] = None,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MatchingResult:
    """Prefix-scheduled Algorithm 4; returns the lex-first matching.

    Parameters
    ----------
    edges:
        Canonical :class:`~repro.graphs.csr.EdgeList` (e.g.
        ``graph.edge_list()``).
    ranks:
        Edge priorities; random from *seed* when omitted.
    prefix_size, prefix_frac:
        Absolute or fractional prefix of the *edge* order per round
        (default ``m // 50``).
    prefix_sizes:
        Explicit per-round slot counts (last entry repeats); mutually
        exclusive with the other two knobs, mirroring the MIS engine.
    guards:
        Invariant-check mode (``off|cheap|full``); violations raise
        :class:`~repro.errors.InvariantViolationError`.
    budget:
        Optional :class:`~repro.robustness.Budget`; one step is spent per
        inner synchronous step.
    """
    from repro.errors import EngineError
    from repro.util.validation import check_positive_int

    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    ranks = validate_priorities(ranks, m)
    guard = matching_guard(guards, edges, ranks, "mm/prefix")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if prefix_sizes is not None:
        if prefix_size is not None or prefix_frac is not None:
            raise EngineError(
                "prefix_sizes is mutually exclusive with prefix_size/prefix_frac"
            )
        schedule = [check_positive_int(x, "prefix_sizes entry") for x in prefix_sizes]
        if m > 0 and not schedule:
            raise EngineError("prefix_sizes must be non-empty for a non-empty edge list")
        k = schedule[0] if schedule else 1
    else:
        schedule = None
        k = resolve_prefix_size(m, prefix_size, prefix_frac)
    if tracer is not None:
        tracer.begin_run("mm/prefix", n, m, machine=machine)

    status = new_edge_status(m)
    matched_v = np.zeros(n, dtype=bool)
    perm = permutation_from_ranks(ranks)
    eu = edges.u
    ev = edges.v
    min_at = np.full(n, m, dtype=np.int64)
    rounds = 0
    steps = 0
    pos = 0
    slot_scans = 0
    item_exams = 0
    while pos < m:
        machine.begin_round()
        if schedule is not None:
            k = schedule[min(rounds, len(schedule) - 1)]
        rounds += 1
        slots = perm[pos:pos + k]
        pos += slots.size
        slot_scans += int(slots.size)
        machine.charge(slots.size, log2_depth(int(slots.size)), tag="scan")
        # Lazy status update: an undecided slot whose endpoint was matched
        # by an earlier round dies now.
        undecided = slots[status[slots] == EDGE_LIVE]
        if undecided.size == 0:
            continue
        stale = matched_v[eu[undecided]] | matched_v[ev[undecided]]
        status[undecided[stale]] = EDGE_DEAD
        live = undecided[~stale]
        machine.charge(undecided.size, log2_depth(max(int(undecided.size), 2)), tag="filter")
        if guard is not None and np.any(stale):
            # Lazily discovered kills from earlier rounds: account them so
            # the guard's live-edge ledger stays exact.
            guard.check_step(
                status, np.empty(0, dtype=np.int64), undecided[stale]
            )
        while live.size:
            if budget is not None:
                budget.spend_steps()
            item_exams += int(live.size)
            lu = eu[live]
            lv = ev[live]
            lr = ranks[live]
            min_at[lu] = m
            min_at[lv] = m
            scatter_min(min_at, lu, lr)
            scatter_min(min_at, lv, lr)
            winners = live[(min_at[lu] == lr) & (min_at[lv] == lr)]
            if guard is not None:
                guard.check_ready(status, winners, matched_v)
            status[winners] = EDGE_MATCHED
            matched_v[eu[winners]] = True
            matched_v[ev[winners]] = True
            machine.charge(
                3 * live.size + winners.size,
                log2_depth(max(int(live.size), 2)),
                tag="inner",
            )
            steps += 1
            alive_mask = status[live] == EDGE_LIVE
            touched = matched_v[lu] | matched_v[lv]
            dead = live[alive_mask & touched]
            status[dead] = EDGE_DEAD
            if guard is not None:
                guard.check_step(status, winners, dead)
            if tracer is not None:
                tracer.round(
                    frontier=int(live.size),
                    decided=int(winners.size) + int(dead.size),
                    selected=int(winners.size),
                    tag="inner",
                )
            live = live[alive_mask & ~touched]
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mm/prefix", n, m, machine, steps=steps, rounds=rounds, prefix_size=k,
        aux={"slot_scans": slot_scans, "item_examinations": item_exams},
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
