"""Prefix-based greedy maximal matching (the Section 6 MM implementation).

The edge analogue of Algorithm 3: each round takes the next ``prefix_size``
positions of the edge priority order, resolves that prefix with the
step-synchronous kernel of Algorithm 4, and moves on.  Edges whose
endpoints were matched by earlier rounds cost one endpoint check when
their slot is scanned — they are not packed out, so under an explicit
``prefix_size`` or ``prefix_frac``, rounds = ceil(m / prefix), matching
the Figure 2b/2e lines.  With no prefix knob set, the windows follow the
order's share of live edges instead
(:func:`repro.core.mis.prefix.default_window`, target t = ``m // 50``):
they grow as the order thins, and none holds more than t live edges.

The engine walks π in order.  It lays the endpoints out in priority
order once per solve, so the edge of rank ``p`` sits at position ``p``:
a round's window is the slice ``[pos, pos + k)`` and a slot's position
is its rank, which is what ``scatter_min`` takes as its value.  The
layout is one scatter of the packed pair ``(u << 32) | v``, unpacked into
``pu``/``pv``; for a caller's π it is the checked scatter
(:func:`~repro.core.orderings.scatter_by_priority`), so checking π costs
no pass of its own.  Vertex ids past 2³¹ do not pack, and the n-sized
scratch is filled in full, so a graph past 2³¹ vertices, or with more
than 16 vertices per edge, has its endpoints relabelled first to
``0..k-1`` in id order (``k`` ≤ 2m), which moves no answer.  Every slot
of a fresh window is still live (only a window's own steps decide its
edges), so no status scan precedes the endpoint check.  An unguarded run starts every slot ``EDGE_DEAD`` and
writes only its matches; a guarded run writes each death too, for the
guard's live-edge ledger.  One ``pstatus[ranks]`` gather at the end
returns the edge-indexed status.

Within a round, only edges *inside* the prefix can block each other: all
earlier edges are decided (if one had matched an endpoint, this edge would
already be dead) and later edges have lower priority.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mis.prefix import default_window, resolve_prefix_size
from repro.core.orderings import random_priorities, scatter_by_priority
from repro.core.result import MatchingResult, stats_from_machine
from repro.core.status import EDGE_DEAD, EDGE_MATCHED, STATUS_DTYPE, new_edge_status
from repro.graphs.csr import EdgeList
from repro.kernels import scatter_min
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import MatchingInvariantGuard, resolve_guard_mode
from repro.util.rng import SeedLike

__all__ = ["prefix_greedy_matching"]

#: The most vertices whose endpoint pairs pack into one int64,
#: ``(u << 32) | v`` with ``u < v < 2**31``.
_PACKED_VERTICES = 2**31
_LOW32 = 0xFFFFFFFF
#: Past this many vertices per edge, relabelling the endpoints (one
#: ``np.unique`` of 2m ids) costs less than filling the n-sized scratch.
_SPARSE_RATIO = 16


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
        Absolute or fractional prefix of the *edge* order per round.
        With none of the three prefix knobs set, the windows follow the
        order's share of live edges (target ``m // 50``; see
        :func:`~repro.core.mis.prefix.default_window`).
    prefix_sizes:
        Explicit per-round slot counts (last entry repeats); mutually
        exclusive with the other two knobs, mirroring the MIS engine.
    guards:
        Invariant-check mode (``off|cheap|full``); violations raise
        :class:`~repro.errors.InvariantViolationError`.  The guard watches
        the relabelled instance ``EdgeList(n, pu, pv)`` under identity
        ranks, the same problem, so the edge ids its messages name are π
        positions: edge ``p`` is the edge of rank ``p``.  On a
        relabelled graph (past 2³¹ vertices, or more than 16 vertices
        per edge) the vertex ids it names are relabelled too.
    budget:
        Optional :class:`~repro.robustness.Budget`; one step is spent per
        inner synchronous step.
    """
    from repro.errors import EngineError
    from repro.util.validation import check_positive_int

    m = edges.num_edges
    n = edges.num_vertices
    eu, ev, nv = edges.u, edges.v, n
    if n > min(_PACKED_VERTICES, _SPARSE_RATIO * m):
        # Relabel in id order, so u < v still holds and no answer moves.
        ids, inv = np.unique(np.concatenate((eu, ev)), return_inverse=True)
        eu, ev, nv = inv[:m], inv[m:], int(ids.size)
    # Endpoints in priority order: position p holds the edge of rank p,
    # packed, and a caller's π is checked in the same scatter.
    pairs = eu << 32
    pairs |= ev
    if ranks is None:
        ranks = random_priorities(m, seed)
        laid = np.empty(m, dtype=np.int64)
        laid[ranks] = pairs
    else:
        ranks, laid = scatter_by_priority(ranks, m, pairs)
    # Only the layout stays resident: pv is unpacked in place.
    del pairs
    pu = laid >> 32
    pv = laid
    pv &= _LOW32
    mode = resolve_guard_mode(guards)
    guard = None
    if mode != "off":
        guard = MatchingInvariantGuard(
            EdgeList(nv, pu, pv), np.arange(m, dtype=np.int64), mode,
            "mm/prefix (edge ids are π positions)",
        )
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
    # With no knob set, k is the target t of the default windows.
    default = prefix_size is None and prefix_frac is None and schedule is None
    target = k
    first_window = min(k, max(m, 1))
    if tracer is not None:
        tracer.begin_run("mm/prefix", n, m, machine=machine)

    # Unguarded, every slot starts dead and only matches are written.
    if guard is None:
        pstatus = np.full(m, EDGE_DEAD, dtype=STATUS_DTYPE)
    else:
        pstatus = new_edge_status(m)
    matched_v = np.zeros(nv, dtype=bool)
    min_at = np.full(nv, m, dtype=np.int64)
    rounds = 0
    steps = 0
    pos = 0
    item_exams = 0
    while pos < m:
        machine.begin_round()
        if schedule is not None:
            k = schedule[min(rounds, len(schedule) - 1)]
        rounds += 1
        # The window is the slice [pos, end): a slot's position is its
        # rank, and every slot is still live, as only a window's own
        # steps decide its edges.
        end = min(pos + k, m)
        lu = pu[pos:end]
        lv = pv[pos:end]
        # Lazy status update: a slot whose endpoint was matched by an
        # earlier round is dropped now.  Compact through index arrays: a
        # boolean mask with a mixed pattern costs several times more per
        # element to apply.
        stale = matched_v[lu] | matched_v[lv]
        keep = np.flatnonzero(~stale)
        size = end - pos
        if default:
            size, keep, k = default_window(target, size, keep)
            end = pos + size
        machine.charge(size, log2_depth(size), tag="scan")
        machine.charge(size, log2_depth(max(size, 2)), tag="filter")
        if guard is not None:
            # Lazily discovered kills from earlier rounds: write and
            # account them so the guard's live-edge ledger stays exact.
            dead = pos + np.flatnonzero(stale[:size])
            pstatus[dead] = EDGE_DEAD
            if dead.size:
                guard.check_step(pstatus, np.empty(0, dtype=np.int64), dead)
        live, lu, lv = pos + keep, lu[keep], lv[keep]
        pos = end
        while live.size:
            if budget is not None:
                budget.spend_steps()
            item_exams += int(live.size)
            min_at[lu] = m
            min_at[lv] = m
            scatter_min(min_at, lu, live)
            scatter_min(min_at, lv, live)
            won = (min_at[lu] == live) & (min_at[lv] == live)
            w = np.flatnonzero(won)
            winners = live[w]
            if guard is not None:
                guard.check_ready(pstatus, winners, matched_v)
            pstatus[winners] = EDGE_MATCHED
            matched_v[lu[w]] = True
            matched_v[lv[w]] = True
            machine.charge(
                3 * live.size + winners.size,
                log2_depth(max(int(live.size), 2)),
                tag="inner",
            )
            steps += 1
            # Winners touch their own matched endpoints: every touched
            # slot is decided, and the touched losers die.
            touched = matched_v[lu] | matched_v[lv]
            keep = np.flatnonzero(~touched)
            if guard is not None:
                dead = live[np.flatnonzero(touched & ~won)]
                pstatus[dead] = EDGE_DEAD
                guard.check_step(pstatus, winners, dead)
            if tracer is not None:
                tracer.round(
                    frontier=int(live.size),
                    decided=int(live.size - keep.size),
                    selected=int(winners.size),
                    tag="inner",
                )
            live, lu, lv = live[keep], lu[keep], lv[keep]
    if guard is not None:
        guard.finalize(pstatus)
    stats = stats_from_machine(
        "mm/prefix", n, m, machine, steps=steps, rounds=rounds,
        prefix_size=first_window,
        # Every slot of the order is scanned exactly once.
        aux={"slot_scans": m, "item_examinations": item_exams},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MatchingResult(
        status=pstatus[ranks],
        edge_u=edges.u,
        edge_v=edges.v,
        ranks=ranks,
        stats=stats,
        machine=machine,
    )
