"""Algorithm 3: prefix-based greedy MIS — the paper's practical algorithm.

Instead of offering every undecided vertex in parallel (Algorithm 2), each
*round* takes the next ``prefix_size`` positions of the priority order and
resolves only that prefix with the step-synchronous kernel.  Smaller
prefixes mean less redundant edge re-examination (work → the sequential
optimum as size → 1) but more rounds (less parallelism); this is the
work/parallelism dial of Figures 1 and 2.

With no prefix knob set (the default on every front door), the windows
follow the order's undecided share instead (:func:`default_window`): a
window targets t = ``n // 50`` undecided vertices, so windows grow as the
remaining order thins (Theorem 4.5's doubling, driven by the run itself),
and a window never holds more than t undecided vertices.

Accounting mirrors the paper's implementation:

* every prefix slot costs one status check (decided vertices are *not*
  packed out of the order — under an explicit ``prefix_size`` or
  ``prefix_frac``, Figure 1b's rounds-vs-prefix line is exactly
  ``ceil(n / prefix_size)`` rounds);
* the prefix's incident arcs are gathered once per round (external edges
  are processed once, Lemma 4.3's point);
* the *internal* arcs are re-examined once per inner step — the redundant
  work that grows with prefix size.

That one gather per round also serves every inner step's knock-out: it
holds every arc of every undecided prefix vertex, so a step takes its new
members' arcs from it (the arcs whose source just joined the set) and
then drops them, keeping the arcs whose source was undecided before the
step's knock-out.  A round calls ``frontier_gather`` once, however many
steps it runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    scatter_by_priority,
)
from repro.core.result import MISResult, stats_from_machine
from repro.core.status import IN_SET, KNOCKED_OUT, UNDECIDED, new_vertex_status
from repro.errors import EngineError
from repro.graphs.csr import CSRGraph
from repro.kernels import frontier_gather, scatter_min
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget
from repro.robustness.guards import mis_guard
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike
from repro.util.validation import check_fraction, check_positive_int

__all__ = [
    "default_window",
    "prefix_greedy_mis",
    "resolve_prefix_size",
    "theorem45_prefix_sizes",
    "theorem45_prefix_mis",
]


def resolve_prefix_size(
    n: int,
    prefix_size: Optional[int],
    prefix_frac: Optional[float],
) -> int:
    """Resolve the prefix-size knobs into an absolute count in ``[1, max(n,1)]``.

    Exactly one of *prefix_size* (absolute) and *prefix_frac* (δ fraction
    of the input) may be given; neither gives ``max(1, n // 50)``, the
    target t of the default windows (:func:`default_window`): the most
    undecided items one default window holds, and the ratio of Figures
    1c/1f (prefix/N ≈ 0.02) that sizes a window of a fresh order.
    """
    if prefix_size is not None and prefix_frac is not None:
        raise EngineError("pass either prefix_size or prefix_frac, not both")
    if prefix_size is not None:
        k = check_positive_int(prefix_size, "prefix_size")
    elif prefix_frac is not None:
        frac = check_fraction(prefix_frac, "prefix_frac")
        k = max(1, int(frac * n))
    else:
        k = max(1, n // 50)
    return min(k, max(n, 1))


def default_window(target: int, size: int, undecided: np.ndarray):
    """Cut a scanned default window and size the one after it.

    *undecided* holds the ascending in-window offsets of the undecided
    slots of a window of *size* slots.  A window holding more than
    *target* undecided items ends just after its *target*-th one; the
    rest of its slots go to the next window.  The next window then takes
    ``min(2 * size, max(target, target * size // u))`` slots for the ``u``
    undecided items kept (``2 * size`` when ``u`` is 0): enough to hold
    about *target* undecided items if the order thins no further, at
    most twice the window before.  Returns ``(size, undecided,
    next_size)``.
    """
    if undecided.size > target:
        undecided = undecided[:target]
        size = int(undecided[-1]) + 1
    u = int(undecided.size)
    if u == 0:
        return size, undecided, 2 * size
    return size, undecided, min(2 * size, max(target, target * size // u))


def theorem45_prefix_sizes(n: int, max_degree: int, c: float = 2.0) -> list:
    """The adaptive prefix schedule from the proof of Theorem 4.5.

    Superround ``i`` of Algorithm 3 uses a ``Θ(2^i log(n)/Δ)``-prefix
    (Corollary 3.2), which halves the residual maximum degree each time.
    Returns the absolute slot counts per round, covering all ``n`` slots.
    The geometric growth means O(log Δ + log n) rounds total while every
    round stays sparse enough for linear work — the theory-optimal dial
    setting, usable via ``prefix_sizes=`` below.
    """
    import math

    if n <= 0:
        return []
    log_n = max(math.log(n), 1.0)
    d = max(max_degree, 1)
    sizes = []
    remaining = n
    i = 0
    while remaining > 0:
        delta = min(1.0, c * (2 ** i) * log_n / d)
        k = min(remaining, max(1, int(delta * n)))
        sizes.append(k)
        remaining -= k
        i += 1
    return sizes


def prefix_greedy_mis(
    graph: CSRGraph,
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
) -> MISResult:
    """Run Algorithm 3 with the given prefix size (or size schedule).

    Returns the lexicographically-first MIS for *ranks* — identical to the
    sequential and fully-parallel engines — with round/step/work accounting
    in ``result.stats``.

    Parameters
    ----------
    graph, ranks, seed, machine:
        As in :func:`repro.core.mis.sequential_greedy_mis`.
    prefix_size:
        Absolute number of priority-order slots per round.  With none of
        the three prefix knobs set, the windows follow the undecided
        share of the order (:func:`default_window`, target ``n // 50``).
    prefix_frac:
        Alternative δ ∈ (0, 1]: prefix covers ``max(1, δ·n)`` slots.
    prefix_sizes:
        Alternative explicit per-round slot counts (e.g. from
        :func:`theorem45_prefix_sizes`); the last entry repeats if the
        schedule runs out before the order is exhausted.  Mutually
        exclusive with the other two knobs.
    guards:
        Invariant-check mode (``off|cheap|full``); violations raise
        :class:`~repro.errors.InvariantViolationError`.
    budget:
        Optional :class:`~repro.robustness.Budget`; one step is spent per
        inner synchronous step.
    tracer:
        Optional :class:`~repro.observability.Tracer`; emits one round
        event per *inner* synchronous step (matching ``stats.steps``),
        tagged ``"inner"``.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
        perm = permutation_from_ranks(ranks)
    else:
        ranks, perm = scatter_by_priority(ranks, n)
    guard = mis_guard(guards, graph, ranks, "mis/prefix")
    if budget is not None:
        budget.start()
    if machine is None:
        machine = Machine()
    if prefix_sizes is not None:
        if prefix_size is not None or prefix_frac is not None:
            raise EngineError(
                "prefix_sizes is mutually exclusive with prefix_size/prefix_frac"
            )
        schedule = [check_positive_int(k, "prefix_sizes entry") for k in prefix_sizes]
        if n > 0 and not schedule:
            raise EngineError("prefix_sizes must be non-empty for a non-empty graph")
        k = schedule[0] if schedule else 1
    else:
        k = resolve_prefix_size(n, prefix_size, prefix_frac)
        schedule = None
    # With no knob set, k is the target t of the default windows.
    default = prefix_size is None and prefix_frac is None and schedule is None
    target = k
    first_window = min(k, max(n, 1))
    if tracer is not None:
        tracer.begin_run("mis/prefix", n, graph.num_edges, machine=machine)

    status = new_vertex_status(n)
    in_prefix = np.zeros(n, dtype=bool)
    min_nb = np.full(n, n, dtype=np.int64)
    rounds = 0
    steps = 0
    pos = 0
    slot_scans = 0
    item_exams = 0
    while pos < n:
        machine.begin_round()
        if schedule is not None:
            k = schedule[min(rounds, len(schedule) - 1)]
        rounds += 1
        slots = perm[pos:pos + k]
        fresh = np.flatnonzero(status[slots] == UNDECIDED)
        if default:
            size, fresh, k = default_window(target, slots.size, fresh)
            slots = slots[:size]
        pos += slots.size
        slot_scans += int(slots.size)
        # Status scan over the prefix slots (decided ones cost 1 op each).
        machine.charge(slots.size, log2_depth(int(slots.size)), tag="scan")
        prefix = slots[fresh]
        if prefix.size == 0:
            continue
        # Gather the prefix's incident arcs once; split internal/external.
        in_prefix[prefix] = True
        g_src, g_dst = frontier_gather(graph.offsets, graph.neighbors, prefix)
        machine.charge(
            prefix.size + g_src.size,
            log2_depth(max(int(g_src.size), 2)),
            tag="gather",
        )
        internal = in_prefix[g_dst]
        src, dst = g_src[internal], g_dst[internal]
        live = prefix
        while live.size:
            if budget is not None:
                budget.spend_steps()
            item_exams += int(live.size)
            min_nb[live] = n
            scatter_min(min_nb, src, ranks[dst])
            roots = live[ranks[live] < min_nb[live]]
            if guard is not None:
                guard.check_roots(status, roots)
            status[roots] = IN_SET
            # Knock out ALL graph neighbors of new set members, inside and
            # outside the prefix (the V' = V \ (P ∪ N(W)) update).  The
            # window's gather holds every arc of every undecided prefix
            # vertex, so the new members' arcs are its IN_SET-source arcs.
            g_status = status[g_src]
            r_dst = g_dst[g_status == IN_SET]
            victims = r_dst[status[r_dst] == UNDECIDED]
            status[victims] = KNOCKED_OUT
            if guard is not None:
                # The victim stream legitimately repeats vertices (several
                # new members can share a neighbor).
                guard.check_step(status, roots, victims, knocked_distinct=False)
            machine.charge(
                live.size + 2 * src.size + roots.size + r_dst.size,
                log2_depth(max(int(live.size), 2)),
                tag="inner",
            )
            steps += 1
            if tracer is not None:
                tracer.round(
                    frontier=int(live.size),
                    decided=int(roots.size) + int(sorted_unique(victims).size),
                    selected=int(roots.size),
                    tag="inner",
                )
            keep = (status[src] == UNDECIDED) & (status[dst] == UNDECIDED)
            src, dst = src[keep], dst[keep]
            live = live[status[live] == UNDECIDED]
            if live.size:
                # Drop the new members' arcs, so the next step's IN_SET
                # sources are exactly its new members.  A source knocked
                # out in this step is never IN_SET; its arcs go at the
                # next step's drop.
                keep = g_status == UNDECIDED
                g_src, g_dst = g_src[keep], g_dst[keep]
        in_prefix[prefix] = False
    if guard is not None:
        guard.finalize(status)
    stats = stats_from_machine(
        "mis/prefix",
        n,
        graph.num_edges,
        machine,
        steps=steps,
        rounds=rounds,
        prefix_size=first_window,
        aux={"slot_scans": slot_scans, "item_examinations": item_exams},
    )
    if tracer is not None:
        tracer.end_run(stats)
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)


def theorem45_prefix_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    tracer=None,
) -> MISResult:
    """Run Algorithm 3 under the adaptive Theorem 4.5 prefix schedule.

    Thin wrapper computing :func:`theorem45_prefix_sizes` for *graph* and
    delegating to :func:`prefix_greedy_mis` — this is the engine behind
    ``method="theorem45"`` in the registry.
    """
    if graph.num_vertices == 0:
        return prefix_greedy_mis(
            graph, ranks, seed=seed, machine=machine,
            guards=guards, budget=budget, tracer=tracer,
        )
    sizes = theorem45_prefix_sizes(graph.num_vertices, graph.max_degree())
    return prefix_greedy_mis(
        graph, ranks, prefix_sizes=sizes, seed=seed, machine=machine,
        guards=guards, budget=budget, tracer=tracer,
    )
