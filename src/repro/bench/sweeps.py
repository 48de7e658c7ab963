"""Parameter sweeps: prefix size (Figures 1–2) and thread count (3–4).

Every sweep runs each configuration once with a fresh tracing machine,
records exact work/rounds/steps, and converts the trace to simulated time
for the requested processor counts.  Wall-clock time of the (single-core,
vectorized) run is recorded too, as a sanity channel for the work curves.

Sweeps accept an optional shared :class:`~repro.robustness.Budget`: the
same meter is handed to every engine run, so the budget bounds the *sweep*
(first :meth:`~repro.robustness.Budget.start` arms the clock, steps
accumulate across points) and exhaustion raises
:class:`~repro.errors.BudgetExceededError` out of the sweep with all
completed points' work already charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.matching.sequential import sequential_greedy_matching
from repro.core.mis.luby import luby_mis
from repro.core.mis.prefix import prefix_greedy_mis
from repro.core.mis.sequential import sequential_greedy_mis
from repro.core.orderings import random_priorities
from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.cost_model import CostModel
from repro.pram.machine import Machine
from repro.pram.scheduler import speedup_curve
from repro.robustness.budget import Budget
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike
from repro.util.timing import Timer

__all__ = [
    "SweepPoint",
    "EnginePoint",
    "default_prefix_sizes",
    "rootset_ablation_mis",
    "rootset_ablation_mm",
    "prefix_sweep_mis",
    "prefix_sweep_mm",
    "thread_sweep_mis",
    "thread_sweep_mm",
]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a prefix sweep.

    ``sim_times`` maps processor count → simulated seconds; ``wall_time``
    is the real single-core execution time of the vectorized engine;
    ``norm_work`` is the paper's Figure 1a/2a metric — priority-order
    slots scanned plus live items examined, divided by the input size, so
    the sequential schedule measures 1.0.
    """

    prefix_size: int
    prefix_frac: float
    work: int
    norm_work: float
    rounds: int
    steps: int
    set_size: int
    sim_times: Dict[int, float]
    wall_time: float


def default_prefix_sizes(total: int, points: int = 13) -> List[int]:
    """Log-spaced prefix sizes from 1 to *total* (inclusive, deduplicated).

    Mirrors the x-axes of Figures 1–2, which sweep prefix/input ratios
    from ~1/N to 1 in log steps.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    raw = sorted_unique(
        np.round(np.logspace(0, np.log10(total), points)).astype(np.int64)
    )
    return [int(x) for x in raw]


def prefix_sweep_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    prefix_sizes: Optional[Sequence[int]] = None,
    *,
    processors: Sequence[int] = (32,),
    cost: Optional[CostModel] = None,
    seed: SeedLike = 0,
    budget: Optional[Budget] = None,
    tracer=None,
) -> List[SweepPoint]:
    """Run the prefix-based MIS across prefix sizes (Figures 1a–1f).

    The same *ranks* is reused for every point, so all points compute the
    identical MIS and differ only in schedule — exactly the paper's setup.
    An optional :class:`~repro.observability.Tracer` is shared across all
    points; each point appears as its own traced run in the sink.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    if prefix_sizes is None:
        prefix_sizes = default_prefix_sizes(max(n, 1))
    cost = cost or CostModel()
    points: List[SweepPoint] = []
    for k in prefix_sizes:
        machine = Machine()
        with Timer() as t:
            res = prefix_greedy_mis(
                graph, ranks, prefix_size=int(k), machine=machine,
                budget=budget, tracer=tracer,
            )
        aux = res.stats.aux
        points.append(
            SweepPoint(
                prefix_size=int(k),
                prefix_frac=k / max(n, 1),
                work=res.stats.work,
                norm_work=(aux["slot_scans"] + aux["item_examinations"]) / max(n, 1),
                rounds=res.stats.rounds,
                steps=res.stats.steps,
                set_size=res.size,
                sim_times=speedup_curve(machine, processors, cost),
                wall_time=t.elapsed,
            )
        )
    return points


def prefix_sweep_mm(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    prefix_sizes: Optional[Sequence[int]] = None,
    *,
    processors: Sequence[int] = (32,),
    cost: Optional[CostModel] = None,
    seed: SeedLike = 0,
    budget: Optional[Budget] = None,
    tracer=None,
) -> List[SweepPoint]:
    """Run the prefix-based MM across prefix sizes (Figures 2a–2f)."""
    m = edges.num_edges
    if ranks is None:
        ranks = random_priorities(m, seed)
    if prefix_sizes is None:
        prefix_sizes = default_prefix_sizes(max(m, 1))
    cost = cost or CostModel()
    points: List[SweepPoint] = []
    for k in prefix_sizes:
        machine = Machine()
        with Timer() as t:
            res = prefix_greedy_matching(
                edges, ranks, prefix_size=int(k), machine=machine,
                budget=budget, tracer=tracer,
            )
        aux = res.stats.aux
        points.append(
            SweepPoint(
                prefix_size=int(k),
                prefix_frac=k / max(m, 1),
                work=res.stats.work,
                norm_work=(aux["slot_scans"] + aux["item_examinations"]) / max(m, 1),
                rounds=res.stats.rounds,
                steps=res.stats.steps,
                set_size=res.size,
                sim_times=speedup_curve(machine, processors, cost),
                wall_time=t.elapsed,
            )
        )
    return points


def _best_prefix(points: Sequence[SweepPoint], processors: int) -> SweepPoint:
    """The sweep point with the lowest simulated time at *processors*."""
    return min(points, key=lambda p: p.sim_times[processors])


def thread_sweep_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    threads: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    prefix_size: Optional[int] = None,
    tune_at: int = 32,
    cost: Optional[CostModel] = None,
    seed: SeedLike = 0,
    budget: Optional[Budget] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 3 data: simulated time vs threads for three MIS algorithms.

    Returns ``{"prefix": {P: t}, "luby": ..., "serial": ...}``.  The prefix
    size is tuned by a quick sweep at *tune_at* processors when not given —
    matching the paper's "using the optimal prefix size obtained from
    experiments".
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    cost = cost or CostModel()
    threads = [int(p) for p in threads]
    if prefix_size is None:
        sweep = prefix_sweep_mis(
            graph, ranks, processors=(tune_at,), cost=cost, seed=seed,
            budget=budget,
        )
        prefix_size = _best_prefix(sweep, tune_at).prefix_size
    mach_prefix = Machine()
    prefix_greedy_mis(
        graph, ranks, prefix_size=prefix_size, machine=mach_prefix, budget=budget
    )
    mach_luby = Machine()
    luby_mis(graph, seed=seed, machine=mach_luby, budget=budget)
    mach_seq = Machine()
    sequential_greedy_mis(graph, ranks, machine=mach_seq, budget=budget)
    return {
        "prefix": speedup_curve(mach_prefix, threads, cost),
        "luby": speedup_curve(mach_luby, threads, cost),
        "serial": speedup_curve(mach_seq, threads, cost),
    }


def thread_sweep_mm(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    threads: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    prefix_size: Optional[int] = None,
    tune_at: int = 32,
    cost: Optional[CostModel] = None,
    seed: SeedLike = 0,
    budget: Optional[Budget] = None,
) -> Dict[str, Dict[int, float]]:
    """Figure 4 data: simulated time vs threads for prefix vs serial MM."""
    m = edges.num_edges
    if ranks is None:
        ranks = random_priorities(m, seed)
    cost = cost or CostModel()
    threads = [int(p) for p in threads]
    if prefix_size is None:
        sweep = prefix_sweep_mm(
            edges, ranks, processors=(tune_at,), cost=cost, seed=seed,
            budget=budget,
        )
        prefix_size = _best_prefix(sweep, tune_at).prefix_size
    mach_prefix = Machine()
    prefix_greedy_matching(
        edges, ranks, prefix_size=prefix_size, machine=mach_prefix, budget=budget
    )
    mach_seq = Machine()
    sequential_greedy_matching(edges, ranks, machine=mach_seq, budget=budget)
    return {
        "prefix": speedup_curve(mach_prefix, threads, cost),
        "serial": speedup_curve(mach_seq, threads, cost),
    }


@dataclass(frozen=True)
class EnginePoint:
    """One engine's measurement in a root-set ablation.

    ``wall_time`` is the best-of-*repeats* single-core wall clock;
    ``work``/``depth``/``steps`` come from the charged trace of one run
    (charging is deterministic, so any run serves).
    """

    engine: str
    wall_time: float
    work: int
    depth: int
    steps: int
    set_size: int


def _measure_engine(name: str, run, repeats: int) -> EnginePoint:
    best = float("inf")
    res = None
    for _ in range(max(1, repeats)):
        machine = Machine()
        with Timer() as t:
            res = run(machine)
        best = min(best, t.elapsed)
    return EnginePoint(
        engine=name,
        wall_time=best,
        work=res.stats.work,
        depth=res.stats.depth,
        steps=res.stats.steps,
        set_size=res.size,
    )


def rootset_ablation_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    repeats: int = 3,
    seed: SeedLike = 0,
) -> List[EnginePoint]:
    """Pointer-level vs vectorized root-set MIS on one input.

    Both engines run the identical (graph, π): the points differ only in
    execution strategy, so equal ``steps`` and near-equal ``work`` are the
    expected (and asserted-by-tests) outcome; ``wall_time`` is the payoff
    of the vectorized frontiers.  The first vectorized run warms the
    memoized partition cache, so best-of-*repeats* reports the steady-state
    sweep-rerun cost.
    """
    from repro.core.mis.rootset import rootset_mis
    from repro.core.mis.rootset_vectorized import rootset_mis_vectorized

    if ranks is None:
        ranks = random_priorities(graph.num_vertices, seed)
    return [
        _measure_engine(
            "rootset", lambda m: rootset_mis(graph, ranks, machine=m), repeats
        ),
        _measure_engine(
            "rootset-vec",
            lambda m: rootset_mis_vectorized(graph, ranks, machine=m),
            repeats,
        ),
    ]


def rootset_ablation_mm(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    repeats: int = 3,
    seed: SeedLike = 0,
) -> List[EnginePoint]:
    """Pointer-level vs vectorized root-set MM on one input."""
    from repro.core.matching.rootset import rootset_matching
    from repro.core.matching.rootset_vectorized import rootset_matching_vectorized

    if ranks is None:
        ranks = random_priorities(edges.num_edges, seed)
    return [
        _measure_engine(
            "rootset", lambda m: rootset_matching(edges, ranks, machine=m), repeats
        ),
        _measure_engine(
            "rootset-vec",
            lambda m: rootset_matching_vectorized(edges, ranks, machine=m),
            repeats,
        ),
    ]
