"""Front door for maximal matching: registry dispatch over a graph or edge list.

Like the MIS front door, dispatch goes exclusively through the
:mod:`repro.core.engines` registry (:data:`MM_METHODS` is a live view of
it, and the request runs through the shared
:func:`repro.core.engines.front_door` body), and this is the validation
boundary: graph / edge-list arrays are re-checked against their
structural invariants and *ranks* must be a permutation of the edge ids
before any engine dispatch.  ``guards``, ``budget``, ``tracer`` and
``fallback`` mirror :func:`repro.core.mis.api.maximal_independent_set`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core import engines as engine_registry
from repro.core.options import SolveOptions, resolve_options
from repro.core.result import MatchingResult
from repro.errors import EngineError
from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.machine import Machine
from repro.robustness.budget import Budget
from repro.robustness.guards import resolve_guard_mode
from repro.robustness.validate import (
    check_csr_graph,
    check_csr_symmetric,
    check_edge_list,
)
from repro.util.rng import SeedLike

__all__ = ["maximal_matching", "MM_METHODS"]

#: Engine names accepted by :func:`maximal_matching` — a live view of the
#: :mod:`repro.core.engines` registry.  ``rootset-vec`` is the vectorized
#: twin of ``rootset`` (same step structure, frontier-kernel execution).
MM_METHODS = engine_registry.MethodsView("matching")


def maximal_matching(
    graph_or_edges: Union[CSRGraph, EdgeList],
    ranks: Optional[np.ndarray] = None,
    *,
    options: Optional[SolveOptions] = None,
    method: str = "prefix",
    prefix_size: Optional[int] = None,
    prefix_frac: Optional[float] = None,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
    guards: Optional[str] = None,
    budget: Optional[Budget] = None,
    fallback: bool = False,
    tracer=None,
    workers: Optional[int] = None,
    min_fanout: Optional[int] = None,
) -> MatchingResult:
    """Compute a maximal matching.

    Parameters
    ----------
    options:
        A :class:`~repro.core.options.SolveOptions` carrying every knob
        below in one frozen record (the preferred spelling; see the MIS
        front door).  When given, the legacy kwargs must stay at their
        defaults.
    graph_or_edges:
        A :class:`~repro.graphs.csr.CSRGraph` (its canonical edge list is
        used, so edge ids are reproducible) or an explicit
        :class:`~repro.graphs.csr.EdgeList`.  The arrays are re-validated
        against their structural invariants here (CSR symmetry too, under
        ``guards="full"``); corruption raises
        :class:`~repro.errors.InvalidGraphError`.
    ranks:
        Edge priorities π (edge id → rank).  Random from *seed* when
        omitted.  Must be a permutation of ``0..m-1``; anything else
        raises :class:`~repro.errors.InvalidOrderingError` before
        dispatch.
    method:
        One of :data:`MM_METHODS`; every method returns the
        lexicographically-first matching for *ranks*.
    prefix_size, prefix_frac:
        Prefix knobs, only for ``method="prefix"``.
    seed, machine:
        As in :func:`repro.core.mis.maximal_independent_set`.
    guards:
        Invariant-check mode ``off|cheap|full`` (default off); applied by
        the prefix and root-set engines.
    budget:
        Optional :class:`~repro.robustness.Budget` shared by the run and
        any fallback retries.
    fallback:
        Retry a failed engine down ``rootset-vec → sequential``,
        recording the degradation in ``result.stats.aux`` (keys
        ``degraded``, ``fallback_engine``, ``fallback_attempts``).
    tracer:
        Optional :class:`~repro.observability.Tracer` receiving one round
        event per synchronous step (see ``docs/observability.md``).
    workers, min_fanout:
        Parallel-tier knobs, only meaningful for ``method="parallel-vec"``
        (shard-process count, and the minimum kill-scan size that
        triggers fan-out; see ``docs/performance.md``).

    Examples
    --------
    >>> from repro.graphs.generators import cycle_graph
    >>> res = maximal_matching(cycle_graph(6), seed=1)
    >>> res.size in (2, 3)
    True
    """
    opts = resolve_options(
        options,
        dict(
            method=method,
            prefix_size=prefix_size,
            prefix_frac=prefix_frac,
            seed=seed,
            machine=machine,
            guards=guards,
            budget=budget,
            fallback=fallback,
            tracer=tracer,
            workers=workers,
            min_fanout=min_fanout,
        ),
    )
    full = resolve_guard_mode(opts.guards) == "full"
    if isinstance(graph_or_edges, CSRGraph):
        check_csr_graph(graph_or_edges)
        if full:
            check_csr_symmetric(graph_or_edges)
        edges = graph_or_edges.edge_list()
    elif isinstance(graph_or_edges, EdgeList):
        check_edge_list(graph_or_edges)
        edges = graph_or_edges
    else:
        raise EngineError(
            f"expected CSRGraph or EdgeList, got {type(graph_or_edges).__name__}"
        )
    return engine_registry.front_door(
        "matching", edges, ranks, edges.num_edges, opts
    )
