"""Front door for MIS: registry dispatch with uniform options.

Most users should call :func:`maximal_independent_set`; the per-engine
functions remain available for code that needs engine-specific knobs.

Dispatch goes exclusively through the :mod:`repro.core.engines` registry:
:data:`MIS_METHODS` is a live view of the registered engines, and after
the graph check the request runs through
:func:`repro.core.engines.front_door`, the body both front doors share:
unsupported knobs are rejected via each engine's capability flags, and
the graceful-degradation chain for ``fallback=True`` is derived from
registry order.

The front door is also the validation boundary (see
:mod:`repro.robustness.validate`): graph arrays are re-checked against the
CSR invariants and *ranks* must be a genuine permutation **before** any
engine dispatch, so corrupted inputs fail loudly instead of producing a
wrong-but-plausible set.  ``guards``/``budget``/``tracer`` thread through
to the engines that accept them, and ``fallback=True`` adds graceful
degradation: a failed engine is retried down the chain ``rootset-vec →
sequential`` with the degradation recorded in ``result.stats.aux``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import engines as engine_registry
from repro.core.options import SolveOptions, resolve_options
from repro.core.result import MISResult
from repro.graphs.csr import CSRGraph
from repro.pram.machine import Machine
from repro.robustness.budget import Budget
from repro.robustness.guards import resolve_guard_mode
from repro.robustness.validate import check_csr_graph, check_csr_symmetric
from repro.util.rng import SeedLike

__all__ = ["maximal_independent_set", "MIS_METHODS"]

#: Engine names accepted by :func:`maximal_independent_set` — a live view
#: of the :mod:`repro.core.engines` registry.  ``theorem45`` is the prefix
#: engine driven by the adaptive schedule from the proof of Theorem 4.5
#: (geometric degree-halving prefixes); ``rootset-vec`` is the vectorized
#: twin of ``rootset`` (same step structure, frontier-kernel execution).
MIS_METHODS = engine_registry.MethodsView("mis")


def maximal_independent_set(
    graph: CSRGraph,
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
) -> MISResult:
    """Compute a maximal independent set of *graph*.

    Parameters
    ----------
    options:
        A :class:`~repro.core.options.SolveOptions` carrying every knob
        below in one frozen record — the preferred spelling for new code
        and the only one the service/session layers use.  When given, the
        legacy keyword arguments must be left at their defaults (mixing
        raises :class:`~repro.errors.EngineError`); the legacy kwargs
        remain supported as a shim that builds the same record.
    graph:
        Simple undirected :class:`~repro.graphs.csr.CSRGraph`.  Its arrays
        are re-validated against the CSR invariants here (symmetry too,
        under ``guards="full"``); corruption raises
        :class:`~repro.errors.InvalidGraphError`.
    ranks:
        Priority array (vertex → rank; smaller = earlier).  Random from
        *seed* when omitted.  Must be a permutation of ``0..n-1``;
        anything else (wrong length, NaN, duplicates) raises
        :class:`~repro.errors.InvalidOrderingError` before dispatch.
        Rejected by ``method="luby"``, which re-randomizes internally
        (its registry entry has ``supports_ranks=False``).
    method:
        One of :data:`MIS_METHODS`.  ``"sequential"``, ``"parallel"``,
        ``"prefix"``, ``"rootset"``, ``"rootset-vec"`` and
        ``"parallel-vec"`` all return the lexicographically first MIS for
        *ranks* (the paper's determinism property); ``"luby"`` returns a
        seed-dependent MIS.
    prefix_size, prefix_frac:
        Prefix knobs, only meaningful for ``method="prefix"``.
    seed:
        Randomness source for priorities (and Luby's rounds).
    machine:
        Optional :class:`~repro.pram.machine.Machine` to charge; useful to
        share one trace across phases.
    guards:
        Invariant-check mode ``off|cheap|full`` (default off), applied by
        the engines that support per-round guards (prefix, rootset,
        rootset-vec); violations raise
        :class:`~repro.errors.InvariantViolationError`.
    budget:
        Optional :class:`~repro.robustness.Budget` shared by the run (and
        by fallback retries); exhaustion raises
        :class:`~repro.errors.BudgetExceededError`, which ``fallback``
        does **not** absorb.
    fallback:
        When true, an engine failing with an invariant violation or a
        numeric crash is retried down ``rootset-vec → sequential``
        (skipping the method that failed).  The successful
        result carries ``stats.aux["degraded"] = True``,
        ``stats.aux["fallback_engine"]`` and
        ``stats.aux["fallback_attempts"]`` (the per-engine error log).
        Engine-specific prefix knobs are not forwarded to retries.
    tracer:
        Optional :class:`~repro.observability.Tracer` receiving one round
        event per synchronous step (see ``docs/observability.md``).
    workers:
        Shard-process count, only meaningful for ``method="parallel-vec"``
        (registry flag ``supports_workers``); defaults to
        ``REPRO_WORKERS``, else ``min(cpu_count, 4)``.  See
        ``docs/performance.md``.
    min_fanout:
        Minimum gathered-arc count before a ``parallel-vec`` step fans out
        to shard processes (smaller steps run locally); defaults to
        :data:`repro.core.fanout.DEFAULT_MIN_FANOUT`.  Set ``0`` to force
        fan-out on every step (used by parity tests).

    Returns
    -------
    MISResult
        Membership, the order used, and work/depth/step accounting.

    Examples
    --------
    >>> from repro.graphs.generators import cycle_graph
    >>> res = maximal_independent_set(cycle_graph(5), seed=0)
    >>> res.size in (2,)
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
    check_csr_graph(graph)
    if full:
        check_csr_symmetric(graph)
    return engine_registry.front_door(
        "mis", graph, ranks, graph.num_vertices, opts
    )
