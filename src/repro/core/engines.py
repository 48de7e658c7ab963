"""Unified engine registry: one table from method name to engine callable.

Both front doors (:func:`repro.core.mis.maximal_independent_set` and
:func:`repro.core.matching.maximal_matching`), the CLI ``--method``
choices, and the docs-integrity checks all read from this module, so an
engine added here is simultaneously dispatchable, listed, and documented.
The front doors validate their graph payload and then hand the rest of
the request to :func:`front_door`, the one body they share: gated-knob
rejection, the priority check, dispatch, and ``fallback=True``
degradation.

Each engine is described by a frozen :class:`EngineSpec` carrying the
dotted module path, the callable name, and honest capability flags:

* ``supports_guards`` — accepts the ``guards="off|cheap|full"`` knob;
* ``supports_prefix_knobs`` — accepts ``prefix_size``/``prefix_frac``;
* ``supports_ranks`` — consumes a caller-supplied priority array;
* ``deterministic`` — output is a pure function of (input, ranks);
* ``fallback`` — member of the graceful-degradation chain;
* ``supports_workers`` — accepts the parallel tier's ``workers=`` and
  ``min_fanout=`` (process fan-out) knobs.

Engine modules are resolved lazily (:meth:`EngineSpec.resolve` imports on
first use), so this module imports nothing from the engine layer at import
time and can be loaded from anywhere without circular imports.

The degradation order used by ``fallback=True`` is *derived* from
registration order instead of being hard-coded in each front door:
fallback-capable engines are registered slowest-first, and
:func:`fallback_chain` reverses that, yielding ``rootset-vec →
sequential``.  The pointer ``rootset`` engine is not a rung: like
``sequential`` it runs no frontier kernel, so a kernel fault that fails
``rootset-vec`` spares both, and it is never faster than ``sequential``.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

from repro.core.orderings import validate_priorities
from repro.errors import EngineError, InvariantViolationError

__all__ = [
    "EngineSpec",
    "MethodsView",
    "PROBLEMS",
    "engine_methods",
    "engine_specs",
    "fallback_chain",
    "front_door",
    "get_engine",
    "register_engine",
    "dispatch",
    "solve",
    "unsupported_knobs",
]

#: Problems the registry knows about.
PROBLEMS = ("mis", "matching")

#: Human labels used in error messages ("unknown MIS method ...").
_PROBLEM_LABEL = {"mis": "MIS", "matching": "matching"}


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: location, identity, and capability flags."""

    problem: str  #: "mis" or "matching"
    method: str  #: public method name, e.g. "rootset-vec"
    module: str  #: dotted module path holding the callable
    func: str  #: attribute name of the engine callable
    algorithm: str  #: ``stats.algorithm`` value the engine reports
    summary: str = ""  #: one-line description for docs/CLI help
    supports_guards: bool = False
    supports_prefix_knobs: bool = False
    supports_ranks: bool = True
    deterministic: bool = True
    fallback: bool = False  #: member of the degradation chain
    supports_workers: bool = False  #: accepts ``workers=``/``min_fanout=``

    def resolve(self) -> Callable[..., Any]:
        """Import the engine module and return the callable (lazy)."""
        return getattr(importlib.import_module(self.module), self.func)


# Ordered per problem: dicts preserve insertion order, which is the order
# methods() reports and fallback_chain() reverses.
_REGISTRY: Dict[str, Dict[str, EngineSpec]] = {p: {} for p in PROBLEMS}

# (problem, method) -> frozenset of keyword names the callable accepts.
# Populated on first dispatch so `resolve` stays the only import trigger.
_ACCEPTS: Dict[Tuple[str, str], frozenset] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add *spec* to the registry.  Duplicate method names are an error."""
    if spec.problem not in _REGISTRY:
        raise EngineError(
            f"unknown problem {spec.problem!r}; expected one of {PROBLEMS}"
        )
    table = _REGISTRY[spec.problem]
    if spec.method in table:
        raise EngineError(
            f"duplicate {_PROBLEM_LABEL[spec.problem]} engine {spec.method!r}"
        )
    table[spec.method] = spec
    return spec


def _problem_table(problem: str) -> Dict[str, EngineSpec]:
    try:
        return _REGISTRY[problem]
    except KeyError:
        raise EngineError(
            f"unknown problem {problem!r}; expected one of {PROBLEMS}"
        ) from None


def engine_methods(problem: str) -> Tuple[str, ...]:
    """Registered method names for *problem*, in registration order."""
    return tuple(_problem_table(problem))


def engine_specs(problem: str) -> Tuple[EngineSpec, ...]:
    """Registered :class:`EngineSpec` rows for *problem*, in order."""
    return tuple(_problem_table(problem).values())


def get_engine(problem: str, method: str) -> EngineSpec:
    """Look up one engine; unknown names raise listing what is registered."""
    table = _problem_table(problem)
    try:
        return table[method]
    except KeyError:
        raise EngineError(
            f"unknown {_PROBLEM_LABEL[problem]} method {method!r}; "
            f"expected one of {tuple(table)}"
        ) from None


def fallback_chain(problem: str) -> Tuple[str, ...]:
    """Degradation order: fallback-capable engines, fastest first.

    Derived from the registry — fallback engines register slowest-first,
    so reversing registration order yields ``rootset-vec → sequential``
    without either front door hard-coding the chain.
    """
    return tuple(
        spec.method
        for spec in reversed(engine_specs(problem))
        if spec.fallback
    )


#: Engine-specific request knobs gated by a capability flag, i.e. the
#: options a front door *rejects* (EngineError) when the target engine's
#: flag is off.  Keys are flag attribute names on :class:`EngineSpec`.
_GATED_KNOBS = {
    "supports_prefix_knobs": ("prefix_size", "prefix_frac"),
    "supports_workers": ("workers", "min_fanout"),
}


def unsupported_knobs(problem: str, method: str) -> frozenset:
    """Request knobs the named engine would reject at the front door.

    The service strips exactly this set from a request's options before a
    *degraded* attempt — anything the target engine cannot accept would
    otherwise raise a non-retryable :class:`~repro.errors.EngineError`
    and poison every retry.  Derived from the capability flags, so a new
    gated knob only needs a :data:`_GATED_KNOBS` entry, not another
    hand-maintained list in the service.
    """
    spec = get_engine(problem, method)
    out = set()
    for flag, knobs in _GATED_KNOBS.items():
        if not getattr(spec, flag):
            out.update(knobs)
    return frozenset(out)


class MethodsView(Sequence):
    """Live, ordered, tuple-like view of one problem's method names.

    ``MIS_METHODS``/``MM_METHODS`` are instances, so membership tests,
    iteration, indexing and ``repr`` keep working for existing callers
    while the single source of truth is the registry.
    """

    __slots__ = ("_problem",)

    def __init__(self, problem: str) -> None:
        _problem_table(problem)  # validate eagerly
        object.__setattr__(self, "_problem", problem)

    def __getitem__(self, index):
        return engine_methods(self._problem)[index]

    def __len__(self) -> int:
        return len(_problem_table(self._problem))

    def __iter__(self) -> Iterator[str]:
        return iter(engine_methods(self._problem))

    def __contains__(self, item: object) -> bool:
        return item in _problem_table(self._problem)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MethodsView):
            other = tuple(other)
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(engine_methods(self._problem))


def _accepted_keywords(spec: EngineSpec) -> frozenset:
    key = (spec.problem, spec.method)
    cached = _ACCEPTS.get(key)
    if cached is None:
        params = inspect.signature(spec.resolve()).parameters
        cached = frozenset(
            name
            for name, p in params.items()
            if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
        )
        _ACCEPTS[key] = cached
    return cached


def dispatch(problem: str, method: str, payload, ranks=None, **options):
    """Run one registered engine on *payload* (graph or edge list).

    Options the engine does not accept are dropped here — the front doors
    have already rejected knobs that are *meaningful but unsupported*
    (via the capability flags), so what remains are uniform pass-through
    options (``seed``/``machine``/``guards``/``budget``/``tracer``/…)
    that simply do not apply to every engine.
    """
    spec = get_engine(problem, method)
    fn = spec.resolve()
    accepts = _accepted_keywords(spec)
    kwargs = {k: v for k, v in options.items() if k in accepts}
    if not spec.supports_ranks:
        # Engines like Luby's take no priority argument at all; the front
        # door has already rejected a caller-supplied ranks array.
        return fn(payload, **kwargs)
    return fn(payload, ranks, **kwargs)


def solve(problem: str, graph_or_edges, ranks=None, **options):
    """Single front door over both problems.

    ``solve("mis", g, method="rootset-vec", seed=0)`` is exactly
    ``maximal_independent_set(g, method="rootset-vec", seed=0)``; likewise
    ``solve("matching", ...)`` (alias ``"mm"``) delegates to
    :func:`repro.core.matching.maximal_matching`.  All keyword options are
    forwarded unchanged, so the full validation boundary (graph/rank
    checks, capability-flag errors, guards/budget/fallback/tracer) applies.
    """
    if problem == "mm":
        problem = "matching"
    if problem == "mis":
        from repro.core.mis.api import maximal_independent_set

        return maximal_independent_set(graph_or_edges, ranks, **options)
    if problem == "matching":
        from repro.core.matching.api import maximal_matching

        return maximal_matching(graph_or_edges, ranks, **options)
    raise EngineError(
        f"unknown problem {problem!r}; expected 'mis' or 'matching'"
    )


# Exceptions a fallback retry may absorb: invariant violations and the
# crash signatures of corrupted numeric state.  Configuration and input
# errors (EngineError, InvalidGraphError, InvalidOrderingError,
# BudgetExceededError) are NOT caught — they would fail identically on
# every engine in the chain.
_FALLBACK_CATCH = (
    InvariantViolationError,
    IndexError,
    ValueError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


def _reject_gated_knobs(spec: EngineSpec, options) -> None:
    for flag, knobs in _GATED_KNOBS.items():
        if getattr(spec, flag) or all(
            getattr(options, knob) is None for knob in knobs
        ):
            continue
        allowed = " or ".join(
            repr(s.method) for s in engine_specs(spec.problem) if getattr(s, flag)
        )
        raise EngineError(
            f"{'/'.join(knobs)} only apply to method={allowed}, "
            f"not {spec.method!r}"
        )


def front_door(problem: str, payload, ranks, size: int, options):
    """The body both front doors share once their payload is validated.

    Rejects every gated knob *options* sets that its engine does not take
    (:data:`_GATED_KNOBS`), checks *ranks* as a permutation of
    ``0..size-1``, and dispatches.  With ``options.fallback``, an engine
    failing with one of :data:`_FALLBACK_CATCH` is retried down
    ``method → fallback_chain(problem)``; the result then carries
    ``stats.aux["degraded"]``, ``["fallback_engine"]`` and
    ``["fallback_attempts"]``.  Retries get the same keywords:
    :func:`dispatch` drops whatever a chain engine does not accept.
    """
    spec = get_engine(problem, options.method)
    _reject_gated_knobs(spec, options)
    if ranks is not None:
        ranks = validate_priorities(ranks, size)
        if not spec.supports_ranks:
            raise EngineError(
                f"method={spec.method!r} regenerates priorities every round "
                "and ignores ranks; omit the ranks argument"
            )
    kwargs = options.engine_kwargs()
    if not options.fallback:
        return dispatch(problem, spec.method, payload, ranks, **kwargs)
    attempts = []
    chain = [spec.method] + [
        m for m in fallback_chain(problem) if m != spec.method
    ]
    for method in chain:
        try:
            result = dispatch(problem, method, payload, ranks, **kwargs)
        except _FALLBACK_CATCH as exc:
            attempts.append(
                {"method": method, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        if attempts:
            result.stats.aux["degraded"] = True
            result.stats.aux["fallback_engine"] = method
            result.stats.aux["fallback_attempts"] = attempts
        return result
    raise EngineError(
        f"all fallback engines failed for method {spec.method!r}: "
        + "; ".join(f"{a['method']}: {a['error']}" for a in attempts)
    )


# ---------------------------------------------------------------------------
# Registrations.  Order matters: it is the public listing order, and the
# fallback-capable engines (sequential → rootset-vec, i.e. slowest first)
# reverse into the degradation chain.
# ---------------------------------------------------------------------------

register_engine(EngineSpec(
    problem="mis", method="sequential",
    module="repro.core.mis.sequential", func="sequential_greedy_mis",
    algorithm="mis/sequential",
    summary="Algorithm 1: the paper's sequential greedy baseline",
    fallback=True,
))
register_engine(EngineSpec(
    problem="mis", method="parallel",
    module="repro.core.mis.parallel", func="parallel_greedy_mis",
    algorithm="mis/parallel",
    summary="Algorithm 2: full-graph parallel greedy (root peeling)",
))
register_engine(EngineSpec(
    problem="mis", method="prefix",
    module="repro.core.mis.prefix", func="prefix_greedy_mis",
    algorithm="mis/prefix",
    summary="Algorithm 3: prefix-based schedule (the paper's workhorse)",
    supports_guards=True, supports_prefix_knobs=True,
))
register_engine(EngineSpec(
    problem="mis", method="theorem45",
    module="repro.core.mis.prefix", func="theorem45_prefix_mis",
    algorithm="mis/prefix",
    summary="Algorithm 3 under the adaptive Theorem 4.5 prefix schedule",
    supports_guards=True,
))
register_engine(EngineSpec(
    problem="mis", method="rootset",
    module="repro.core.mis.rootset", func="rootset_mis",
    algorithm="mis/rootset",
    summary="Linear-work root-set engine (pointer implementation)",
    supports_guards=True,
))
register_engine(EngineSpec(
    problem="mis", method="rootset-vec",
    module="repro.core.mis.rootset_vectorized", func="rootset_mis_vectorized",
    algorithm="mis/rootset-vec",
    summary="Vectorized root-set engine on the frontier kernels",
    supports_guards=True, fallback=True,
))
register_engine(EngineSpec(
    problem="mis", method="parallel-vec",
    module="repro.core.mis.parallel_vectorized", func="parallel_mis_vectorized",
    algorithm="mis/parallel-vec",
    summary="Process-parallel root-set engine (shared-memory fan-out)",
    supports_guards=True, supports_workers=True,
))
register_engine(EngineSpec(
    problem="mis", method="luby",
    module="repro.core.mis.luby", func="luby_mis",
    algorithm="mis/luby",
    summary="Luby's randomized MIS baseline (re-randomizes every round)",
    supports_ranks=False, deterministic=False,
))

register_engine(EngineSpec(
    problem="matching", method="sequential",
    module="repro.core.matching.sequential", func="sequential_greedy_matching",
    algorithm="mm/sequential",
    summary="Sequential greedy matching over the edge order",
    fallback=True,
))
register_engine(EngineSpec(
    problem="matching", method="parallel",
    module="repro.core.matching.parallel", func="parallel_greedy_matching",
    algorithm="mm/parallel",
    summary="Full-edge-set parallel greedy matching",
))
register_engine(EngineSpec(
    problem="matching", method="prefix",
    module="repro.core.matching.prefix", func="prefix_greedy_matching",
    algorithm="mm/prefix",
    summary="Prefix-based matching schedule (Section 5)",
    supports_guards=True, supports_prefix_knobs=True,
))
register_engine(EngineSpec(
    problem="matching", method="rootset",
    module="repro.core.matching.rootset", func="rootset_matching",
    algorithm="mm/rootset",
    summary="Linear-work root-set matching (pointer implementation)",
    supports_guards=True,
))
register_engine(EngineSpec(
    problem="matching", method="rootset-vec",
    module="repro.core.matching.rootset_vectorized",
    func="rootset_matching_vectorized",
    algorithm="mm/rootset-vec",
    summary="Vectorized root-set matching on the frontier kernels",
    supports_guards=True, fallback=True,
))
register_engine(EngineSpec(
    problem="matching", method="parallel-vec",
    module="repro.core.matching.parallel_vectorized",
    func="parallel_matching_vectorized",
    algorithm="mm/parallel-vec",
    summary="Process-parallel matching engine (shared-memory kill-scans)",
    supports_guards=True, supports_workers=True,
))
