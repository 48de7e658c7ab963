"""One frozen options record shared by every front door.

:class:`SolveOptions` consolidates the knob sprawl that used to be
repeated — kwarg by kwarg — across :func:`repro.core.mis.api.
maximal_independent_set`, :func:`repro.core.matching.api.maximal_matching`,
:class:`repro.service.config.SolveRequest`, and now the session API
(:mod:`repro.dynamic`).  Each front door accepts ``options=SolveOptions(...)``
and keeps its legacy keyword arguments as a thin shim that builds the same
record internally (see :func:`resolve_options`), so existing callers keep
working while new surfaces only need to thread one object.

The field set is **registry-derived**: :func:`canonical_knobs` unions the
universal knobs every engine accepts with the gated knobs declared in
:data:`repro.core.engines._GATED_KNOBS`, and an import-time check pins the
dataclass to exactly ``{"method"} | canonical_knobs()``.  Adding a new
gated knob to the registry without a matching :class:`SolveOptions` field
is therefore an immediate ``ImportError`` instead of a silent per-front-door
drift.

Wire safety: ``budget`` / ``tracer`` / ``machine`` hold live Python objects
(clocks, sinks, PRAM traces) that cannot cross a process or HTTP boundary;
:meth:`SolveOptions.to_wire` rejects them so the service and gateway fail
loudly instead of silently dropping behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import EngineError

__all__ = [
    "SolveOptions",
    "canonical_knobs",
    "resolve_options",
    "LOCAL_KNOBS",
    "UNIVERSAL_KNOBS",
]

#: Knobs every registered engine accepts (threaded by both front doors
#: regardless of capability flags; ``dispatch`` drops what a callable
#: does not take).
UNIVERSAL_KNOBS: Tuple[str, ...] = (
    "seed",
    "guards",
    "budget",
    "fallback",
    "tracer",
    "machine",
)

#: Knobs that hold live, non-serializable objects — valid in-process,
#: rejected by :meth:`SolveOptions.to_wire`.
LOCAL_KNOBS: Tuple[str, ...] = ("budget", "tracer", "machine")


def canonical_knobs() -> Tuple[str, ...]:
    """The one canonical knob list, derived from the engine registry.

    Universal knobs first, then every gated knob named by
    :data:`repro.core.engines._GATED_KNOBS` in declaration order.  Front
    doors and integrity tests compare against this instead of keeping
    their own hand-maintained lists.
    """
    from repro.core import engines as engine_registry

    gated = []
    for knobs in engine_registry._GATED_KNOBS.values():
        for knob in knobs:
            if knob not in gated:
                gated.append(knob)
    return UNIVERSAL_KNOBS + tuple(gated)


@dataclass(frozen=True)
class SolveOptions:
    """Every front-door knob, in one frozen record.

    Defaults are identical to the legacy keyword arguments of
    :func:`~repro.core.mis.api.maximal_independent_set` /
    :func:`~repro.core.matching.api.maximal_matching`, so
    ``SolveOptions()`` means "the defaults" everywhere.

    Attributes
    ----------
    method:
        Engine name (see ``MIS_METHODS`` / ``MM_METHODS``).
    seed:
        Randomness source for priorities (and Luby's rounds).
    guards:
        Invariant-check mode ``off|cheap|full`` (``None`` = engine
        default, i.e. off).
    budget:
        Optional :class:`~repro.robustness.Budget`.  Local-only: rejected
        by :meth:`to_wire` (wire callers use ``timeout_seconds`` /
        ``budget_steps`` on the request instead).
    fallback:
        Graceful degradation down the registry fallback chain.
    tracer, machine:
        Live observability objects; local-only like ``budget``.
    prefix_size, prefix_frac:
        Prefix-schedule knobs (engines with ``supports_prefix_knobs``),
        checked by the engines' rule
        (:func:`~repro.core.mis.prefix.resolve_prefix_size`): an integer
        ``>= 1`` or a fraction in ``(0, 1]``, at most one of them.  A bad
        value raises :class:`~repro.errors.EngineError` here, where the
        options enter, so no front door, fallback chain or service retry
        mistakes it for an engine failure.
    """

    method: str = "prefix"
    seed: Any = None
    guards: Optional[str] = None
    budget: Optional[Any] = None
    fallback: bool = False
    tracer: Optional[Any] = None
    machine: Optional[Any] = None
    prefix_size: Optional[int] = None
    prefix_frac: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise EngineError(f"method must be a non-empty string, got {self.method!r}")
        if not isinstance(self.fallback, bool):
            raise EngineError(f"fallback must be a bool, got {self.fallback!r}")
        if self.guards is not None and not isinstance(self.guards, str):
            raise EngineError(f"guards must be a string mode, got {self.guards!r}")
        from repro.core.mis.prefix import resolve_prefix_size

        try:  # the engines' own rule, raised here as a caller's error
            resolve_prefix_size(1, self.prefix_size, self.prefix_frac)
        except (TypeError, ValueError) as exc:
            raise EngineError(str(exc)) from None

    # -- derived views ---------------------------------------------------

    def engine_kwargs(self) -> Dict[str, Any]:
        """Knob dict passed to registry dispatch (everything but method/fallback)."""
        return {
            "prefix_size": self.prefix_size,
            "prefix_frac": self.prefix_frac,
            "seed": self.seed,
            "machine": self.machine,
            "guards": self.guards,
            "budget": self.budget,
            "tracer": self.tracer,
        }

    def replace(self, **changes: Any) -> "SolveOptions":
        """A copy with *changes* applied (frozen-dataclass convenience)."""
        return replace(self, **changes)

    # -- wire conversion -------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe dict of the non-default fields.

        Raises :class:`~repro.errors.EngineError` if any local-only knob
        (``budget``/``tracer``/``machine``) is set — those objects cannot
        cross a process or HTTP boundary and must be expressed as request
        fields (``timeout_seconds``, ``budget_steps``, ``trace_path``).
        """
        bad = [k for k in LOCAL_KNOBS if getattr(self, k) is not None]
        if bad:
            raise EngineError(
                f"SolveOptions fields {bad} hold live objects and are not "
                "wire-serializable; use the request-level equivalents"
            )
        out: Dict[str, Any] = {}
        for f in fields(self):
            if f.name in LOCAL_KNOBS:
                continue
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "SolveOptions":
        """Inverse of :meth:`to_wire`; unknown keys raise ``EngineError``."""
        if not isinstance(data, dict):
            raise EngineError(f"options must be an object, got {type(data).__name__}")
        allowed = {f.name for f in fields(cls)} - set(LOCAL_KNOBS)
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise EngineError(f"unknown SolveOptions fields: {unknown}")
        return cls(**data)


_DEFAULTS = {f.name: f.default for f in fields(SolveOptions)}


def resolve_options(options: Optional[SolveOptions], legacy: Dict[str, Any]) -> SolveOptions:
    """Merge an ``options=`` argument with the legacy kwarg shim.

    *legacy* maps every legacy kwarg name to the value the caller passed
    (front doors forward their raw parameters).  With ``options=None`` the
    legacy values simply build a :class:`SolveOptions`.  When *options* is
    given, every legacy kwarg must be left at its default — mixing the two
    spellings is ambiguous and raises :class:`~repro.errors.EngineError`.
    """
    unknown = sorted(set(legacy) - set(_DEFAULTS))
    if unknown:
        raise EngineError(f"unknown solve knobs: {unknown}")
    if options is None:
        return SolveOptions(**legacy)
    if not isinstance(options, SolveOptions):
        raise EngineError(
            f"options must be a SolveOptions, got {type(options).__name__}"
        )
    clash = sorted(k for k, v in legacy.items() if v != _DEFAULTS[k])
    if clash:
        raise EngineError(
            f"pass either options= or the legacy kwargs, not both (got {clash})"
        )
    return options


def _check_field_drift() -> None:
    # Import-time pin: the dataclass must cover exactly the registry's
    # canonical knob list (plus the method selector).  A new gated knob
    # without a SolveOptions field fails here, at import, not at some
    # front door later.
    expected = {"method", *canonical_knobs()}
    actual = {f.name for f in fields(SolveOptions)}
    if expected != actual:
        raise ImportError(
            "SolveOptions fields drifted from the registry knob list: "
            f"missing={sorted(expected - actual)} extra={sorted(actual - expected)}"
        )


_check_field_drift()
