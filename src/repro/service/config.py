"""Service configuration and the request record.

:class:`ServiceConfig` is the one knob surface for
:class:`~repro.service.SolverService`: pool sizing, admission control,
retry/backoff policy, circuit-breaker tuning, deadline enforcement, and
the seeded chaos hooks that make the service itself testable under
fault storms.  :class:`SolveRequest` describes one unit of work — a
solver run (``problem="mis"``/``"matching"``) or a generic
crash-isolated call (``problem="call"``).

Everything random in the service (backoff jitter, chaos draws) comes
from per-request, per-attempt
``np.random.default_rng((seed, request_id, attempt))`` streams (seed
``0`` for jitter, ``chaos_seed`` for chaos), so a retry's backoff and
an attempt's kill, and its fault on a given engine, replay regardless
of completion order.  Which engine an attempt runs can depend on breaker
state, which does not replay (see :mod:`repro.service.service`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.options import SolveOptions

__all__ = ["ServiceConfig", "SolveRequest"]

_START_METHODS = ("fork", "spawn", "forkserver")
_PROBLEMS = ("mis", "matching", "mm", "call")

#: The library front doors' default engine, read once: a request that
#: names no engine runs it, in process and through the service alike.
_LIBRARY_METHOD: str = SolveOptions.__dataclass_fields__["method"].default


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for a :class:`~repro.service.SolverService`.

    Parameters
    ----------
    workers:
        Subprocess pool size.
    max_queue:
        Bound on queued (not yet dispatched) requests; a full queue sheds
        load by raising :class:`~repro.errors.QueueFullError` at submit.
    start_method:
        Multiprocessing start method (``fork``/``spawn``/``forkserver``).
    max_retries:
        Additional attempts after the first, per request, across crash
        and engine failures.
    backoff_base, backoff_max:
        Exponential backoff between attempts: attempt *k* (1-based retry)
        sleeps ``min(backoff_max, backoff_base * 2**(k-1))`` scaled by a
        uniform ``1 ± 0.25`` drawn from the per-request stream
        ``(0, request id, k)``.
    chaos_seed:
        Seed for the chaos stream.
    breaker_threshold, breaker_reset_seconds:
        Per-engine circuit breaker tuning (see
        :class:`~repro.service.breaker.CircuitBreaker`).
    deadline_grace:
        Extra parent-side seconds past a request's deadline before the
        worker is presumed hung and killed.
    hang_timeout:
        Kill-and-retry bound for requests *without* deadlines; ``None``
        disables it.
    kill_probability, kill_point:
        Chaos: probability that an attempt's worker is hard-killed
        (``os._exit``), and where (``"pre"``/``"post"`` compute; ``None``
        picks per-attempt from the seeded stream).
    fault_probability:
        Chaos: probability that a seeded kernel
        :class:`~repro.robustness.FaultSpec` is armed inside the worker
        for the attempt.  The kind is drawn from those whose kernel the
        attempt's engine binds (:func:`~repro.robustness.kernel_faults_for`):
        ``"min-lift"`` on ``prefix``, four frontier faults on
        ``rootset-vec``, none on ``sequential``.
    worker_sys_path:
        Extra ``sys.path`` entries prepended in workers (lets ``"call"``
        jobs import script modules).
    tick:
        Scheduler poll interval in seconds (latency floor for pickups).
    cache_entries:
        Size of the content-addressed result cache
        (:class:`~repro.service.cache.ResultCache`) consulted by
        :meth:`~repro.service.SolverService.solve_cached`; ``0`` (the
        default) disables caching entirely.
    session_dir:
        Directory for durable session snapshots
        (:class:`~repro.dynamic.store.SnapshotStore`).  When set, every
        committed session version is persisted atomically and sessions
        survive full service restarts via
        :meth:`~repro.service.SolverService.restore_session`; ``None``
        (the default) keeps session state in memory only.
    """

    workers: int = 2
    max_queue: int = 64
    start_method: str = "fork"
    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_max: float = 0.5
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 5.0
    deadline_grace: float = 0.5
    hang_timeout: Optional[float] = None
    kill_probability: float = 0.0
    kill_point: Optional[str] = None
    fault_probability: float = 0.0
    chaos_seed: int = 0
    worker_sys_path: Tuple[str, ...] = ()
    tick: float = 0.02
    cache_entries: int = 0
    session_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("backoff_base", "backoff_max", "tick"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("kill_probability", "fault_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.kill_point not in (None, "pre", "post"):
            raise ValueError(
                f"kill_point must be None, 'pre' or 'post', got {self.kill_point!r}"
            )
        if not self.deadline_grace >= 0:
            raise ValueError(
                f"deadline_grace must be >= 0, got {self.deadline_grace}"
            )
        if self.hang_timeout is not None and not self.hang_timeout > 0:
            raise ValueError(
                f"hang_timeout must be positive, got {self.hang_timeout}"
            )
        if self.cache_entries < 0:
            raise ValueError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )

    @property
    def chaos_enabled(self) -> bool:
        """Whether any chaos knob is armed."""
        return self.kill_probability > 0.0 or self.fault_probability > 0.0


@dataclass
class SolveRequest:
    """One unit of work for the service.

    Parameters
    ----------
    problem:
        ``"mis"``, ``"matching"`` (alias ``"mm"``), or ``"call"``.
    payload:
        The graph (:class:`~repro.graphs.csr.CSRGraph` or
        :class:`~repro.graphs.csr.EdgeList`) for solver problems; for
        ``"call"`` a dict ``{"module", "func"[, "args", "kwargs"]}``.
    ranks:
        Optional priority array; workers draw from ``options["seed"]``
        when omitted, exactly like the front doors.
    method:
        Engine name (default: the library's, ``prefix``); must be
        registered for the problem.
    guards:
        Guard mode handed to the worker (default: the front door's).
    timeout_seconds:
        Wall-clock deadline measured from submission.  Propagated into
        the worker as ``Budget(max_seconds=remaining)`` and enforced
        parent-side with the config's ``deadline_grace``.
    budget_steps:
        Synchronous-step allowance propagated as ``Budget(max_steps=…)``.
    trace_path:
        Per-request JSONL trace written by the worker via
        :class:`~repro.observability.JSONLSink`.
    options:
        Extra engine keywords forwarded to the front door
        (``seed``, ``prefix_size``, ``prefix_frac``, …), or a
        :class:`~repro.core.options.SolveOptions` record — the unified
        front-door options object.  A ``SolveOptions`` is normalized in
        ``__post_init__``: its ``method``/``guards`` lift into the
        request fields (conflicting explicit values raise
        ``ValueError``), the remaining wire-safe knobs become the
        options dict, and local-only knobs (``budget``/``tracer``/
        ``machine``) are rejected because they cannot cross the worker
        pipe — use ``timeout_seconds``/``budget_steps``/``trace_path``.
        A solver problem's dict goes through
        :meth:`~repro.core.options.SolveOptions.from_wire` once
        ``method``/``guards`` are lifted, so an unknown or bad knob raises
        :class:`~repro.errors.EngineError` here, before any worker runs.
    """

    problem: str
    payload: Any
    ranks: Any = None
    method: Optional[str] = None
    guards: Optional[str] = None
    timeout_seconds: Optional[float] = None
    budget_steps: Optional[int] = None
    trace_path: Optional[str] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.options, SolveOptions):
            # to_wire rejects budget/tracer/machine and keeps only the
            # non-default fields, so a SolveOptions left at the default
            # method expresses no engine choice.
            self.options = self.options.to_wire()
        if self.options:
            # Lift method/guards into the request fields, so the worker
            # never sees them both as job fields and inside **options.
            opts = dict(self.options)
            o_method = opts.pop("method", None)
            o_guards = opts.pop("guards", None)
            if o_method is not None:
                if self.method is None:
                    self.method = o_method
                elif self.method != o_method:
                    raise ValueError(
                        f"method set to {self.method!r} on the request but "
                        f"{o_method!r} in options"
                    )
            if o_guards is not None:
                if self.guards is None:
                    self.guards = o_guards
                elif self.guards != o_guards:
                    raise ValueError(
                        f"guards set to {self.guards!r} on the request but "
                        f"{o_guards!r} in options"
                    )
            self.options = opts
        if self.problem not in _PROBLEMS:
            raise ValueError(
                f"problem must be one of {_PROBLEMS}, got {self.problem!r}"
            )
        if self.problem == "mm":
            self.problem = "matching"
        if self.problem != "call" and self.options:
            SolveOptions.from_wire(self.options)
        if self.timeout_seconds is not None and not self.timeout_seconds > 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.budget_steps is not None and not self.budget_steps > 0:
            raise ValueError(
                f"budget_steps must be positive, got {self.budget_steps}"
            )
        if self.problem == "call":
            if not (
                isinstance(self.payload, dict)
                and "module" in self.payload
                and "func" in self.payload
            ):
                raise ValueError(
                    "a 'call' request needs payload={'module', 'func'[, 'kwargs']}"
                )
