"""The crash-isolated solver service: scheduling, retries, degradation.

:class:`SolverService` turns the library into a resilient batch server:

* a bounded admission queue (:class:`~repro.errors.QueueFullError` when
  full — load shedding instead of unbounded memory growth);
* a pool of subprocess workers (:mod:`repro.service.pool`) — a crash,
  OOM kill, or hang of one request cannot take down the service or
  disturb sibling requests;
* per-request deadlines, propagated into workers as
  ``Budget(max_seconds=remaining)`` and enforced parent-side with a
  grace window (a hung worker is killed and replaced);
* retry with exponential backoff + seeded jitter on worker death and
  transient engine failures;
* a per-engine circuit breaker that trips after repeated engine failures
  (never a worker death) and degrades requests along the registry's
  :func:`~repro.core.engines.fallback_chain` — safe *by construction*,
  because every chain engine returns the bit-identical sequential-greedy
  answer;
* zero-copy graph registration (:meth:`SolverService.register_graph`):
  a registered graph (and its π, when given) lives in one shared-memory
  segment (:class:`~repro.backends.SharedCSR`), and requests for it send
  only the segment name plus a content fingerprint — no per-request
  pickling; unregistered graphs fall back to the array-pickling path
  transparently;
* answers, not inputs, on the way back: a worker returns ``status``,
  the stats, and π only when it drew π from a seed; the parent re-joins
  π (copied) and a matching's edge arrays from the request;
* one attempt in flight per request: a retry or a degraded attempt is
  dispatched only after the one before it has failed, so every attempt
  recorded in ``result.stats.aux["service"]`` is one step of a single
  ordered sequence;
* a :class:`~repro.service.stats.ServiceStats` snapshot, and graceful
  drain/shutdown (which also unlinks every registered segment);
* resilience hooks: an orphaned-segment reap sweep at every
  :meth:`start`, and :meth:`SolverService.health` for a cross-layer
  health report (which a :class:`~repro.resilience.supervisor.Supervisor`
  can probe from a thread).

The scheduler runs on one background thread; workers are the only other
processes.  All randomness (jitter, chaos draws) comes from streams
keyed by (seed, request id, attempt): seed ``0`` for the backoff jitter,
``chaos_seed`` for chaos.  So at one seed a storm submitted
in order replays its kills: the crash, restart and retry counts of a
kill storm, and every attempt's chaos and outcome, repeat run to run.
A fault is drawn from the kinds the attempt's engine binds, so it
replays as long as the engine does.  Breaker trips, and with them
degraded serves, do not replay: a breaker counts consecutive failures
in completion order across workers, which depends on timing, and an
attempt it moves to another engine draws from that engine's faults.
"""

from __future__ import annotations

import itertools
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

import repro.errors as errors_mod
from repro.core import engines as engine_registry
from repro.core.result import MatchingResult, MISResult, RunStats
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GraphFormatError,
    QueueFullError,
    ServiceError,
    WorkerCrashError,
)
from repro.graphs.csr import EdgeList
from repro.robustness.faults import kernel_faults_for
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache, request_key
from repro.service.config import _LIBRARY_METHOD, ServiceConfig, SolveRequest
from repro.service.pool import WorkerHandle, WorkerPool
from repro.service.stats import ServiceStats, StatsCollector
from repro.service.worker import encode_payload

__all__ = ["ServiceFuture", "SolverService", "serve", "solve_many"]

#: Worker error types that no retry or different engine could fix: the
#: input or configuration itself is bad.  Surfaced immediately.
_NON_RETRYABLE = frozenset({
    "InvalidGraphError",
    "InvalidOrderingError",
    "EngineError",
    "GraphFormatError",
    "TypeError",
})

#: Backoff between attempts: retry *k* sleeps
#: ``min(backoff_max, backoff_base * _BACKOFF_FACTOR**(k-1))`` scaled by a
#: uniform ``1 ± _BACKOFF_JITTER`` drawn from the stream
#: ``(_RETRY_SEED, request id, k)``, so a storm's delays replay.
_BACKOFF_FACTOR = 2.0
_BACKOFF_JITTER = 0.25
_RETRY_SEED = 0


class ServiceFuture:
    """Handle to one submitted request's eventual result.

    A tiny single-shot future: the scheduler thread resolves it exactly
    once with either a value or an exception.
    """

    __slots__ = ("request_id", "_event", "_value", "_exc")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; raises the request's failure if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout}s"
            )
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block for completion; return the failure (None on success)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout}s"
            )
        return self._exc

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._event.set()


class _Ticket:
    """Scheduler-internal record of one in-progress request."""

    __slots__ = (
        "id", "request", "future", "submitted", "deadline",
        "not_before", "retries", "attempts", "failed_methods",
    )

    def __init__(self, ticket_id: int, request: SolveRequest, now: float) -> None:
        self.id = ticket_id
        self.request = request
        self.future = ServiceFuture(ticket_id)
        self.submitted = now
        self.deadline = (
            None if request.timeout_seconds is None
            else now + request.timeout_seconds
        )
        self.not_before = now
        self.retries = 0
        self.attempts: List[Dict[str, Any]] = []
        self.failed_methods: set = set()


def _reconstruct_error(name: str, message: str) -> BaseException:
    """Map a worker-reported error name back onto the errors taxonomy."""
    cls = getattr(errors_mod, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    return ServiceError(f"{name}: {message}")


class SolverService:
    """A pool-backed, deadline-aware, self-healing batch solver.

    Use as a context manager (``with SolverService(...) as svc``) or call
    :meth:`start` / :meth:`shutdown` explicitly.  See the module
    docstring for the feature inventory and ``docs/robustness.md`` for
    the request lifecycle.

    Examples
    --------
    >>> import repro
    >>> from repro.service import SolverService, SolveRequest
    >>> g = repro.generators.uniform_random_graph(200, 600, seed=0)
    >>> with SolverService(workers=2) as svc:                # doctest: +SKIP
    ...     res = svc.solve(SolveRequest("mis", g, options={"seed": 1}))
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServiceConfig or keyword overrides")
        self.config = config
        self._pool = WorkerPool(
            config.workers,
            start_method=config.start_method,
            sys_path=config.worker_sys_path,
        )
        self._stats = StatsCollector()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: List[_Ticket] = []
        self._delayed: List[_Ticket] = []
        self._ids = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._closed = False
        self._stop = False
        self.cache: Optional[ResultCache] = None
        if config.cache_entries > 0:
            self.cache = ResultCache(config.cache_entries)
        # id(payload) -> (payload, SharedCSR).  The payload reference is
        # load-bearing: it pins the object so the id key can never be
        # recycled while the registration is live.
        self._shared: Dict[int, tuple] = {}
        self._session_manager = None
        self._session_manager_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SolverService":
        """Spawn the worker pool and the scheduler thread (idempotent).

        One orphaned-segment reap sweep runs first, so shared memory
        leaked by previously killed processes is recovered before new
        segments are created.
        """
        with self._lock:
            if self._started:
                return self
            from repro.resilience.reaper import reap_orphans

            try:
                reap_orphans(snapshot_dir=self.config.session_dir)
            except OSError:  # pragma: no cover - ledger dir unusable
                pass
            self._pool.start()
            self._stop = False
            self._closed = False
            self._thread = threading.Thread(
                target=self._run, name="repro-solver-scheduler", daemon=True
            )
            self._started = True
            self._thread.start()
        return self

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting work; wait for queue + in-flight to empty.

        Returns True when everything completed within *timeout* (None
        waits forever).
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closed = True
            while self._outstanding() > 0:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=0.05 if remaining is None else min(0.05, remaining))
            return True

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service: optionally drain, then kill workers.

        Outstanding requests (when not drained) fail with
        :class:`~repro.errors.ServiceError`.
        """
        if not self._started:
            return
        if drain:
            self.drain(timeout=timeout)
        with self._cond:
            self._stop = True
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        leftovers: List[_Ticket] = []
        with self._lock:
            leftovers.extend(self._queue)
            leftovers.extend(self._delayed)
            for w in self._pool.busy():
                if w.job is not None:
                    leftovers.append(w.job)
                    w.job = None
            self._queue.clear()
            self._delayed.clear()
        self._pool.shutdown()
        # Workers are gone; the owner is the last holder of every
        # registered segment, so unlinking here is leak-proof even after
        # worker crashes mid-request.
        for _payload, shared in self._shared.values():
            shared.close()
            shared.unlink()
        self._shared.clear()
        for ticket in leftovers:
            self._finish_error(
                ticket, ServiceError("service shut down before completion"),
                time.monotonic(),
            )
        self._started = False

    # -- shared-memory graph registration ----------------------------------

    def register_graph(self, payload, ranks=None):
        """Place *payload* in shared memory; later requests skip pickling.

        Returns the :class:`~repro.backends.SharedCSR` bundle.  Every
        subsequent :class:`~repro.service.SolveRequest` whose ``payload``
        **is** this object (identity) sends only the segment name plus a
        content fingerprint; workers attach once and reuse zero-copy
        views.  A registered CSR serves both problems: a matching request
        on it solves the CSR's canonical edge list, which each worker
        builds once per attachment.  With *ranks* given, π ships in the
        same segment, and requests whose ``ranks`` equal the registered
        array reuse the shared copy without shipping it.  Nothing else
        is shipped: an engine that needs a priority partition builds it
        in the worker on first use and memoizes it there.

        Nothing comes back but the answer either.  The worker returns
        ``status`` and the stats (plus ``ranks`` when it drew π from a
        seed); the result's π is a private copy of the request's, and a
        matching's ``edge_u``/``edge_v`` are the payload's own edge
        arrays (``edge_list()`` of a CSR), shared by every result on the
        graph.

        The service owns the segment: :meth:`release_graph` or
        :meth:`shutdown` unlinks it.  Registering the same object again
        returns the existing bundle.
        """
        from repro.backends.sharedmem import SharedCSR

        with self._lock:
            entry = self._shared.get(id(payload))
            if entry is not None:
                return entry[1]
            shared = SharedCSR.create(payload, ranks)
            self._shared[id(payload)] = (payload, shared)
            return shared

    def release_graph(self, payload) -> bool:
        """Unlink the segment registered for *payload* (returns whether found).

        In-flight requests keep working — their workers hold attachments,
        and the kernel frees the memory only when the last mapping closes.
        New requests for the object fall back to pickling.
        """
        with self._lock:
            entry = self._shared.pop(id(payload), None)
        if entry is None:
            return False
        entry[1].close()
        entry[1].unlink()
        return True

    def _shared_for(self, payload):
        entry = self._shared.get(id(payload))
        return None if entry is None else entry[1]

    # -- submission --------------------------------------------------------

    def submit(
        self,
        request: SolveRequest,
        *,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> ServiceFuture:
        """Enqueue one request; returns its :class:`ServiceFuture`.

        A full queue raises :class:`~repro.errors.QueueFullError` (the
        rejection is counted as shed load) unless ``block=True``, which
        waits for space instead — the backpressure mode ``solve_many``
        uses.
        """
        if not self._started:
            raise ServiceError("service is not started (call start() or use 'with')")
        if request.problem != "call":
            # Fail unknown methods at submission, not inside a worker.
            engine_registry.get_engine(
                request.problem, request.method or _LIBRARY_METHOD
            )
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise ServiceError("service is draining; submissions closed")
                if len(self._queue) + len(self._delayed) < self.config.max_queue:
                    break
                if not block:
                    self._stats.bump("shed")
                    raise QueueFullError(
                        f"admission queue full ({self.config.max_queue} "
                        "requests); retry later or raise max_queue"
                    )
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._stats.bump("shed")
                    raise QueueFullError(
                        f"no queue space within {timeout}s "
                        f"({self.config.max_queue} queued)"
                    )
                self._cond.wait(timeout=0.05 if remaining is None else min(0.05, remaining))
            ticket = _Ticket(next(self._ids), request, time.monotonic())
            self._queue.append(ticket)
            self._stats.bump("submitted")
            if request.ranks is not None:
                self._stats.bump("explicit_ranks")
            self._cond.notify_all()
        return ticket.future

    def solve(self, request: SolveRequest, timeout: Optional[float] = None) -> Any:
        """Submit and wait: returns the result or raises the typed failure."""
        return self.submit(request).result(timeout)

    # -- content-addressed result caching ----------------------------------

    def request_cache_key(self, request: SolveRequest) -> Optional[str]:
        """The content address for *request*, or ``None`` if uncacheable.

        ``None`` when caching is disabled, the request is a ``"call"``
        (not known to be idempotent), or its ordering is unpinned (no π
        and no ``seed`` knob — a fresh solve draws fresh entropy).  The
        graph digest is recomputed from the live arrays, so a mutated
        shared segment can never alias an entry cached for the old bytes.
        """
        if self.cache is None or request.problem == "call":
            return None
        return request_key(
            request.problem,
            request.payload,
            request.ranks,
            request.method or _LIBRARY_METHOD,
            request.guards,
            request.options,
        )

    def solve_cached(
        self,
        request: SolveRequest,
        timeout: Optional[float] = None,
        *,
        return_key: bool = False,
    ) -> tuple:
        """Cache-aware solve: returns ``(result, source)``.

        ``source`` is ``"hit"`` (resident cache entry), ``"miss"``
        (solved through the pool and stored), ``"stale"`` (the backend
        failed — breaker chain fully open or every worker dead — but a
        concurrent request stored this content's answer meanwhile, and
        that entry is served instead of the failure; determinism makes
        it bit-identical to a fresh solve), or ``"uncached"`` (caching
        disabled or the request is uncacheable).  Failures with no
        resident entry re-raise the typed error unchanged.  Entries never
        expire: one (graph, π) has one answer under every schedule, and
        the key rehashes the graph bytes on every lookup.

        With ``return_key=True`` the tuple is ``(result, source, key)``
        — the content address is computed exactly once per call, so a
        caller keeping derived state per address (the gateway's
        encoded-response cache) need not hash the payload again.
        """
        key = self.request_cache_key(request)
        if key is None:
            result, source = self.solve(request, timeout), "uncached"
            return (result, source, None) if return_key else (result, source)
        cached = self.cache.get(key)
        if cached is not None:
            return (cached, "hit", key) if return_key else (cached, "hit")
        try:
            result = self.solve(request, timeout)
            source = "miss"
            self.cache.put(key, result)
        except (CircuitOpenError, WorkerCrashError):
            # The backend cannot serve right now.  An entry stored since
            # the miss above (by a concurrent request for this exact
            # content) is bit-identical to the answer a healthy backend
            # would return, so degrade to it instead of failing.
            stale = self.cache.get_stale(key)
            if stale is None:
                raise
            result, source = stale, "stale"
        return (result, source, key) if return_key else (result, source)

    def warm_cache(self, problem: str, payload, ranks=None, **options) -> int:
        """Pre-populate the cache for one registered graph (startup warmup).

        Solves ``(problem, payload, ranks)`` with the default method and
        stores the result; returns the number of entries added (0 when
        caching is disabled or the content was already resident).
        """
        if self.cache is None:
            return 0
        request = SolveRequest(
            problem, payload, ranks=ranks, options=dict(options)
        )
        key = self.request_cache_key(request)
        if key is None or self.cache.get(key) is not None:
            return 0
        self.cache.put(key, self.solve(request))
        return 1

    def solve_many(
        self,
        requests: Iterable[SolveRequest],
        *,
        return_errors: bool = False,
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run a batch through the pool; results come back in input order.

        Submission applies backpressure (waits for queue space) rather
        than shedding.  With ``return_errors=True`` a failed request
        contributes its exception object instead of aborting the batch.
        """
        futures = [self.submit(req, block=True) for req in requests]
        out: List[Any] = []
        for fut in futures:
            try:
                out.append(fut.result(timeout))
            except Exception as exc:  # noqa: BLE001 — caller opted in
                if not return_errors:
                    raise
                out.append(exc)
        return out

    # -- stateful sessions -------------------------------------------------

    @property
    def sessions(self):
        """The service's :class:`~repro.service.sessions.SessionManager`.

        Created lazily; with ``config.session_dir`` set it persists every
        committed version through a
        :class:`~repro.dynamic.store.SnapshotStore`.
        """
        with self._session_manager_lock:
            if self._session_manager is None:
                from repro.service.sessions import SessionManager

                store = None
                if self.config.session_dir is not None:
                    from repro.dynamic.store import SnapshotStore

                    store = SnapshotStore(self.config.session_dir)
                self._session_manager = SessionManager(self, store=store)
            return self._session_manager

    def create_session(self, problem, payload, ranks=None, **kwargs):
        """Start a stateful incremental session (initial solve = v0).

        Mutations replay inside crash-isolated workers from the
        parent-held committed state; see :mod:`repro.service.sessions`.
        """
        return self.sessions.create(problem, payload, ranks, **kwargs)

    def mutate_session(self, session_id, insertions=(), deletions=(), **kwargs):
        """Apply one edge-mutation batch; returns the batch's re-peel stats.

        Accepts the exactly-once keywords: ``mutation_id`` (idempotent
        replay of a recorded outcome for duplicates) and ``if_version``
        (compare-and-swap precondition; raises
        :class:`~repro.errors.VersionConflictError` on mismatch).
        """
        return self.sessions.mutate(session_id, insertions, deletions, **kwargs)

    def session_result(self, session_id, **kwargs):
        """The full MIS/matching result of the committed version.

        ``with_version=True`` returns ``(result, version)`` read
        atomically under the session's record lock.
        """
        return self.sessions.result(session_id, **kwargs)

    def session_info(self, session_id):
        """Version/size/work summary of one live session."""
        return self.sessions.info(session_id)

    def session_snapshot(self, session_id):
        """A portable, JSON-safe snapshot of the committed version."""
        return self.sessions.snapshot(session_id)

    def restore_session(self, snapshot=None, **kwargs):
        """Revive a session from a snapshot (array or list state) or the
        persistent store."""
        return self.sessions.restore(snapshot, **kwargs)

    def close_session(self, session_id, **kwargs):
        """Drop a live session (optionally deleting its snapshot)."""
        return self.sessions.close(session_id, **kwargs)

    def list_sessions(self):
        """Infos for every live session."""
        return self.sessions.list()

    # -- observability -----------------------------------------------------

    def stats(self) -> ServiceStats:
        """Snapshot queue depth, in-flight, retries, breakers, latency."""
        with self._lock:
            return self._stats.snapshot(
                queue_depth=len(self._queue) + len(self._delayed),
                in_flight=len(self._pool.busy()),
                workers_alive=self._pool.alive_count(),
                workers_configured=self.config.workers,
                breaker_states={k: b.state for k, b in self._breakers.items()},
                cache=(
                    None if self.cache is None else self.cache.snapshot()
                ),
            )

    def health(self, *, stall_after_s: float = 30.0, include_segments: bool = True):
        """Cross-layer :class:`~repro.resilience.health.HealthReport`.

        Covers per-worker liveness/progress, restart counters, breaker
        states, queue depth against ``max_queue``, and the ledgered
        shared-memory segment inventory (``include_segments=False`` skips
        the segment scan for cheap high-frequency probes).
        """
        from repro.resilience.health import build_health_report

        return build_health_report(
            self,
            stall_after_s=stall_after_s,
            include_segments=include_segments,
        )

    def breaker(self, problem: str, method: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one engine."""
        key = f"{problem}/{method}"
        b = self._breakers.get(key)
        if b is None:
            b = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                reset_seconds=self.config.breaker_reset_seconds,
            )
            self._breakers[key] = b
        return b

    # -- scheduler internals ----------------------------------------------

    def _outstanding(self) -> int:
        return len(self._queue) + len(self._delayed) + len(self._pool.busy())

    def _run(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    break
                now = time.monotonic()
                self._promote_delayed(now)
                self._expire_queued(now)
                self._assign(now)
                busy = {w.conn: w for w in self._pool.busy()}
            if busy:
                try:
                    ready = mp_connection.wait(
                        list(busy), timeout=self.config.tick
                    )
                except OSError:  # a pipe closed mid-wait; reap below
                    ready = []
            else:
                with self._cond:
                    if not self._stop and not self._queue and not self._delayed:
                        self._cond.wait(timeout=self.config.tick)
                ready = []
            with self._lock:
                now = time.monotonic()
                for conn in ready:
                    worker = busy.get(conn)
                    if worker is None or worker.job is None:
                        continue
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash(worker, now)
                        continue
                    self._complete(worker, reply, now)
                self._enforce_limits(now)
                self._reap_idle_deaths()
                self._cond.notify_all()

    def _promote_delayed(self, now: float) -> None:
        due = [t for t in self._delayed if t.not_before <= now]
        if due:
            self._delayed = [t for t in self._delayed if t.not_before > now]
            self._queue.extend(due)

    def _expire_queued(self, now: float) -> None:
        for bucket in (self._queue, self._delayed):
            expired = [t for t in bucket if t.deadline is not None and now > t.deadline]
            for t in expired:
                bucket.remove(t)
                self._stats.bump("deadline_failures")
                self._finish_error(
                    t,
                    DeadlineExceededError(
                        f"deadline expired after {now - t.submitted:.3f}s "
                        f"(limit {t.request.timeout_seconds:.3f}s) before dispatch"
                    ),
                    now,
                )

    def _choose_method(self, ticket: _Ticket) -> str:
        """Pick the engine for the next attempt, honoring breakers.

        Raises :class:`CircuitOpenError` when the whole chain is tripped.
        """
        req = ticket.request
        primary = req.method or _LIBRARY_METHOD
        chain = [primary] + [
            m for m in engine_registry.fallback_chain(req.problem)
            if m != primary
        ]
        candidates = [m for m in chain if m not in ticket.failed_methods]
        if not candidates:
            candidates = chain  # every engine failed once; let retries re-try
        for m in candidates:
            if self.breaker(req.problem, m).allow():
                return m
        raise CircuitOpenError(
            f"all engines unavailable for {req.problem!r}: "
            + ", ".join(
                f"{m}={self.breaker(req.problem, m).state}" for m in chain
            )
        )

    def _chaos_for(
        self, ticket: _Ticket, method: str
    ) -> Optional[Dict[str, Any]]:
        cfg = self.config
        if not cfg.chaos_enabled:
            return None
        attempt = len(ticket.attempts)
        rng = np.random.default_rng((cfg.chaos_seed, ticket.id, attempt))
        if rng.random() < cfg.kill_probability:
            point = cfg.kill_point or ("pre" if rng.random() < 0.5 else "post")
            return {"kill_point": point}
        problem = ticket.request.problem
        if problem != "call" and rng.random() < cfg.fault_probability:
            # Arm only a fault that can strike: one whose kernel the
            # attempt's engine binds (none, for ``sequential``).
            kinds = kernel_faults_for(
                engine_registry.get_engine(problem, method).module
            )
            if not kinds:
                return None
            kind = kinds[int(rng.integers(len(kinds)))]
            return {
                "fault": {
                    "kind": kind,
                    "seed": int(rng.integers(2**31)),
                    "after": int(rng.integers(0, 4)),
                }
            }
        return None

    def _build_job(
        self, ticket: _Ticket, method: str, now: float
    ) -> Dict[str, Any]:
        req = ticket.request
        job: Dict[str, Any] = {"id": ticket.id, "problem": req.problem}
        chaos = self._chaos_for(ticket, method)
        if req.problem == "call":
            job["module"] = req.payload["module"]
            job["func"] = req.payload["func"]
            job["args"] = req.payload.get("args", ())
            job["kwargs"] = req.payload.get("kwargs", {})
        else:
            shared = self._shared_for(req.payload)
            if shared is not None:
                job["payload"] = {
                    "kind": "shared",
                    "name": shared.name,
                    "fingerprint": shared.fingerprint,
                }
                reg_ranks = shared.ranks
                if (
                    req.ranks is not None
                    and reg_ranks is not None
                    and np.array_equal(req.ranks, reg_ranks)
                ):
                    # π is already in the segment; don't pickle it too.
                    job["ranks"] = None
                    job["ranks_shared"] = True
                else:
                    job["ranks"] = req.ranks
            else:
                job["payload"] = encode_payload(req.payload)
                job["ranks"] = req.ranks
            job["method"] = method
            guards = req.guards
            if chaos and "fault" in chaos and guards in (None, "off"):
                # An armed kernel fault must be *detected or harmless*;
                # run the attempt fully guarded so it cannot return a
                # silent wrong answer.
                guards = "full"
            job["guards"] = guards
            job["budget_steps"] = req.budget_steps
            job["trace_path"] = req.trace_path
            options = dict(req.options)
            if method != (req.method or _LIBRARY_METHOD):
                # A degraded attempt must not inherit engine-specific
                # knobs: the chain engines reject them at the validation
                # boundary, which would poison every retry.  The strip
                # set comes from the registry's capability flags, so a
                # new gated knob is handled the day its flag exists.
                for knob in engine_registry.unsupported_knobs(
                    req.problem, method
                ):
                    options.pop(knob, None)
            job["options"] = options
            if ticket.deadline is not None:
                job["deadline_seconds"] = max(ticket.deadline - now, 1e-3)
        if chaos:
            job["chaos"] = chaos
        return job

    def _assign(self, now: float) -> None:
        idle = self._pool.idle()
        while self._queue and idle:
            ticket = self._queue.pop(0)
            if ticket.deadline is not None and now > ticket.deadline:
                self._stats.bump("deadline_failures")
                self._finish_error(
                    ticket,
                    DeadlineExceededError(
                        f"deadline expired before dispatch "
                        f"(limit {ticket.request.timeout_seconds:.3f}s)"
                    ),
                    now,
                )
                continue
            try:
                method = (
                    "call" if ticket.request.problem == "call"
                    else self._choose_method(ticket)
                )
            except CircuitOpenError as exc:
                self._finish_error(ticket, exc, now)
                continue
            worker = idle.pop(0)
            job = self._build_job(ticket, method, now)
            try:
                worker.conn.send(job)
            except (BrokenPipeError, OSError):
                # The worker died between polls; replace it and requeue
                # the ticket without consuming an attempt.
                self._stats.bump("worker_crashes")
                self._respawn(worker)
                self._queue.insert(0, ticket)
                continue
            chaos = job.get("chaos")
            ticket.attempts.append({
                "attempt": len(ticket.attempts),
                "method": method,
                "worker": worker.worker_id,
                "chaos": chaos,
            })
            if chaos and "fault" in chaos:
                self._stats.bump("faults_armed")
            worker.job = ticket
            worker.job_started = now

    # -- completion paths --------------------------------------------------

    def _complete(self, worker: WorkerHandle, reply: Dict[str, Any], now: float) -> None:
        ticket: _Ticket = worker.job
        worker.job = None
        worker.job_started = None
        worker.jobs_done += 1
        if ticket is None or reply.get("id") != ticket.id:  # pragma: no cover
            return
        attempt = ticket.attempts[-1]
        if reply.get("ok"):
            attempt["outcome"] = "ok"
            try:
                value = self._build_result(ticket, attempt, reply, now)
            except GraphFormatError as exc:
                attempt["outcome"] = "error:GraphFormatError"
                self._finish_error(ticket, exc, now)
                return
            if ticket.request.problem != "call":
                self.breaker(ticket.request.problem, attempt["method"]).record_success()
            self._finish_ok(ticket, value, now)
        else:
            self._handle_worker_error(ticket, attempt, reply, now)

    def _build_result(
        self,
        ticket: _Ticket,
        attempt: Dict[str, Any],
        reply: Dict[str, Any],
        now: float,
    ) -> Any:
        if reply["kind"] == "call":
            return reply["value"]
        stats_dict = reply["stats"]
        aux = dict(stats_dict["aux"])
        requested = ticket.request.method or _LIBRARY_METHOD
        served = attempt["method"]
        if served != requested:
            aux["degraded"] = True
            self._stats.bump("degraded")
            aux["fallback_engine"] = served
        # wall_time_s is submission-to-completion, recorded exactly once
        # per request.
        aux["service"] = {
            "request_id": ticket.id,
            "engine": served,
            "requested_method": requested,
            "worker": attempt["worker"],
            "retries": ticket.retries,
            "wall_time_s": round(now - ticket.submitted, 6),
            "shared_payload": self._shared_for(ticket.request.payload) is not None,
            "attempts": [dict(a) for a in ticket.attempts],
        }
        stats = RunStats(**{**stats_dict, "aux": aux})
        status = reply["status"]
        ranks = reply.get("ranks")
        if ranks is None:
            # The worker solved the request's own π.  Copy it: a caller
            # may mutate π in place later, and a cached result must not
            # change with it.
            ranks = np.array(ticket.request.ranks, dtype=np.int64)
        if reply["kind"] == "mis":
            return MISResult(status=status, ranks=ranks, stats=stats)
        payload = ticket.request.payload
        edges = payload if isinstance(payload, EdgeList) else payload.edge_list()
        if status.size != edges.num_edges:
            raise GraphFormatError(
                f"worker solved {status.size} edges but the request's graph "
                f"has {edges.num_edges} (was a registered graph changed "
                "after register_graph?)"
            )
        return MatchingResult(
            status=status, edge_u=edges.u, edge_v=edges.v, ranks=ranks, stats=stats,
        )

    def _handle_worker_error(
        self,
        ticket: _Ticket,
        attempt: Dict[str, Any],
        reply: Dict[str, Any],
        now: float,
    ) -> None:
        name = reply.get("error_type", "Exception")
        message = reply.get("error", "")
        attempt["outcome"] = f"error:{name}"
        attempt["error"] = message
        if "fault" in (attempt["chaos"] or {}):
            self._stats.bump("faults_landed")
        if name == "BudgetExceededError" or name in _NON_RETRYABLE:
            # The request's own limits or input ended the attempt: no
            # verdict on the engine.
            self._release_probe(ticket)
        if name == "BudgetExceededError":
            if ticket.deadline is not None and message.startswith("wall-clock"):
                self._stats.bump("deadline_failures")
                self._finish_error(
                    ticket,
                    DeadlineExceededError(
                        f"deadline exceeded in worker: {message}"
                    ),
                    now,
                )
            else:
                self._finish_error(ticket, _reconstruct_error(name, message), now)
            return
        if name in _NON_RETRYABLE:
            self._finish_error(ticket, _reconstruct_error(name, message), now)
            return
        # Transient / engine failure: charge the breaker and retry.
        if ticket.request.problem != "call":
            if self.breaker(ticket.request.problem, attempt["method"]).record_failure():
                self._stats.bump("breaker_trips")
            ticket.failed_methods.add(attempt["method"])
        self._retry_or_fail(ticket, _reconstruct_error(name, message), now)

    def _handle_crash(self, worker: WorkerHandle, now: float) -> None:
        ticket: _Ticket = worker.job
        worker.job = None
        self._stats.bump("worker_crashes")
        self._respawn(worker)
        if ticket is None:
            return
        attempt = ticket.attempts[-1]
        attempt["outcome"] = "crash"
        self._release_probe(ticket)  # a death says nothing of the engine
        exc = WorkerCrashError(
            f"worker {attempt['worker']} died while serving request {ticket.id} "
            f"({self._attempt_log(ticket)})"
        )
        self._retry_or_fail(ticket, exc, now)

    def _release_probe(self, ticket: _Ticket) -> None:
        """The attempt ended without a verdict on its engine: free the
        breaker's half-open probe slot it may hold."""
        if ticket.request.problem != "call":
            self.breaker(ticket.request.problem, ticket.attempts[-1]["method"]).release()

    def _enforce_limits(self, now: float) -> None:
        for worker in self._pool.busy():
            ticket: _Ticket = worker.job
            limit = None
            hang = False
            if ticket.deadline is not None:
                limit = ticket.deadline + self.config.deadline_grace
            elif self.config.hang_timeout is not None:
                limit = worker.job_started + self.config.hang_timeout
                hang = True
            if limit is None or now <= limit:
                continue
            worker.job = None
            ticket.attempts[-1]["outcome"] = "killed-overdue"
            self._respawn(worker)
            self._release_probe(ticket)
            if hang:
                self._stats.bump("worker_crashes")
                self._retry_or_fail(
                    ticket,
                    WorkerCrashError(
                        f"worker {worker.worker_id} hung past "
                        f"{self.config.hang_timeout:.3f}s and was killed "
                        f"({self._attempt_log(ticket)})"
                    ),
                    now,
                )
            else:
                self._stats.bump("deadline_failures")
                self._finish_error(
                    ticket,
                    DeadlineExceededError(
                        f"worker overran the deadline by more than the "
                        f"{self.config.deadline_grace:.3f}s grace and was killed"
                    ),
                    now,
                )

    def _reap_idle_deaths(self) -> None:
        for worker in self._pool.idle():
            if not worker.alive():
                self._stats.bump("worker_crashes")
                self._respawn(worker)

    def _respawn(self, worker: WorkerHandle) -> None:
        self._pool.discard(worker, kill=True)
        if not self._stop:
            self._pool.spawn()
            self._stats.bump("worker_restarts")

    # -- retry / finish ----------------------------------------------------

    def _attempt_log(self, ticket: _Ticket) -> str:
        return "; ".join(
            f"attempt {a['attempt']}: {a['method']}@w{a['worker']} -> "
            f"{a.get('outcome', 'in-flight')}"
            for a in ticket.attempts
        )

    def _retry_or_fail(self, ticket: _Ticket, exc: BaseException, now: float) -> None:
        if ticket.retries >= self.config.max_retries:
            self._finish_error(ticket, exc, now)
            return
        ticket.retries += 1
        self._stats.bump("retries")
        delay = self._backoff_delay(ticket)
        if ticket.deadline is not None:
            # Never back off past the deadline; the expiry check would
            # just fail the request later without another attempt.
            delay = min(delay, max(ticket.deadline - now - 1e-3, 0.0))
        ticket.not_before = now + delay
        self._delayed.append(ticket)

    def _backoff_delay(self, ticket: _Ticket) -> float:
        cfg = self.config
        delay = min(
            cfg.backoff_max,
            cfg.backoff_base * _BACKOFF_FACTOR ** (ticket.retries - 1),
        )
        rng = np.random.default_rng((_RETRY_SEED, ticket.id, ticket.retries))
        return delay * (1.0 + _BACKOFF_JITTER * (2.0 * rng.random() - 1.0))

    def _finish_ok(self, ticket: _Ticket, value: Any, now: float) -> None:
        if ticket.future.done():  # pragma: no cover - a future resolves once
            return
        self._stats.bump("completed")
        self._stats.record_latency(now - ticket.submitted)
        ticket.future._resolve(value)
        with self._cond:  # reentrant from the scheduler; bare from shutdown
            self._cond.notify_all()

    def _finish_error(self, ticket: _Ticket, exc: BaseException, now: float) -> None:
        if ticket.future.done():  # pragma: no cover - a future resolves once
            return
        self._stats.bump("failed")
        ticket.future._fail(exc)
        with self._cond:  # reentrant from the scheduler; bare from shutdown
            self._cond.notify_all()


def serve(config: Optional[ServiceConfig] = None, **overrides) -> SolverService:
    """Build and start a :class:`SolverService` (returned already running).

    ``repro.serve(workers=4, max_queue=128)`` is the one-line front door;
    use it as a context manager so shutdown is automatic.
    """
    return SolverService(config, **overrides).start()


def solve_many(
    requests: Iterable[SolveRequest],
    *,
    return_errors: bool = False,
    config: Optional[ServiceConfig] = None,
    **overrides,
) -> List[Any]:
    """Run a batch of requests through a temporary service.

    Spins up a :class:`SolverService` (configured via *config* or
    keyword overrides such as ``workers=4``), pushes every request
    through with backpressure, and shuts the service down.  Results are
    returned in input order; ``return_errors=True`` maps failed requests
    to their exception objects instead of raising.
    """
    with serve(config, **overrides) as svc:
        return svc.solve_many(requests, return_errors=return_errors)
