"""Crash-isolated solver service: worker pool, deadlines, retries, breakers.

This subpackage turns the deterministic solver library into a resilient
batch service.  Requests (:class:`SolveRequest`) enter a bounded
admission queue and are executed in **subprocess workers** — a crash,
OOM kill, or hang of one request cannot take down the service or affect
siblings.  Failures are retried with exponential backoff; repeated
failures of one engine trip a per-engine :class:`CircuitBreaker` and
degrade requests along the registry's fallback chain: a request runs
its engine (by default ``prefix``, the paper's Algorithm 3), then
``rootset-vec → sequential``.  That is output-invariant because every
chain engine returns the bit-identical lexicographically-first answer.

Layout:

========================  =============================================
:mod:`~repro.service.config`    :class:`ServiceConfig` / :class:`SolveRequest`
:mod:`~repro.service.worker`    child-process job loop + chaos kill hooks
:mod:`~repro.service.shared`    worker-side shared-segment attachments
:mod:`~repro.service.pool`      process/pipe lifecycle (:class:`WorkerPool`)
:mod:`~repro.service.breaker`   per-engine :class:`CircuitBreaker`
:mod:`~repro.service.stats`     :class:`ServiceStats` snapshots
:mod:`~repro.service.cache`     content-addressed :class:`ResultCache`
:mod:`~repro.service.service`   the scheduler (:class:`SolverService`)
:mod:`~repro.service.http`      asyncio network front door
                                (:class:`HTTPGateway`)
========================  =============================================

Front doors: :func:`repro.serve` and :func:`repro.solve_many`, plus the
``repro serve`` / ``repro batch`` CLI subcommands (``repro serve
--http HOST:PORT`` runs the network gateway).  See
``docs/robustness.md`` ("Serving" and "Network front door") for the
request lifecycle.  :mod:`repro.service.http` is imported lazily —
``from repro.service.http import HTTPGateway`` — so the batch service
carries no gateway baggage.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache, request_key
from repro.service.config import ServiceConfig, SolveRequest
from repro.service.pool import WorkerHandle, WorkerPool
from repro.service.service import ServiceFuture, SolverService, serve, solve_many
from repro.service.sessions import SessionInfo, SessionManager
from repro.service.stats import ServiceStats, StatsCollector

__all__ = [
    "CircuitBreaker",
    "ResultCache",
    "ServiceConfig",
    "ServiceFuture",
    "ServiceStats",
    "SessionInfo",
    "SessionManager",
    "SolveRequest",
    "SolverService",
    "StatsCollector",
    "WorkerHandle",
    "WorkerPool",
    "request_key",
    "serve",
    "solve_many",
]
