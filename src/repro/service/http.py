"""Asyncio HTTP gateway: the resilient network front door.

:class:`HTTPGateway` puts a small, stdlib-only HTTP/1.1 server in front
of a :class:`~repro.service.SolverService`, designed failure-first:

* **deadline propagation** — a per-request ``timeout_s`` (body field or
  ``X-Repro-Timeout-S`` header) flows into
  :class:`~repro.service.SolveRequest.timeout_seconds`, through the
  admission queue, and into the worker as ``Budget(max_seconds=…)``.
  An expired deadline is a ``504`` carrying the typed error name —
  never a hung socket: the gateway bounds its own wait at the deadline
  plus the service grace plus ``deadline_slack_s``.
* **load shedding** — admission rides the service's bounded queue; a
  shed request is a ``429`` with ``Retry-After`` derived from the
  observed p95 solve latency.  Request bodies are bounded
  (``413`` past ``max_body_bytes``), concurrent connections are bounded
  (``503`` past ``max_connections``, delivered before the close even to
  a client still sending), and a client that trickles its
  request head or body is cut off (``408``) after
  ``header_timeout_s`` / ``body_timeout_s`` — the slow-loris defense.
* **serve-stale degraded mode** — solves go through
  :meth:`~repro.service.SolverService.solve_cached`: when the backend
  cannot serve (breaker chain open, workers dead) but a resident cache
  entry exists for the exact content address, the entry is served with
  ``X-Repro-Degraded: stale`` instead of a ``503``.  Determinism makes
  this safe: the stale answer is bit-identical to a fresh solve.
* **lifecycle** — ``SIGTERM``/``SIGINT`` trigger a graceful drain
  (stop accepting, finish in-flight up to ``drain_timeout_s``, then
  shut the service down); a :class:`~repro.resilience.Supervisor`
  probes the gateway's event-loop heartbeat from a plain thread, so a
  wedged loop surfaces in ``/v1/health`` instead of silent timeouts.

Endpoints (all JSON)::

    POST   /v1/solve           one solve (inline graph or registered name)
    POST   /v1/batch           {"requests": [...]} -> per-item results
    GET    /v1/health          cross-layer report; 200 ok / 207 degraded /
                               503 critical
    GET    /v1/metrics         per-endpoint latency percentiles + gateway,
                               cache, breaker, and queue counters
    POST   /v1/graphs          register a graph as a shared segment (+warm)
    DELETE /v1/graphs/{name}   release a registered graph

The HTTP status taxonomy mirrors the CLI exit-code taxonomy: every
error response body is ``{"error": "<TypedErrorName>", "message": …}``
with the error class from :mod:`repro.errors` — an untyped 500 is a bug
(and the chaos harness asserts there are none).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.options import SolveOptions
from repro.core.result import MatchingResult
from repro.errors import DeadlineExceededError, EngineError, ReproError
from repro.service import schema as wire_schema
from repro.service.cache import key_graph_digest
from repro.service.config import ServiceConfig, SolveRequest
from repro.service.service import SolverService

__all__ = ["GatewayConfig", "HTTPGateway", "request_json"]

#: Cap on the request head (request line + headers).
_HEADER_LIMIT = 64 * 1024

#: HTTP status -> typed error name from the repro taxonomy.  Order of
#: lookup is the exception MRO, so subclasses (QueueFullError before
#: ServiceError) map to their specific status.
_STATUS_BY_ERROR: Dict[str, int] = {
    "GraphFormatError": 400,
    "InvalidGraphError": 400,
    "InvalidOrderingError": 400,
    "EngineError": 400,
    "InvariantViolationError": 500,
    "UnknownSessionError": 404,
    "VersionConflictError": 409,
    "SnapshotCorruptError": 503,
    "BudgetExceededError": 422,
    "QueueFullError": 429,
    "CircuitOpenError": 503,
    "WorkerCrashError": 503,
    "ServiceError": 503,
    "DeadlineExceededError": 504,
}

_REASONS = {
    200: "OK", 207: "Multi-Status", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The legal solve-object field set — owned by :mod:`repro.service.schema`
#: so the gateway, the CLI, and ``SolveRequest`` cannot drift.
_SOLVE_FIELDS = wire_schema.SOLVE_FIELDS


class _HTTPError(Exception):
    """Internal: a request that maps straight to an error response."""

    def __init__(
        self, status: int, error: str, message: str, *, close: bool = False
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error = error
        self.message = message
        self.close = close


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for :class:`HTTPGateway`.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (the bound
        address is on :attr:`HTTPGateway.address` after start).
    max_body_bytes:
        Bound on any request body (``413`` past it).
    max_connections:
        Bound on concurrently open connections (``503`` past it); idle
        flood connections are further cut by ``header_timeout_s``.
    header_timeout_s, body_timeout_s:
        Slow-loris defense: a client that has not delivered the full
        request head / declared body within these windows gets ``408``
        and the connection is closed.
    drain_timeout_s:
        Graceful-shutdown bound: in-flight requests get this long to
        finish after the listener closes.
    default_timeout_s:
        Deadline applied to solve requests that do not set one
        (``None``: no deadline unless the request asks).
    deadline_slack_s:
        Socket-side grace the gateway waits past a request's deadline
        plus the service's ``deadline_grace`` before answering ``504``
        itself — the "never a hung socket" bound.
    retry_after_floor_s:
        Minimum ``Retry-After`` on a ``429`` (the ceiling is twice the
        observed p95 solve latency).
    heartbeat_interval_s, wedged_after_s:
        The event loop stamps a heartbeat every interval; a probe that
        finds the stamp older than ``wedged_after_s`` reports the loop
        wedged (surfaced in ``/v1/health``).
    supervise_interval_s:
        Period of the gateway-owned
        :class:`~repro.resilience.Supervisor` probing service health
        and the loop heartbeat from a plain thread; ``None`` disables.
    executor_threads:
        Threads bridging the event loop to the blocking service API
        (default ``2 * workers + 4``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 * 1024 * 1024
    max_connections: int = 64
    header_timeout_s: float = 5.0
    body_timeout_s: float = 10.0
    drain_timeout_s: float = 10.0
    default_timeout_s: Optional[float] = None
    deadline_slack_s: float = 1.0
    retry_after_floor_s: float = 1.0
    heartbeat_interval_s: float = 0.25
    wedged_after_s: float = 5.0
    supervise_interval_s: Optional[float] = None
    executor_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        for name in (
            "header_timeout_s", "body_timeout_s", "drain_timeout_s",
            "heartbeat_interval_s", "wedged_after_s",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("deadline_slack_s", "retry_after_floor_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.default_timeout_s is not None and not self.default_timeout_s > 0:
            raise ValueError(
                f"default_timeout_s must be positive, got {self.default_timeout_s}"
            )
        if (
            self.supervise_interval_s is not None
            and not self.supervise_interval_s > 0
        ):
            raise ValueError(
                f"supervise_interval_s must be positive, "
                f"got {self.supervise_interval_s}"
            )
        if self.executor_threads is not None and self.executor_threads < 1:
            raise ValueError(
                f"executor_threads must be >= 1, got {self.executor_threads}"
            )


@dataclass
class _GraphRecord:
    """One registered graph: the CSR, its default π and its segment.

    Requests for the graph solve over ``graph`` for both problems.
    ``edges`` (the canonical edge list, ``graph.edge_list()``) is not on
    the request path; it stays because perfbench's traced replay reads
    it.  ``edge_fields`` holds the serialized ``edge_u``/``edge_v`` that
    every matching body of this graph echoes, under the graph digest
    they were written for (see :meth:`HTTPGateway._edge_fields`).
    """

    name: str
    graph: Any
    edges: Any
    ranks: Optional[np.ndarray]
    segment: Optional[str] = None
    fingerprint: Optional[str] = None
    warmed: int = 0
    edge_fields: Optional[Tuple[str, Dict[str, bytes]]] = None


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


def _status_for(exc: BaseException) -> Optional[int]:
    """HTTP status for a typed repro error (None: untyped)."""
    for cls in type(exc).__mro__:
        status = _STATUS_BY_ERROR.get(cls.__name__)
        if status is not None:
            return status
    return None


def _dumps(body: Any) -> bytes:
    """A response body the gateway builds as a dict: compact, sorted keys
    (result bodies come pre-serialized from ``schema.dump_result``)."""
    return json.dumps(body, separators=(",", ":"), sort_keys=True).encode()


class HTTPGateway:
    """Stdlib asyncio HTTP front door over a :class:`SolverService`.

    The gateway owns the service lifecycle: :meth:`run` (or
    :meth:`start_in_thread`) starts the service if needed and
    :meth:`~SolverService.shutdown` runs on the way out.  Blocking
    service calls are bridged through a thread pool so the event loop
    never blocks on a solve.

    Examples
    --------
    >>> from repro.service.http import HTTPGateway          # doctest: +SKIP
    >>> gw = HTTPGateway(workers=2, cache_entries=64)       # doctest: +SKIP
    >>> gw.run()   # serves until SIGINT/SIGTERM, then drains
    """

    def __init__(
        self,
        service: Optional[SolverService] = None,
        config: Optional[GatewayConfig] = None,
        **service_overrides,
    ) -> None:
        if service is None:
            service = SolverService(ServiceConfig(**service_overrides))
        elif service_overrides:
            raise ValueError(
                "pass either a SolverService or service keyword overrides"
            )
        self.service = service
        self.config = config or GatewayConfig()
        self.address: Optional[Tuple[str, int]] = None
        self._graphs: Dict[str, _GraphRecord] = {}
        self._graphs_lock = threading.Lock()
        self._routes: Dict[str, Dict[str, Any]] = {}
        self._conns = 0
        self._conns_rejected = 0
        # Encoded-response cache: content address -> serialized body
        # bytes.  Determinism makes the body for one address immutable,
        # so a warm hit can skip JSON encoding entirely (at paper
        # scales the n-length status/ranks arrays dominate hit
        # latency).  Touched only from the event loop — no lock.
        self._body_cache: "OrderedDict[str, bytes]" = OrderedDict()
        self._body_cache_max = max(self.service.config.cache_entries, 64)
        self._body_cache_hits = 0
        self._untyped_errors = 0
        self._stale_served = 0
        self._shed = 0
        self._wedge_events = 0
        self._last_wedge_age: Optional[float] = None
        self._draining = False
        self._started_at: Optional[float] = None
        self._heartbeat = time.monotonic()
        self._inflight: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._supervisor = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_error: Optional[BaseException] = None

    # -- graph registration (programmatic side) ----------------------------

    def add_graph(self, name: str, graph, ranks=None) -> _GraphRecord:
        """Pre-register a graph before :meth:`run`; warmed at startup.

        The HTTP path (``POST /v1/graphs``) lands here too.  The graph
        is placed in shared memory on the service; with *ranks* given
        the MIS answer is pre-solved into the result cache, so the
        first ``{"graph": name}`` request is already a warm hit.
        """
        if not name or "/" in name:
            raise ValueError(f"graph name must be non-empty without '/': {name!r}")
        with self._graphs_lock:
            if name in self._graphs:
                raise KeyError(f"graph {name!r} is already registered")
            record = _GraphRecord(
                name=name,
                graph=graph,
                edges=graph.edge_list(),
                ranks=None if ranks is None else np.asarray(ranks),
            )
            self._graphs[name] = record
        if self.service._started:
            self._register_record(record)
        return record

    def _register_record(self, record: _GraphRecord) -> None:
        """Blocking: shared-segment registration + cache warmup."""
        shared = self.service.register_graph(record.graph, record.ranks)
        record.segment = shared.name
        record.fingerprint = shared.fingerprint
        if record.ranks is not None:
            record.warmed = self.service.warm_cache(
                "mis", record.graph, record.ranks
            )

    def _release_record(self, record: _GraphRecord) -> None:
        record.edge_fields = None
        self.service.release_graph(record.graph)

    # -- lifecycle ---------------------------------------------------------

    async def start_async(self) -> "HTTPGateway":
        """Start the service, warm registered graphs, bind the listener."""
        cfg = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=(
                cfg.executor_threads
                if cfg.executor_threads is not None
                else 2 * self.service.config.workers + 4
            ),
            thread_name_prefix="repro-gateway",
        )
        loop = asyncio.get_running_loop()
        self._loop = loop
        await loop.run_in_executor(self._executor, self.service.start)
        for record in list(self._graphs.values()):
            if record.segment is None:
                await loop.run_in_executor(
                    self._executor, self._register_record, record
                )
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port, limit=_HEADER_LIMIT
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._draining = False
        self._started_at = time.monotonic()
        self._heartbeat = time.monotonic()
        self._heartbeat_task = asyncio.ensure_future(self._beat())
        if cfg.supervise_interval_s is not None:
            from repro.resilience.supervisor import Supervisor

            self._supervisor = Supervisor(
                self.service,
                interval_s=cfg.supervise_interval_s,
                on_report=self._on_supervisor_report,
            ).start()
        return self

    async def stop_async(self) -> None:
        """Graceful drain: close the listener, finish in-flight, shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [t for t in self._inflight if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_timeout_s)
        for task in list(self._inflight):
            if not task.done():
                task.cancel()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._executor,
            functools.partial(
                self.service.shutdown, drain=True,
                timeout=self.config.drain_timeout_s,
            ),
        )
        with self._graphs_lock:
            for record in self._graphs.values():
                record.segment = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def _main(
        self,
        *,
        ready: Optional[threading.Event] = None,
        install_signals: bool = False,
    ) -> None:
        try:
            await self.start_async()
        except BaseException as exc:
            self._thread_error = exc
            # A partial start must not leave workers or the listener
            # behind — the pool's processes would hang interpreter exit.
            try:
                await self.stop_async()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            if ready is not None:
                ready.set()
                return
            raise
        self._stop_event = asyncio.Event()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self._stop_event.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        if ready is not None:
            ready.set()
        await self._stop_event.wait()
        await self.stop_async()

    def run(self, *, install_signals: bool = True) -> int:
        """Serve until SIGINT/SIGTERM, drain gracefully, return exit code 0.

        With signal handlers installed, Ctrl-C is a clean drain-and-exit
        rather than a traceback: the listener closes, in-flight requests
        get ``drain_timeout_s`` to finish, and the service shuts down.
        """
        asyncio.run(self._main(install_signals=install_signals))
        return 0

    def start_in_thread(self, timeout: float = 30.0) -> "HTTPGateway":
        """Run the gateway on a daemon thread; returns once it is bound."""
        if self._thread is not None:
            raise RuntimeError("gateway thread already running")
        ready = threading.Event()
        self._thread_error = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready=ready)),
            name="repro-gateway-loop",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise TimeoutError(f"gateway did not start within {timeout}s")
        if self._thread_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise self._thread_error
        return self

    def stop_in_thread(self, timeout: float = 30.0) -> None:
        """Drain and stop a :meth:`start_in_thread` gateway."""
        if self._thread is None:
            return
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "HTTPGateway":
        return self.start_in_thread()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_in_thread()

    # -- heartbeat / supervision -------------------------------------------

    async def _beat(self) -> None:
        while True:
            self._heartbeat = time.monotonic()
            await asyncio.sleep(self.config.heartbeat_interval_s)

    def heartbeat_age(self) -> float:
        """Seconds since the event loop last stamped its heartbeat."""
        return time.monotonic() - self._heartbeat

    def probe(self) -> Dict[str, Any]:
        """Thread-safe gateway liveness snapshot (used by the Supervisor)."""
        age = self.heartbeat_age()
        return {
            "listening": self._server is not None,
            "draining": self._draining,
            "connections": self._conns,
            "heartbeat_age_s": round(age, 3),
            "wedged": age > self.config.wedged_after_s,
            "wedge_events": self._wedge_events,
        }

    def _on_supervisor_report(self, report) -> None:
        probe = self.probe()
        if probe["wedged"]:
            self._wedge_events += 1
            self._last_wedge_age = probe["heartbeat_age_s"]

    # -- connection handling -----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining or self._conns >= self.config.max_connections:
            self._conns_rejected += 1
            await self._write(
                writer, 503,
                {
                    "error": "ConnectionLimitError",
                    "message": (
                        "gateway draining" if self._draining else
                        f"connection limit reached "
                        f"({self.config.max_connections})"
                    ),
                },
                close=True,
            )
            await self._refuse_close(reader, writer)
            return
        self._conns += 1
        task = asyncio.current_task()
        self._inflight.add(task)
        try:
            while not self._draining:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    await self._write(
                        writer, exc.status,
                        {"error": exc.error, "message": exc.message},
                        close=True,
                    )
                    break
                if request is None:
                    break
                keep = (
                    request.headers.get("connection", "").lower() != "close"
                )
                status, body, extra = await self._dispatch(request)
                keep = keep and not self._draining
                await self._write(writer, status, body, extra, close=not keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns -= 1
            self._inflight.discard(task)
            await self._close(writer)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        cfg = self.config
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), cfg.header_timeout_s
            )
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise _HTTPError(
                400, "BadRequestError", "truncated request head", close=True
            )
        except asyncio.LimitOverrunError:
            raise _HTTPError(
                431, "HeadersTooLargeError",
                f"request head exceeds {_HEADER_LIMIT} bytes", close=True,
            )
        except asyncio.TimeoutError:
            raise _HTTPError(
                408, "SlowClientError",
                f"request head not received within {cfg.header_timeout_s}s",
                close=True,
            )
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HTTPError(
                400, "BadRequestError",
                f"malformed request line: {lines[0]!r}", close=True,
            )
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HTTPError(
                    400, "BadRequestError",
                    f"malformed header line: {line!r}", close=True,
                )
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HTTPError(
                400, "BadRequestError", "non-integer Content-Length", close=True
            )
        if length > cfg.max_body_bytes:
            raise _HTTPError(
                413, "BodyTooLargeError",
                f"body of {length} bytes exceeds the "
                f"{cfg.max_body_bytes}-byte bound", close=True,
            )
        body = b""
        if length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), cfg.body_timeout_s
                )
            except asyncio.IncompleteReadError:
                raise _HTTPError(
                    400, "BadRequestError", "truncated request body", close=True
                )
            except asyncio.TimeoutError:
                raise _HTTPError(
                    408, "SlowClientError",
                    f"request body not received within {cfg.body_timeout_s}s",
                    close=True,
                )
        return _Request(method, path, headers, body)

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, Any, Dict[str, str]]:
        route, handler = self._resolve(request)
        start = time.monotonic()
        extra: Dict[str, str] = {}
        try:
            if handler is None:
                status, body = 404, {
                    "error": "NotFoundError",
                    "message": f"no route {request.method} {request.path}",
                }
            else:
                status, body, extra = await handler(request)
        except _HTTPError as exc:
            status, body = exc.status, {
                "error": exc.error, "message": exc.message,
            }
        except Exception as exc:  # noqa: BLE001 — boundary of the taxonomy
            status = _status_for(exc)
            if status is None or not isinstance(
                exc, (ReproError, TimeoutError)
            ):
                self._untyped_errors += 1
                status = 500
            body = {"error": type(exc).__name__, "message": str(exc)}
            if status == 429:
                self._shed += 1
                extra = {"Retry-After": str(self._retry_after())}
        self._record(route, status, time.monotonic() - start)
        return status, body, extra

    def _resolve(self, request: _Request):
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/v1/solve" and method == "POST":
            return "POST /v1/solve", self._handle_solve
        if path == "/v1/batch" and method == "POST":
            return "POST /v1/batch", self._handle_batch
        if path == "/v1/health" and method == "GET":
            return "GET /v1/health", self._handle_health
        if path == "/v1/metrics" and method == "GET":
            return "GET /v1/metrics", self._handle_metrics
        if path == "/v1/graphs" and method == "POST":
            return "POST /v1/graphs", self._handle_register
        if path.startswith("/v1/graphs/") and method == "DELETE":
            return "DELETE /v1/graphs/{name}", self._handle_release
        if path == "/v1/sessions" and method == "POST":
            return "POST /v1/sessions", self._handle_session_create
        if path == "/v1/sessions" and method == "GET":
            return "GET /v1/sessions", self._handle_session_list
        if path.startswith("/v1/sessions/"):
            rest = path[len("/v1/sessions/"):]
            sid, _, action = rest.partition("/")
            if sid:
                if not action and method == "GET":
                    return "GET /v1/sessions/{id}", self._handle_session_info
                if not action and method == "DELETE":
                    return "DELETE /v1/sessions/{id}", self._handle_session_close
                if action == "mutate" and method == "POST":
                    return (
                        "POST /v1/sessions/{id}/mutate",
                        self._handle_session_mutate,
                    )
                if action == "result" and method == "GET":
                    return (
                        "GET /v1/sessions/{id}/result",
                        self._handle_session_result,
                    )
        return f"{method} {path}", None

    def _record(self, route: str, status: int, latency: float) -> None:
        rec = self._routes.get(route)
        if rec is None:
            rec = self._routes[route] = {
                "requests": 0, "errors": 0,
                "latencies": deque(maxlen=512), "statuses": {},
            }
        rec["requests"] += 1
        if status >= 400:
            rec["errors"] += 1
        rec["statuses"][str(status)] = rec["statuses"].get(str(status), 0) + 1
        rec["latencies"].append(latency)

    def _retry_after(self) -> int:
        """Retry-After seconds for a 429, derived from the observed p95."""
        rec = self._routes.get("POST /v1/solve")
        lat = list(rec["latencies"]) if rec else []
        p95 = float(np.percentile(np.asarray(lat), 95)) if lat else 0.0
        return max(
            int(math.ceil(self.config.retry_after_floor_s)),
            int(math.ceil(2.0 * p95)),
        )

    # -- request parsing ---------------------------------------------------

    def _json_body(self, request: _Request) -> Any:
        if not request.body:
            raise _HTTPError(400, "BadRequestError", "empty request body")
        try:
            return json.loads(request.body)
        except (ValueError, UnicodeDecodeError):
            raise _HTTPError(400, "BadRequestError", "body is not valid JSON")

    def _parse_solve(
        self, obj: Any, headers: Dict[str, str]
    ) -> Tuple[SolveRequest, Optional[float]]:
        """Turn one JSON solve object into a SolveRequest + deadline.

        Decoding itself lives in :mod:`repro.service.schema`; this wrapper
        adds the HTTP-only concerns — the ``X-Repro-Timeout-S`` header and
        registered-graph name resolution — and maps schema ``ValueError``
        onto ``400``.
        """
        timeout_override = None
        if "x-repro-timeout-s" in headers:
            try:
                timeout_override = float(headers["x-repro-timeout-s"])
            except ValueError:
                raise _HTTPError(
                    400, "BadRequestError",
                    "X-Repro-Timeout-S must be a number",
                )
        try:
            return wire_schema.decode_solve(
                obj,
                default_timeout_s=self.config.default_timeout_s,
                timeout_override=timeout_override,
                graph_resolver=self._registered_payload,
            )
        except _HTTPError:
            raise
        except ValueError as exc:
            raise _HTTPError(400, "BadRequestError", str(exc))

    def _registered_payload(self, name: str, problem: str):
        """Graph-name resolver handed to the schema decoder.

        Both problems get the registered CSR itself, the object whose
        segment the service holds, so a matching job crosses the pipe as
        the segment name too.  π is the default order of MIS only.
        """
        with self._graphs_lock:
            record = self._graphs.get(name)
        if record is None:
            raise _HTTPError(
                404, "UnknownGraphError",
                f"no registered graph named {name!r}",
            )
        return record.graph, (record.ranks if problem == "mis" else None)

    def _build_graph(self, obj: Dict[str, Any]):
        try:
            return wire_schema.build_inline_graph(obj)
        except ValueError as exc:
            raise _HTTPError(400, "BadRequestError", str(exc))

    # -- solve execution ---------------------------------------------------

    async def _solve_one(
        self, request: SolveRequest, timeout_s: Optional[float]
    ) -> Tuple[Any, str, Optional[str]]:
        """Bridge one cache-aware solve to the executor, deadline-bounded.

        The socket-side wait is the request deadline plus the service
        grace plus ``deadline_slack_s``; past that the response is a
        504 even if the worker-kill path has not reported back yet —
        the abandoned executor call finishes (and is discarded) in the
        background, so the client never holds a silent socket.
        """
        loop = asyncio.get_running_loop()
        allowance = (
            None if timeout_s is None
            else timeout_s
            + self.service.config.deadline_grace
            + self.config.deadline_slack_s
        )
        call = functools.partial(
            self.service.solve_cached, request, timeout=allowance,
            return_key=True,
        )
        future = loop.run_in_executor(self._executor, call)
        if allowance is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), allowance)
        except (asyncio.TimeoutError, TimeoutError):
            future.add_done_callback(lambda f: f.exception())
            raise DeadlineExceededError(
                f"request exceeded its {timeout_s}s deadline "
                f"(gateway allowance {allowance:.3f}s)"
            )

    def _edge_fields(
        self, obj: Any, key: Optional[str], request: SolveRequest, result: Any
    ) -> Optional[Dict[str, bytes]]:
        """The serialized ``edge_u``/``edge_v`` of a registered graph.

        A matching body echoes the graph's canonical edge list, which the
        service re-joins from the registered CSR, so every body of one
        graph carries the same edge bytes.  They are written on the
        first matching body and kept on the graph's record (one entry
        per graph, dropped on release) under the graph digest that the
        content address *key* carries; a different digest rewrites them.
        Inline-graph and uncacheable requests get ``None`` and encode
        the arrays as usual.
        """
        if key is None or not isinstance(result, MatchingResult):
            return None
        name = obj.get("graph") if isinstance(obj, dict) else None
        with self._graphs_lock:
            record = self._graphs.get(name) if isinstance(name, str) else None
        if record is None or record.graph is not request.payload:
            return None
        digest = key_graph_digest(key)
        if record.edge_fields is None or record.edge_fields[0] != digest:
            record.edge_fields = (
                digest, wire_schema.dump_edge_fields(result.edge_u, result.edge_v),
            )
        return record.edge_fields[1]

    def _encoded_body(
        self, obj: Any, key: Optional[str], request: SolveRequest, result: Any
    ) -> bytes:
        """Serialized response body, reused across requests for one
        content address.  The body holds only fields that are a pure
        function of (graph, π, method, knobs) — run-varying details
        (worker id, wall time, attempts, cache disposition) ride
        headers — so cold, warm-hit, and stale-degraded responses are
        byte-identical, and a cached entry lets hit/stale responses skip
        encoding altogether.  Uncacheable requests (``key is None``)
        encode fresh."""
        if key is not None:
            cached = self._body_cache.get(key)
            if cached is not None:
                self._body_cache.move_to_end(key)
                self._body_cache_hits += 1
                return cached
        payload = wire_schema.dump_result(
            request, result, encoded=self._edge_fields(obj, key, request, result)
        )
        if key is not None:
            while len(self._body_cache) >= self._body_cache_max:
                self._body_cache.popitem(last=False)
            self._body_cache[key] = payload
        return payload

    async def _handle_solve(self, request: _Request):
        obj = self._json_body(request)
        solve_req, timeout_s = self._parse_solve(obj, request.headers)
        result, source, key = await self._solve_one(solve_req, timeout_s)
        extra = {"X-Repro-Cache": source}
        if source == "stale":
            self._stale_served += 1
            extra["X-Repro-Degraded"] = "stale"
        return 200, self._encoded_body(obj, key, solve_req, result), extra

    async def _handle_batch(self, request: _Request):
        obj = self._json_body(request)
        if not isinstance(obj, dict) or not isinstance(obj.get("requests"), list):
            raise _HTTPError(
                400, "BadRequestError", "batch body must be {'requests': […]}"
            )
        items = obj["requests"]

        async def one(item: Any) -> Tuple[bool, bytes]:
            """``(ok, serialized item)`` for one batch entry."""
            try:
                solve_req, timeout_s = self._parse_solve(item, request.headers)
                result, source, key = await self._solve_one(solve_req, timeout_s)
            except _HTTPError as exc:
                return False, _dumps({
                    "ok": False, "http_status": exc.status,
                    "error": exc.error, "message": exc.message,
                })
            except Exception as exc:  # noqa: BLE001 — taxonomy boundary
                status = _status_for(exc)
                if status is None:
                    self._untyped_errors += 1
                    status = 500
                if status == 429:
                    self._shed += 1
                return False, _dumps({
                    "ok": False, "http_status": status,
                    "error": type(exc).__name__, "message": str(exc),
                })
            if source == "stale":
                self._stale_served += 1
            return True, wire_schema.dump_result(
                solve_req, result,
                encoded=self._edge_fields(item, key, solve_req, result),
                ok=True, cache=source,
            )

        results = await asyncio.gather(*(one(item) for item in items))
        status = 200 if all(ok for ok, _ in results) else 207
        body = b'{"results":[' + b",".join(item for _, item in results) + b"]}"
        return status, body, {}

    async def _handle_health(self, request: _Request):
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._executor,
            functools.partial(self.service.health, include_segments=True),
        )
        probe = self.probe()
        status_word = report.status
        reasons = list(report.reasons)
        if self._draining:
            status_word = "critical" if status_word == "critical" else "degraded"
            reasons.append("gateway is draining; new connections are refused")
        if self._wedge_events and self._last_wedge_age is not None:
            if status_word == "ok":
                status_word = "degraded"
            reasons.append(
                f"gateway event loop stalled {self._wedge_events} time(s) "
                f"(last heartbeat gap {self._last_wedge_age:.3f}s)"
            )
        http_status = {"ok": 200, "degraded": 207}.get(status_word, 503)
        body = {
            "status": status_word,
            "reasons": reasons,
            "gateway": probe,
            "service": report.as_dict(),
        }
        return http_status, body, {}

    async def _handle_metrics(self, request: _Request):
        endpoints: Dict[str, Any] = {}
        for route, rec in sorted(self._routes.items()):
            lat = np.asarray(rec["latencies"], dtype=np.float64)
            endpoints[route] = {
                "requests": rec["requests"],
                "errors": rec["errors"],
                "statuses": dict(rec["statuses"]),
                "latency_p50": float(np.percentile(lat, 50)) if lat.size else 0.0,
                "latency_p95": float(np.percentile(lat, 95)) if lat.size else 0.0,
            }
        stats = self.service.stats()
        with self._graphs_lock:
            graphs = sorted(self._graphs)
        body = {
            "endpoints": endpoints,
            "gateway": {
                **self.probe(),
                "uptime_s": (
                    0.0 if self._started_at is None
                    else round(time.monotonic() - self._started_at, 3)
                ),
                "connections_rejected": self._conns_rejected,
                "shed": self._shed,
                "stale_served": self._stale_served,
                "encoded_cache_entries": len(self._body_cache),
                "encoded_cache_hits": self._body_cache_hits,
                "untyped_errors": self._untyped_errors,
                "graphs": graphs,
            },
            "sessions": self._session_counters(),
            "service": stats.as_dict(),
        }
        return 200, body, {}

    def _session_counters(self) -> Dict[str, int]:
        """Session + durability counters for ``/v1/metrics``.

        Reads the service's ``_session_manager`` attribute directly so a
        metrics scrape never *creates* the manager as a side effect.
        """
        counters = {
            "live_sessions": 0,
            "mutations_applied": 0,
            "idempotent_replays": 0,
            "version_conflicts": 0,
            "quarantined_snapshots": 0,
        }
        manager = getattr(self.service, "_session_manager", None)
        if manager is not None:
            counters.update(manager.counters())
            store = getattr(manager, "_store", None)
            if store is not None:
                counters["quarantined_snapshots"] = len(store.corrupt_files())
        return counters

    async def _handle_register(self, request: _Request):
        obj = self._json_body(request)
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise _HTTPError(
                400, "BadRequestError",
                "registration body must be {'name': …, 'n': …, 'edges': […]}",
            )
        name = obj["name"]
        ranks = obj.get("ranks")
        if ranks is not None:
            try:
                ranks = np.asarray(ranks)
            except (TypeError, ValueError):
                raise _HTTPError(
                    400, "BadRequestError", "ranks must be an array of numbers"
                )
        graph = self._build_graph(obj)
        try:
            record = self.add_graph(name, graph, ranks)
        except KeyError:
            raise _HTTPError(
                409, "GraphExistsError",
                f"graph {name!r} is already registered",
            )
        except ValueError as exc:
            raise _HTTPError(400, "BadRequestError", str(exc))
        body = {
            "name": record.name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "segment": record.segment,
            "fingerprint": record.fingerprint,
            "warmed": record.warmed,
        }
        return 200, body, {}

    async def _handle_release(self, request: _Request):
        name = request.path.split("?", 1)[0][len("/v1/graphs/"):]
        with self._graphs_lock:
            record = self._graphs.pop(name, None)
        if record is None:
            raise _HTTPError(
                404, "UnknownGraphError", f"no registered graph named {name!r}"
            )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._executor, self._release_record, record
        )
        return 200, {"released": name}, {}

    # -- stateful sessions -------------------------------------------------

    def _session_id_from(self, request: _Request) -> str:
        rest = request.path.split("?", 1)[0][len("/v1/sessions/"):]
        return rest.partition("/")[0]

    def _session_timeout(
        self, obj: Any, headers: Dict[str, str]
    ) -> Optional[float]:
        """Deadline for a session call: body > header > gateway default."""
        timeout_s = obj.get("timeout_s") if isinstance(obj, dict) else None
        if timeout_s is None and "x-repro-timeout-s" in headers:
            try:
                timeout_s = float(headers["x-repro-timeout-s"])
            except ValueError:
                raise _HTTPError(
                    400, "BadRequestError",
                    "X-Repro-Timeout-S must be a number",
                )
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        return timeout_s

    async def _session_call(self, call, timeout_s: Optional[float]):
        """Bridge one blocking session call to the executor, deadline-bounded.

        Same never-a-hung-socket contract as :meth:`_solve_one`: past the
        deadline plus grace plus ``deadline_slack_s`` the response is a
        504 even if the worker-kill path has not reported back yet.
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, call)
        if timeout_s is None:
            return await future
        allowance = (
            timeout_s
            + self.service.config.deadline_grace
            + self.config.deadline_slack_s
        )
        try:
            return await asyncio.wait_for(asyncio.shield(future), allowance)
        except (asyncio.TimeoutError, TimeoutError):
            future.add_done_callback(lambda f: f.exception())
            raise DeadlineExceededError(
                f"session call exceeded its {timeout_s}s deadline "
                f"(gateway allowance {allowance:.3f}s)"
            )

    async def _handle_session_create(self, request: _Request):
        obj = self._json_body(request)
        if not isinstance(obj, dict):
            raise _HTTPError(
                400, "BadRequestError", "session body must be a JSON object"
            )
        unknown = set(obj) - {
            "problem", "graph", "ranks", "seed", "guards",
            "session_id", "timeout_s", "options",
        }
        if unknown:
            raise _HTTPError(
                400, "BadRequestError",
                f"unknown fields: {', '.join(sorted(unknown))}",
            )
        problem = obj.get("problem", "mis")
        if problem not in ("mis", "matching", "mm"):
            raise _HTTPError(
                400, "BadRequestError",
                f"problem must be 'mis' or 'matching', got {problem!r}",
            )
        if problem == "mm":
            problem = "matching"
        graph = obj.get("graph")
        default_ranks = None
        if isinstance(graph, str):
            payload, default_ranks = self._registered_payload(graph, problem)
        elif isinstance(graph, dict):
            built = self._build_graph(graph)
            payload = built if problem == "mis" else built.edge_list()
        else:
            raise _HTTPError(
                400, "BadRequestError",
                "graph must be a registered name or {'n': …, 'edges': […]}",
            )
        options = None
        if obj.get("options") is not None:
            # Parsed before the default-ranks seed probe below so a
            # malformed options value (non-dict, unknown fields) is a
            # 400, not an AttributeError-turned-500.
            try:
                options = SolveOptions.from_wire(obj["options"])
            except EngineError as exc:
                raise _HTTPError(400, "BadRequestError", str(exc))
        ranks = obj.get("ranks")
        if ranks is not None:
            try:
                ranks = np.asarray(ranks)
            except (TypeError, ValueError):
                raise _HTTPError(
                    400, "BadRequestError", "ranks must be an array of numbers"
                )
        elif problem == "mis" and obj.get("seed") is None:
            # Same default as /v1/solve: a registered graph's pi orders
            # the session unless the request pins ranks or a seed.
            if options is None or options.seed is None:
                ranks = default_ranks
        timeout_s = self._session_timeout(obj, request.headers)
        info = await self._session_call(
            functools.partial(
                self.service.create_session, problem, payload, ranks,
                seed=obj.get("seed"), guards=obj.get("guards"),
                session_id=obj.get("session_id"), timeout_s=timeout_s,
                options=options,
            ),
            timeout_s,
        )
        return 200, info.as_dict(), {}

    async def _handle_session_mutate(self, request: _Request):
        sid = self._session_id_from(request)
        obj = self._json_body(request)
        header_key = request.headers.get("x-repro-idempotency-key")
        try:
            decoded = wire_schema.decode_mutate(
                obj, header_mutation_id=header_key
            )
        except ValueError as exc:
            raise _HTTPError(400, "BadRequestError", str(exc))
        timeout_s = self._session_timeout(obj, request.headers)
        stats = await self._session_call(
            functools.partial(
                self.service.mutate_session, sid,
                decoded["insertions"], decoded["deletions"],
                timeout_s=timeout_s,
                mutation_id=decoded["mutation_id"],
                if_version=decoded["if_version"],
            ),
            timeout_s,
        )
        headers = {}
        if stats.get("idempotent_replay"):
            # Lets a retrying client (and the chaos harness) distinguish
            # a replayed recorded outcome from a fresh application.
            headers["X-Repro-Idempotent-Replay"] = "1"
        return 200, dict(stats, session_id=sid), headers

    async def _handle_session_result(self, request: _Request):
        sid = self._session_id_from(request)
        # problem is immutable for a session's lifetime; the version is
        # read under the record lock *with* the result so a concurrent
        # mutation cannot pair this payload with a later version.
        info = self.service.session_info(sid)
        result, version = await self._session_call(
            functools.partial(
                self.service.session_result, sid, with_version=True,
            ),
            self._session_timeout(None, request.headers),
        )
        body = wire_schema.dump_result(
            info.problem, result, session_id=sid, version=version
        )
        return 200, body, {}

    async def _handle_session_info(self, request: _Request):
        sid = self._session_id_from(request)
        return 200, self.service.session_info(sid).as_dict(), {}

    async def _handle_session_list(self, request: _Request):
        infos = self.service.list_sessions()
        return 200, {"sessions": [i.as_dict() for i in infos]}, {}

    async def _handle_session_close(self, request: _Request):
        sid = self._session_id_from(request)
        info = self.service.close_session(sid)
        return 200, dict(info.as_dict(), closed=True), {}

    # -- response writing --------------------------------------------------

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Any,
        extra: Optional[Dict[str, str]] = None,
        *,
        close: bool = False,
    ) -> None:
        payload = body if isinstance(body, (bytes, bytearray)) else _dumps(body)
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close" if close else "keep-alive",
        }
        if extra:
            headers.update(extra)
        head = "".join(
            [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"]
            + [f"{k}: {v}\r\n" for k, v in headers.items()]
            + ["\r\n"]
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _refuse_close(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Close a refused connection without resetting it.

        The client may still be sending the request the gateway never
        read.  Closing with those bytes unread answers them with a TCP
        reset, which can reach the client before it reads the ``503``
        (a broken pipe or a reset instead of the typed body).  So send
        FIN first, then discard what arrives until the client closes or
        ``header_timeout_s`` passes.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.header_timeout_s
        try:
            writer.write_eof()
            while await asyncio.wait_for(
                reader.read(65536), max(deadline - loop.time(), 0.0)
            ):
                pass
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            await self._close(writer)

    @staticmethod
    async def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def request_json(
    address: Tuple[str, int],
    method: str,
    path: str,
    body: Any = None,
    *,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], Any]:
    """Tiny blocking JSON client: ``(status, headers, parsed body)``.

    The in-repo consumer for tests and the chaos scenarios — one shared
    client so every caller exercises the same wire path (stdlib
    ``http.client``, no dependencies).
    """
    import http.client

    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else None
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            parsed,
        )
    finally:
        conn.close()
