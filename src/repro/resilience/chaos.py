"""Declarative chaos scenarios and the one runner that executes them.

A :class:`ChaosScenario` names one failure mode as data — seeded kernel
faults, worker kills pre/post compute, the mixed kill-and-fault request
storm, shared-segment corruption/unlink, orphaned segments, deadline
storms, queue floods, session churn, ambiguous session retries, and the
**network axes** (connection floods, slow-loris clients, gateway kills
mid-request, cache poisoning) that attack the HTTP front door — and
:func:`run_scenario` executes any of them through the same checks:

* every verified answer must be **bit-identical** to Algorithm 1, the
  sequential greedy solve (``method="sequential"``) of the same
  instance;
* every failure must surface as a **typed** :class:`~repro.errors.
  ReproError` — a bare ``Exception`` escaping the stack is a finding;
* every requested operation ends exactly once, as a verified answer, a
  typed failure or shed load; the runner's own re-solves and
  final-answer checks count apart, as ``checks``;
* after the run, **zero** leaked ``repro-*`` shared-memory segments
  (orphans must fall to :func:`~repro.resilience.reaper.reap_orphans`)
  and **zero** stray child processes.

The canonical :data:`SCENARIOS` tuple is what ``scripts/soak_resilience.py``
(the one chaos runner and report) and the chaos test suite iterate;
``scenario.scaled(0.34)`` shrinks any scenario for smoke runs.  All
randomness derives from ``(scenario.seed, seed_offset, i)`` streams.  A
service row's :attr:`ScenarioOutcome.counts` splits the chaos counts the
seed fixes (:data:`SEEDED_COUNTS`) from those that depend on completion
order (:data:`TIMING_COUNTS`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.backends.sharedmem import SharedArrays, SharedCSR
from repro.core.matching.api import maximal_matching
from repro.core.mis.api import maximal_independent_set
from repro.core.result import MISResult
from repro.errors import QueueFullError, ReproError
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    rmat_graph,
    uniform_random_graph,
)
from repro.resilience.reaper import _segment_exists, reap_orphans
from repro.service.config import ServiceConfig, SolveRequest
from repro.service.service import SolverService

__all__ = [
    "SCENARIOS",
    "SEEDED_COUNTS",
    "TIMING_COUNTS",
    "ChaosScenario",
    "ScenarioOutcome",
    "run_scenario",
    "scenario_by_name",
]

_SEGMENT_ATTACKS = (None, "unlink", "corrupt", "orphan")
_NETWORK_ATTACKS = (
    None, "conn_flood", "slow_client", "gateway_kill_mid_request",
    "cache_poison_guard",
)

#: Chaos counts the seed fixes when requests are submitted in order and
#: no breaker moves an attempt: an attempt's kill, and its fault on a
#: given engine, come from a stream keyed by (chaos seed, request id,
#: attempt).
SEEDED_COUNTS = (
    "crashes", "restarts", "retries", "faults_armed", "faults_landed",
)
#: Chaos counts that depend on completion order: a breaker opens on
#: consecutive failures across workers, and an open breaker degrades.
TIMING_COUNTS = ("breaker_trips", "degraded")


@dataclass(frozen=True)
class ChaosScenario:
    """One named failure mode, expressed entirely as data.

    Service-level knobs (``kill_probability``, ``fault_probability``,
    ``deadline_storm``, ``queue_flood``, ``segment_attack`` of
    ``"unlink"``/``"corrupt"``) run through a real
    :class:`~repro.service.SolverService` built by :meth:`service_config`.
    ``segment_attack="orphan"`` SIGKILLs a segment-owning child process
    and requires the reaper to recover.  The other service rows run the
    mixed request plan: each request draws its graph family (uniform,
    rMat, grid, cycle) and its problem from the seeded stream, and every
    fifth carries a 30 s deadline (``deadline_storm`` swaps in 2 ms and
    30 s deadlines on alternate requests).  ``gateway=True``
    (implied by any ``network_attack``) drives the requests through a
    live :class:`~repro.service.http.HTTPGateway` over real sockets,
    layering the network attack on top of whatever service-level chaos
    the scenario arms.
    """

    name: str
    description: str
    requests: int = 12
    workers: int = 2
    max_queue: int = 64
    max_retries: int = 4
    kill_probability: float = 0.0
    kill_point: Optional[str] = None
    fault_probability: float = 0.0
    segment_attack: Optional[str] = None
    deadline_storm: bool = False
    queue_flood: bool = False
    gateway: bool = False
    network_attack: Optional[str] = None
    session_churn: bool = False
    #: Exactly-once axis: session mutations over HTTP whose outcomes are
    #: made ambiguous (response discarded, or the whole gateway+service
    #: stack torn down) in the commit-vs-respond window, then retried
    #: under the same idempotency key.  ``kill_probability`` is consumed
    #: by the *runner* as the per-mutation ambiguity probability — the
    #: service's own worker-kill chaos stays off so every ambiguity is
    #: injected in the commit window, not before it.
    ambiguous_retry: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.segment_attack not in _SEGMENT_ATTACKS:
            raise ValueError(
                f"segment_attack must be one of {_SEGMENT_ATTACKS}, "
                f"got {self.segment_attack!r}"
            )
        if self.network_attack not in _NETWORK_ATTACKS:
            raise ValueError(
                f"network_attack must be one of {_NETWORK_ATTACKS}, "
                f"got {self.network_attack!r}"
            )
        if self.network_attack is not None and not self.gateway:
            object.__setattr__(self, "gateway", True)

    def scaled(self, factor: float) -> "ChaosScenario":
        """This scenario with its request volume scaled (smoke/soak dials)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return dataclasses.replace(
            self, requests=max(2, int(round(self.requests * factor)))
        )

    def service_config(self, **overrides) -> ServiceConfig:
        """The :class:`ServiceConfig` this scenario's service runs under.

        Scripts reuse this so their chaos knobs have exactly one source;
        *overrides* win over the scenario's mapping.
        """
        base: Dict[str, Any] = dict(
            workers=self.workers,
            max_queue=self.max_queue,
            max_retries=self.max_retries,
            kill_probability=self.kill_probability,
            kill_point=self.kill_point,
            fault_probability=self.fault_probability,
            chaos_seed=self.seed,
            backoff_base=0.005,
            backoff_max=0.05,
            tick=0.01,
        )
        base.update(overrides)
        return ServiceConfig(**base)


#: The canonical scenario suite, spanning kernels → engines → backends →
#: service → gateway → sessions.  ``scenario_by_name`` looks entries up; the soak script and
#: the chaos tests iterate the whole tuple.
SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario(
        "baseline",
        "no faults; validates the harness itself",
        requests=10, seed=101,
    ),
    ChaosScenario(
        "kernel-faults",
        "seeded kernel faults armed inside workers; every armed attempt "
        "runs fully guarded, so faults are detected or harmless "
        "(requests pin rootset-vec, so the frontier faults are the ones "
        "armed; the served default, prefix, binds only min-lift's kernel)",
        requests=12, fault_probability=0.35, max_retries=6, seed=202,
    ),
    ChaosScenario(
        "worker-kill-pre",
        "workers hard-exit before computing; retries must recover",
        requests=12, kill_probability=0.3, kill_point="pre",
        max_retries=8, seed=303,
    ),
    ChaosScenario(
        "worker-kill-post",
        "workers hard-exit after computing but before replying",
        requests=12, kill_probability=0.3, kill_point="post",
        max_retries=8, seed=404,
    ),
    ChaosScenario(
        "segment-unlink",
        "the registered shared graph is released under load; later "
        "requests fall back to pickling with identical results",
        requests=10, segment_attack="unlink", seed=606,
    ),
    ChaosScenario(
        "segment-corrupt",
        "the shared priority array is corrupted in place; warm workers "
        "must detect it as InvalidOrderingError, never a wrong answer",
        requests=10, segment_attack="corrupt", seed=707,
    ),
    ChaosScenario(
        "segment-orphan",
        "a segment-owning process is SIGKILLed; the reaper must remove "
        "the orphaned segment",
        requests=3, segment_attack="orphan", seed=808,
    ),
    ChaosScenario(
        "deadline-storm",
        "a storm of sub-millisecond deadlines mixed with generous ones; "
        "expiries are typed and survivors stay bit-identical",
        requests=14, deadline_storm=True, max_retries=2, seed=909,
    ),
    ChaosScenario(
        "queue-flood",
        "non-blocking submissions against a tiny queue; overflow is shed "
        "as QueueFullError, admitted work completes correctly",
        requests=20, queue_flood=True, max_queue=4, seed=1010,
    ),
    ChaosScenario(
        "service-storm",
        "a mixed MIS/MM request storm over uniform, rMat, grid and cycle "
        "graphs, every fifth request with a deadline, while workers are "
        "hard-killed and kernel faults are armed on the engine each "
        "attempt runs; answers are bit-identical, failures typed, and "
        "the pool ends at full strength",
        requests=200, workers=4, max_queue=200, kill_probability=0.2,
        fault_probability=0.2, max_retries=8, seed=0,
    ),
    ChaosScenario(
        "gateway-storm",
        "every client at once over real sockets against 8 connection "
        "slots (the excess refused with typed 503s) while workers are "
        "hard-killed and kernel faults are armed; a quarter of the "
        "requests carry 2 ms deadlines and a quarter an unmeetable 10 µs "
        "one; every response is a verified answer or a typed error, never "
        "a 500, the untyped-error counter stays 0 and health recovers",
        requests=40, kill_probability=0.2, fault_probability=0.2,
        max_retries=8, deadline_storm=True, gateway=True, seed=1111,
    ),
    ChaosScenario(
        "conn-flood",
        "a flood of idle connections against a small connection bound; "
        "excess is refused with typed 503s, idlers are cut by the "
        "header timeout, and real requests still complete",
        requests=6, network_attack="conn_flood", seed=1212,
    ),
    ChaosScenario(
        "slow-client",
        "slow-loris clients trickle request heads and bodies; the "
        "gateway cuts them off with typed 408s instead of holding "
        "sockets, and concurrent real requests are unaffected",
        requests=6, network_attack="slow_client", seed=1313,
    ),
    ChaosScenario(
        "gateway-kill-mid-request",
        "the gateway is stopped while solves are in flight; the drain "
        "completes them (or the socket closes cleanly), segments are "
        "released, and a fresh gateway serves again",
        requests=6, network_attack="gateway_kill_mid_request", seed=1414,
    ),
    ChaosScenario(
        "cache-poison-guard",
        "the registered π is mutated in place after warming the result "
        "cache; the recomputed content digest must miss, so the "
        "poisoned request gets a fresh (correct) solve, never the "
        "stale pre-mutation entry",
        requests=4, network_attack="cache_poison_guard", seed=1515,
    ),
    ChaosScenario(
        "session-churn",
        "stateful MIS+matching sessions under edge-mutation batches "
        "while workers are hard-killed mid-mutation; every committed "
        "version must replay deterministically (retries from committed "
        "state), a mid-run snapshot/close/restore must be transparent, "
        "and the final answers must be bit-identical to a from-scratch "
        "greedy solve of the mutated graph",
        requests=10, kill_probability=0.3, max_retries=8,
        session_churn=True, seed=1616,
    ),
    ChaosScenario(
        "ambiguous-retry",
        "session mutations over HTTP whose responses are lost — or whose "
        "whole gateway+service stack is torn down and restored from "
        "persisted snapshots — in the commit-vs-respond window; every "
        "retry carries the same idempotency key and must be applied "
        "exactly once, with the final answers bit-identical to a "
        "sequential greedy solve of the shadow graph",
        requests=12, kill_probability=0.35, max_retries=8,
        ambiguous_retry=True, seed=1717,
    ),
)


def scenario_by_name(name: str) -> ChaosScenario:
    """Look a canonical scenario up by name (ValueError on unknown)."""
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise ValueError(
        f"unknown chaos scenario {name!r}; expected one of "
        f"{[s.name for s in SCENARIOS]}"
    )


@dataclass
class ScenarioOutcome:
    """What one :func:`run_scenario` execution observed.

    ``requests`` counts the operations the scenario asked for: solves,
    reap rounds, or session mutations (one per session per batch).  Each
    ends exactly once, as a verified answer (``completed``), a typed
    failure (``failures``, by class) or shed load (``shed``); one that
    ends otherwise is listed in ``untyped_failures`` or ``mismatches``.
    ``checks`` counts the verified answers the runner asks for on its
    own: a session's final answer, the cache-poison probe and a fresh
    gateway's serve.  ``counts`` holds a service row's chaos counts
    (:data:`SEEDED_COUNTS` and :data:`TIMING_COUNTS`, read from the
    service's stats), and ``attempts`` the attempt log of each answered
    in-process solve (``result.stats.aux["service"]["attempts"]``), in
    request order.
    """

    scenario: str
    requests: int
    completed: int = 0
    shed: int = 0
    checks: int = 0
    failures: Dict[str, int] = field(default_factory=dict)  #: typed, by class
    untyped_failures: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    leaked_segments: List[str] = field(default_factory=list)
    reaped_segments: List[str] = field(default_factory=list)
    stray_processes: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    attempts: List[List[Dict[str, Any]]] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def failed(self) -> int:
        """Total typed failures."""
        return sum(self.failures.values())

    @property
    def ok(self) -> bool:
        """The scenario's invariants all held.

        Typed failures and shed load are *expected* under chaos; what
        must never happen is a requested operation that ends neither
        verified, typed nor shed (or ends twice), an untyped error, a
        result mismatch, a leaked segment surviving the reap, a stray
        process — or nothing verified at all.
        """
        return (
            self.completed + self.checks > 0
            and self.completed + self.failed + self.shed == self.requests
            and not self.untyped_failures
            and not self.mismatches
            and not self.leaked_segments
            and not self.stray_processes
        )

    def _count_failure(self, exc: BaseException) -> None:
        key = type(exc).__name__
        self.failures[key] = self.failures.get(key, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "checks": self.checks,
            "failures": dict(self.failures),
            "untyped_failures": list(self.untyped_failures),
            "mismatches": list(self.mismatches),
            "leaked_segments": list(self.leaked_segments),
            "reaped_segments": list(self.reaped_segments),
            "stray_processes": list(self.stray_processes),
            "notes": list(self.notes),
            "counts": dict(self.counts),
            "duration_s": round(self.duration_s, 3),
        }


# -- shared helpers ----------------------------------------------------------


def _shm_segments() -> Set[str]:
    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.glob("repro-*")}


def _build_graphs(seed: int):
    """The graph families every runner draws from, by name, each with
    its edge list built once: ``{family: (graph, edge_list)}``."""
    graphs = {
        "cycle": cycle_graph(300),
        "grid": grid_graph(20, 20),
        "rmat": rmat_graph(9, 1500, seed=seed + 1),
        "uniform": uniform_random_graph(400, 1600, seed=seed),
    }
    return {name: (g, g.edge_list()) for name, g in graphs.items()}


def _reference(problem: str, graph, seed: int = 0, ranks=None):
    """Algorithm 1's answer, which every engine and schedule must return."""
    if problem == "mis":
        return maximal_independent_set(
            graph, ranks, method="sequential", seed=seed
        )
    return maximal_matching(graph, ranks, method="sequential", seed=seed)


def _matches(result, ref) -> bool:
    if isinstance(ref, MISResult):
        return isinstance(result, MISResult) and np.array_equal(
            result.status, ref.status
        )
    return (
        not isinstance(result, MISResult)
        and np.array_equal(result.status, ref.status)
        and np.array_equal(result.edge_u, ref.edge_u)
        and np.array_equal(result.edge_v, ref.edge_v)
    )


def _count_chaos(outcome: ScenarioOutcome, svc: SolverService) -> None:
    """Fill ``outcome.counts`` from *svc*'s stats."""
    stats = svc.stats()
    outcome.counts = {
        "crashes": stats.worker_crashes,
        "restarts": stats.worker_restarts,
        "retries": stats.retries,
        "faults_armed": stats.faults_armed,
        "faults_landed": stats.faults_landed,
        "breaker_trips": stats.breaker_trips,
        "degraded": stats.degraded,
    }


def _collect_strays(outcome: ScenarioOutcome) -> None:
    for proc in multiprocessing.active_children():
        proc.join(timeout=2.0)
        if proc.is_alive():
            outcome.stray_processes.append(proc.name)


# -- the runner --------------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario, *, seed_offset: int = 0
) -> ScenarioOutcome:
    """Execute one scenario and return everything it observed.

    *seed_offset* shifts every derived stream, so a soak can run the
    same scenario repeatedly with fresh (but reproducible) randomness.
    """
    t0 = time.monotonic()
    before = _shm_segments()
    if scenario.segment_attack == "orphan":
        outcome = _run_segment_orphan(scenario, seed_offset)
    elif scenario.session_churn:
        outcome = _run_session_churn(scenario, seed_offset)
    elif scenario.ambiguous_retry:
        outcome = _run_ambiguous_retry(scenario, seed_offset)
    elif scenario.gateway:
        outcome = _run_gateway(scenario, seed_offset)
    else:
        outcome = _run_service(scenario, seed_offset)
    _collect_strays(outcome)
    leaked = sorted(_shm_segments() - before)
    if leaked:
        report = reap_orphans()
        outcome.reaped_segments.extend(report.reaped)
        leaked = sorted(set(leaked) & _shm_segments())
    outcome.leaked_segments = leaked
    outcome.duration_s = time.monotonic() - t0
    return outcome


def _service_plans(scenario: ChaosScenario, seed_offset: int):
    """Per request, (problem, payload, seed, timeout_s).

    The mixed plan: each request draws a graph family and a problem from
    the seeded stream, and every fifth carries a generous 30 s deadline,
    so the deadline path runs without expiring.
    """
    seed = scenario.seed + seed_offset
    graphs = _build_graphs(seed)
    if scenario.segment_attack in ("unlink", "corrupt"):
        # Segment attacks target the one registered graph, so every
        # request must ride the shared-memory path.
        return [("mis", graphs["uniform"][0], 0, None)] * scenario.requests
    families = list(graphs.values())
    rng = np.random.default_rng(seed)
    plans = []
    for i in range(scenario.requests):
        graph, edges = families[int(rng.integers(len(families)))]
        problem = "mis" if rng.integers(2) == 0 else "matching"
        timeout_s = 30.0 if i % 5 == 0 else None
        if scenario.deadline_storm:
            timeout_s = 0.002 if i % 2 == 1 else 30.0
        plans.append((
            problem,
            graph if problem == "mis" else edges,
            int(rng.integers(2**31)),
            timeout_s,
        ))
    return plans


def _run_service(scenario: ChaosScenario, seed_offset: int) -> ScenarioOutcome:
    outcome = ScenarioOutcome(scenario.name, scenario.requests)
    plans = _service_plans(scenario, seed_offset)
    segment_mode = scenario.segment_attack in ("unlink", "corrupt")

    graph0 = shared_ranks = None
    if segment_mode:
        graph0 = plans[0][1]
        shared_ranks = np.random.default_rng(scenario.seed).permutation(
            graph0.num_vertices
        ).astype(np.int64)
    refs = [
        _reference(problem, payload, s, shared_ranks)
        for problem, payload, s, _ in plans
    ]

    svc = SolverService(scenario.service_config())
    svc.start()
    try:
        registered = None
        request_ranks = None
        if segment_mode:
            registered = svc.register_graph(graph0, shared_ranks)
            # Requests reference the registered π via its shared view, so
            # workers take the zero-copy path (and, for the corruption
            # attack, read the poisoned array).
            request_ranks = registered.ranks

        futures: List[Optional[Any]] = [None] * len(plans)

        def submit(i: int) -> None:
            problem, payload, s, timeout_s = plans[i]
            request = SolveRequest(
                problem,
                payload,
                ranks=request_ranks,
                timeout_seconds=timeout_s,
                options={} if segment_mode else {"seed": s},
            )
            if scenario.name == "kernel-faults":
                # Faults are armed from the kinds the engine binds: the
                # frontier faults on rootset-vec, only min-lift on prefix.
                request.method = "rootset-vec"
            try:
                futures[i] = svc.submit(request, block=not scenario.queue_flood)
            except QueueFullError:
                outcome.shed += 1

        half = len(plans) // 2
        for i in range(half):
            submit(i)
        if segment_mode:
            # Let the first wave finish warm before attacking the segment.
            for fut in futures[:half]:
                if fut is not None:
                    fut.exception(timeout=60.0)
            if scenario.segment_attack == "unlink":
                svc.release_graph(graph0)
                request_ranks = shared_ranks  # back to the pickled path
            else:
                poison = SharedArrays.attach(registered.name, writable=True)
                # Duplicate one rank: π stops being a permutation, which
                # validate_priorities flags on the next warm solve.
                poison.arrays["ranks"][0] = poison.arrays["ranks"][1]
                poison.close()
        for i in range(half, len(plans)):
            submit(i)

        for i, fut in enumerate(futures):
            if fut is None:
                continue
            exc = fut.exception(timeout=120.0)
            if exc is None:
                result = fut.result()
                outcome.attempts.append(result.stats.aux["service"]["attempts"])
                if _matches(result, refs[i]):
                    outcome.completed += 1
                else:
                    outcome.mismatches.append(
                        f"request {i} ({plans[i][0]}) diverged from the "
                        f"sequential reference"
                    )
            elif isinstance(exc, ReproError):
                outcome._count_failure(exc)
            else:
                outcome.untyped_failures.append(
                    f"request {i}: {type(exc).__name__}: {exc}"
                )
        _count_chaos(outcome, svc)
        alive = svc.stats().workers_alive
        if alive != scenario.workers:
            outcome.untyped_failures.append(
                f"{alive}/{scenario.workers} workers alive after the run"
            )
    finally:
        svc.shutdown(drain=False)
    return outcome


def _orphan_child(conn, n: int, m: int, seed: int) -> None:  # pragma: no cover
    # Runs in a fork child: own a segment, report its name, then hang
    # until the parent SIGKILLs us — no finalizer or atexit ever runs.
    graph = uniform_random_graph(n, m, seed=seed)
    shared = SharedCSR.create(graph)
    conn.send(shared.name)
    conn.recv()


def _run_segment_orphan(
    scenario: ChaosScenario, seed_offset: int
) -> ScenarioOutcome:
    rounds = min(scenario.requests, 4)
    outcome = ScenarioOutcome(scenario.name, rounds)
    # Make sure the resource tracker exists *before* forking: a child
    # that lazily spawns its own private tracker would race the reaper
    # with tracker-side cleanup after the SIGKILL (and spray warnings);
    # a child sharing the parent's tracker leaks cleanly — which is the
    # exact failure mode the reaper exists for.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    ctx = multiprocessing.get_context("fork")
    for k in range(rounds):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_orphan_child,
            args=(child_conn, 120, 300, scenario.seed + seed_offset + k),
            name=f"repro-orphan-owner-{k}",
        )
        proc.start()
        child_conn.close()
        try:
            name = parent_conn.recv()
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)
            parent_conn.close()
        if _segment_exists(name) is None:
            outcome.untyped_failures.append(
                f"round {k}: segment {name} vanished without the reaper "
                "(SIGKILL should leak it)"
            )
            continue
        report = reap_orphans()
        if name in report.reaped and _segment_exists(name) is None:
            outcome.completed += 1
            outcome.reaped_segments.append(name)
        else:
            outcome.untyped_failures.append(
                f"round {k}: orphaned segment {name} survived the reap"
            )
    return outcome


# -- the session-churn runner ------------------------------------------------


def _session_batch(rng, n: int, edges: Set[Tuple[int, int]], size: int):
    """One valid random mutation batch against the live edge set."""
    half = max(1, size // 2)
    pool = sorted(edges)
    k = min(half, len(pool))
    dels = (
        [pool[j] for j in rng.choice(len(pool), size=k, replace=False)]
        if k else []
    )
    ins: List[Tuple[int, int]] = []
    while len(ins) < half:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges or key in ins or key in dels:
            continue
        ins.append(key)
    return ins, dels


def _session_reference(problem: str, n: int, snap: Dict[str, Any], result, pi):
    """A session's live edge set, from its committed edge rows, and
    Algorithm 1's answer on that graph under the session's order."""
    rows = np.asarray(snap["state"]["edges"], dtype=np.int64)
    u, v = rows[:, 0], rows[:, 1]
    live = set(zip(u.tolist(), v.tolist()))
    if problem == "mis":
        return live, _reference("mis", from_edges(n, u, v), ranks=pi)
    return live, _reference(
        "matching", EdgeList(n, result.edge_u, result.edge_v), ranks=result.ranks,
    )


def _run_session_churn(
    scenario: ChaosScenario, seed_offset: int
) -> ScenarioOutcome:
    """Stateful sessions under worker kills: replay must be transparent.

    Two sessions (MIS and matching) take ``scenario.requests`` seeded
    mutation batches each while the service's chaos knobs hard-kill
    workers mid-mutation.  Halfway through, each session is snapshotted,
    closed, and restored — the continuation must behave as if nothing
    happened.  At the end the committed answer must be **bit-identical**
    to a from-scratch greedy solve of the mutated graph, and the
    session's edge set must equal the independently tracked shadow set.
    """
    # One requested mutation per session per batch.
    outcome = ScenarioOutcome(scenario.name, 2 * scenario.requests)
    rng = np.random.default_rng((scenario.seed, seed_offset))
    graph = uniform_random_graph(220, 640, seed=scenario.seed + seed_offset)
    n = graph.num_vertices
    pi = np.random.default_rng(scenario.seed + 1).permutation(n).astype(np.int64)
    el = graph.edge_list()
    base_edges = set(zip(el.u.tolist(), el.v.tolist()))

    svc = SolverService(scenario.service_config())
    svc.start()
    try:
        sessions: Dict[str, Dict[str, Any]] = {}
        for problem in ("mis", "matching"):
            info = svc.create_session(
                problem,
                graph if problem == "mis" else el,
                pi if problem == "mis" else None,
                seed=scenario.seed,
                guards="full",
            )
            sessions[problem] = {"id": info.session_id, "edges": set(base_edges)}

        half = scenario.requests // 2
        for b in range(scenario.requests):
            for problem, rec in sessions.items():
                ins, dels = _session_batch(rng, n, rec["edges"], 6)
                try:
                    svc.mutate_session(rec["id"], ins, dels)
                except ReproError as exc:
                    # Retries exhausted: the committed version did NOT
                    # advance, so the shadow must not either.
                    outcome._count_failure(exc)
                    continue
                except Exception as exc:  # noqa: BLE001 — taxonomy boundary
                    outcome.untyped_failures.append(
                        f"batch {b} ({problem}): {type(exc).__name__}: {exc}"
                    )
                    continue
                rec["edges"].difference_update(dels)
                rec["edges"].update(ins)
                outcome.completed += 1
            if b == half:
                # Snapshot/close/restore mid-churn: the revived session
                # must continue exactly where the committed state left off.
                for problem, rec in sessions.items():
                    snap = svc.session_snapshot(rec["id"])
                    svc.close_session(rec["id"])
                    revived = svc.restore_session(snap)
                    if revived.session_id != rec["id"]:
                        outcome.untyped_failures.append(
                            f"restore renamed session {rec['id']!r}"
                        )
                    outcome.notes.append(
                        f"{problem} session restored at version "
                        f"{revived.version}"
                    )

        for problem, rec in sessions.items():
            snap = svc.session_snapshot(rec["id"])
            result = svc.session_result(rec["id"])
            live, ref = _session_reference(problem, n, snap, result, pi)
            if live != rec["edges"]:
                outcome.mismatches.append(
                    f"{problem} session edge set diverged from the shadow "
                    f"({len(live ^ rec['edges'])} differing edges)"
                )
                continue
            if np.array_equal(result.status, ref.status):
                outcome.checks += 1
                outcome.notes.append(
                    f"{problem} session bit-identical to from-scratch "
                    f"greedy after {snap['version']} committed versions"
                )
            else:
                outcome.mismatches.append(
                    f"{problem} session diverged from the from-scratch "
                    "greedy answer on the mutated graph"
                )
        _count_chaos(outcome, svc)
    finally:
        svc.shutdown(drain=False)
    return outcome


# -- the ambiguous-retry (exactly-once) runner -------------------------------


def _run_ambiguous_retry(
    scenario: ChaosScenario, seed_offset: int
) -> ScenarioOutcome:
    """Client retries after ambiguous outcomes must be exactly-once.

    Two sessions (MIS and matching) stream mutation batches over a real
    HTTP gateway, every batch under an ``X-Repro-Idempotency-Key``.
    With probability ``scenario.kill_probability`` a mutation's outcome
    is made *ambiguous* in one of three ways:

    * ``lost_response`` — the commit landed but the response is
      discarded (a 504 / connection reset after commit);
    * ``killed_after_commit`` — the whole gateway+service stack is torn
      down after the commit and rebuilt on the same ``session_dir``,
      restoring the sessions from their persisted snapshots;
    * ``killed_before_commit`` — the stack dies before the request was
      ever sent, so nothing committed.

    In every case the client retries with the *same* key.  The retry
    must leave the session at exactly one version past the pre-mutation
    version (a double-apply moves it two), and the final MIS/MM answers
    must be bit-identical to a sequential greedy solve of the
    independently tracked shadow graph.  The snapshot directory
    must also end with zero ``.corrupt`` quarantine files.
    """
    import shutil
    import tempfile

    from repro.dynamic.store import SnapshotStore
    from repro.service.http import GatewayConfig, HTTPGateway, request_json

    # One requested mutation per session per batch.
    outcome = ScenarioOutcome(scenario.name, 2 * scenario.requests)
    rng = np.random.default_rng((scenario.seed, seed_offset))
    graph = uniform_random_graph(180, 520, seed=scenario.seed + seed_offset)
    n = graph.num_vertices
    pi = np.random.default_rng(scenario.seed + 1).permutation(n).astype(np.int64)
    el = graph.edge_list()
    base_edges = set(zip(el.u.tolist(), el.v.tolist()))
    session_dir = tempfile.mkdtemp(prefix="repro-ambiguous-")

    def build_stack() -> "HTTPGateway":
        svc = SolverService(scenario.service_config(
            kill_probability=0.0,
            session_dir=session_dir,
        ))
        gw = HTTPGateway(svc, GatewayConfig(drain_timeout_s=15.0))
        gw.start_in_thread()
        return gw

    gw = build_stack()
    retried = replayed = fresh_applied = 0
    try:
        sessions: Dict[str, Dict[str, Any]] = {}
        for problem in ("mis", "matching"):
            info = gw.service.create_session(
                problem,
                graph if problem == "mis" else el,
                pi if problem == "mis" else None,
                seed=scenario.seed,
                guards="full",
                session_id=f"ambiguous-{problem}",
            )
            sessions[problem] = {
                "id": info.session_id,
                "edges": set(base_edges),
                "version": info.version,
            }

        def mutate_http(sid: str, mid: str, ins, dels):
            return request_json(
                gw.address, "POST", f"/v1/sessions/{sid}/mutate",
                {
                    "insertions": [list(e) for e in ins],
                    "deletions": [list(e) for e in dels],
                },
                headers={"X-Repro-Idempotency-Key": mid},
                timeout=120.0,
            )

        def restart_stack() -> None:
            nonlocal gw
            gw.stop_in_thread()
            gw = build_stack()
            for rec in sessions.values():
                gw.service.restore_session(session_id=rec["id"])

        for b in range(scenario.requests):
            for problem, rec in sessions.items():
                ins, dels = _session_batch(rng, n, rec["edges"], 6)
                mid = f"{problem}-b{b}"
                expected = rec["version"] + 1
                mode = None
                if rng.random() < scenario.kill_probability:
                    sub = rng.random()
                    mode = (
                        "lost_response" if sub < 0.4
                        else "killed_after_commit" if sub < 0.8
                        else "killed_before_commit"
                    )
                try:
                    body = None
                    if mode != "killed_before_commit":
                        status, _, body = mutate_http(
                            rec["id"], mid, ins, dels
                        )
                        if status != 200:
                            outcome.untyped_failures.append(
                                f"batch {b} ({problem}): status {status}: "
                                f"{body}"
                            )
                            continue
                    if mode in ("killed_after_commit", "killed_before_commit"):
                        restart_stack()
                    if mode is not None:
                        # The first outcome is ambiguous by construction;
                        # retry with the same key until a definite answer.
                        retried += 1
                        status, _, body = mutate_http(
                            rec["id"], mid, ins, dels
                        )
                        if status != 200:
                            outcome.untyped_failures.append(
                                f"batch {b} ({problem}) retry ({mode}): "
                                f"status {status}: {body}"
                            )
                            continue
                        if body.get("idempotent_replay"):
                            replayed += 1
                        else:
                            fresh_applied += 1
                except ReproError as exc:
                    outcome._count_failure(exc)
                    continue
                except Exception as exc:  # noqa: BLE001 — taxonomy boundary
                    outcome.untyped_failures.append(
                        f"batch {b} ({problem}, {mode}): "
                        f"{type(exc).__name__}: {exc}"
                    )
                    continue
                if body.get("version") != expected:
                    outcome.mismatches.append(
                        f"batch {b} ({problem}, {mode}): version "
                        f"{body.get('version')} != expected {expected} — "
                        f"the mutation was not applied exactly once"
                    )
                    continue
                rec["version"] = expected
                rec["edges"].difference_update(dels)
                rec["edges"].update(ins)
                outcome.completed += 1

        for problem, rec in sessions.items():
            snap = gw.service.session_snapshot(rec["id"])
            result = gw.service.session_result(rec["id"])
            live, ref = _session_reference(problem, n, snap, result, pi)
            if live != rec["edges"]:
                outcome.mismatches.append(
                    f"{problem} session edge set diverged from the shadow "
                    f"({len(live ^ rec['edges'])} differing edges)"
                )
                continue
            if np.array_equal(result.status, ref.status):
                outcome.checks += 1
                outcome.notes.append(
                    f"{problem} session bit-identical to sequential "
                    f"greedy after {snap['version']} committed versions"
                )
            else:
                outcome.mismatches.append(
                    f"{problem} session diverged from the sequential "
                    "greedy answer on the shadow graph"
                )

        corrupt = SnapshotStore(session_dir).corrupt_files()
        if corrupt:
            outcome.mismatches.append(
                f"quarantine leak: {len(corrupt)} .corrupt file(s) left "
                f"in the session dir: {corrupt}"
            )
        outcome.notes.append(
            f"{retried}/{retried} ambiguous mutation(s) retried exactly "
            f"once ({replayed} idempotent replays, {fresh_applied} applied "
            f"fresh on retry)"
        )
        status, _, metrics = request_json(
            gw.address, "GET", "/v1/metrics", timeout=30.0
        )
        if status == 200:
            untyped = metrics["gateway"]["untyped_errors"]
            if untyped:
                outcome.untyped_failures.append(
                    f"gateway counted {untyped} untyped error(s)"
                )
    finally:
        gw.stop_in_thread()
        shutil.rmtree(session_dir, ignore_errors=True)
    return outcome


# -- the gateway (network-axis) runner ---------------------------------------


def _http_matches(payload: Dict[str, Any], ref) -> bool:
    if isinstance(ref, MISResult):
        return payload.get("status") == ref.status.tolist()
    return (
        payload.get("status") == ref.status.tolist()
        and payload.get("edge_u") == ref.edge_u.tolist()
        and payload.get("edge_v") == ref.edge_v.tolist()
    )


def _drain_socket(sock: socket.socket, timeout: float) -> bytes:
    """Read until the server closes the connection (or *timeout*)."""
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    except (socket.timeout, ConnectionError, OSError):
        pass
    finally:
        sock.close()
    return b"".join(chunks)


def _attack_conn_flood(outcome: ScenarioOutcome, gateway) -> None:
    """Open idle connections past the bound; all must be cut, typed."""
    addr = gateway.address
    limit = gateway.config.max_connections
    flood = [
        socket.create_connection(addr, timeout=5.0)
        for _ in range(limit + 8)
    ]
    # One real request while the flood holds every slot: either a typed
    # 503 rejection or (a slot freed in time) a correct answer.
    try:
        from repro.service.http import request_json

        status, _, body = request_json(
            addr, "GET", "/v1/health", timeout=10.0
        )
        if status == 500:
            outcome.untyped_failures.append(
                f"health under flood returned 500: {body}"
            )
    except (ConnectionError, OSError, TimeoutError):
        outcome.notes.append("health probe refused during flood (socket)")
    cutoff = gateway.config.header_timeout_s * 4 + 5.0
    refused = cut = 0
    for sock in flood:
        data = _drain_socket(sock, cutoff)
        if b"ConnectionLimitError" in data:
            refused += 1
        elif b"500 " in data[:20]:
            outcome.untyped_failures.append(
                f"flood connection got a 500: {data[:120]!r}"
            )
        else:
            # Admitted idler: the slow-loris timeout must have cut it
            # (a 408 response or a bare close).
            cut += 1
    outcome.notes.append(
        f"conn_flood: {len(flood)} idle connections -> "
        f"{refused} refused typed, {cut} cut by timeout"
    )
    if refused + cut != len(flood):
        outcome.untyped_failures.append(
            f"conn_flood: {len(flood) - refused - cut} connections "
            "neither refused nor cut"
        )


def _attack_slow_client(outcome: ScenarioOutcome, gateway) -> None:
    """Trickle a request head and a request body; both must get 408s."""
    addr = gateway.address
    cutoff = (
        max(gateway.config.header_timeout_s, gateway.config.body_timeout_s)
        * 4 + 5.0
    )
    # Half a request head, then silence.
    head_sock = socket.create_connection(addr, timeout=5.0)
    head_sock.sendall(b"POST /v1/solve HTTP/1.1\r\nContent-Ty")
    # A full head that promises a body which never arrives.
    body_sock = socket.create_connection(addr, timeout=5.0)
    body_sock.sendall(
        b"POST /v1/solve HTTP/1.1\r\nContent-Length: 1000\r\n\r\n{"
    )
    for label, sock in (("head", head_sock), ("body", body_sock)):
        data = _drain_socket(sock, cutoff)
        if b"SlowClientError" in data:
            outcome.notes.append(f"slow_client: {label} trickle cut with 408")
        elif b"500 " in data[:20]:
            outcome.untyped_failures.append(
                f"slow_client: {label} trickle got a 500: {data[:120]!r}"
            )
        else:
            outcome.untyped_failures.append(
                f"slow_client: {label} trickle not cut with a typed 408 "
                f"(got {data[:120]!r})"
            )


def _attack_cache_poison(
    outcome: ScenarioOutcome, gateway, graph, pi: np.ndarray
) -> None:
    """Mutate the registered π in place; the cache must miss, not alias."""
    from repro.service.http import request_json

    addr = gateway.address
    status, headers, body = request_json(
        addr, "POST", "/v1/solve", {"graph": "chaos"}, timeout=60.0
    )
    ref_before = _reference("mis", graph, ranks=pi)
    if status != 200 or not _http_matches(body, ref_before):
        outcome.mismatches.append(
            f"cache_poison_guard: pre-poison solve wrong (status {status})"
        )
        return
    record = gateway._graphs["chaos"]
    # Swap two priorities in the arrays the requests actually key on —
    # both the gateway's copy and the live shared segment, so the
    # zero-copy worker path sees the same (still valid) permutation.
    record.ranks[0], record.ranks[1] = (
        int(record.ranks[1]), int(record.ranks[0]),
    )
    if record.segment is not None:
        poison = SharedArrays.attach(record.segment, writable=True)
        ranks = poison.arrays["ranks"]
        ranks[0], ranks[1] = int(ranks[1]), int(ranks[0])
        poison.close()
    ref_after = _reference("mis", graph, ranks=record.ranks.copy())
    status, headers, body = request_json(
        addr, "POST", "/v1/solve", {"graph": "chaos"}, timeout=60.0
    )
    if status != 200:
        outcome.untyped_failures.append(
            f"cache_poison_guard: post-poison solve failed "
            f"(status {status}: {body})"
        )
        return
    if headers.get("x-repro-cache") != "miss":
        outcome.mismatches.append(
            "cache_poison_guard: mutated content was served from cache "
            f"({headers.get('x-repro-cache')!r}) — digest did not change"
        )
    if not _http_matches(body, ref_after):
        outcome.mismatches.append(
            "cache_poison_guard: post-poison answer does not match the "
            "reference for the mutated π"
        )
    else:
        outcome.checks += 1
        outcome.notes.append(
            "cache_poison_guard: in-place π mutation forced a recomputed "
            "digest miss and a fresh correct solve"
        )


def _run_gateway(scenario: ChaosScenario, seed_offset: int) -> ScenarioOutcome:
    from repro.service.http import GatewayConfig, HTTPGateway, request_json

    outcome = ScenarioOutcome(scenario.name, scenario.requests)
    rng = np.random.default_rng((scenario.seed, seed_offset))
    graphs = _build_graphs(scenario.seed + seed_offset)
    families = list(graphs.values())
    pairs = [np.stack([e.u, e.v], axis=1).tolist() for _, e in families]
    graph0 = graphs["uniform"][0]  # registered, with its own π
    pi = np.random.default_rng(scenario.seed).permutation(
        graph0.num_vertices
    ).astype(np.int64)
    ref0 = _reference("mis", graph0, ranks=pi)

    service = SolverService(scenario.service_config(cache_entries=64))
    gateway = HTTPGateway(
        service,
        GatewayConfig(
            max_connections=8,
            header_timeout_s=0.75,
            body_timeout_s=0.75,
            drain_timeout_s=15.0,
        ),
    )
    gateway.add_graph("chaos", graph0, pi)
    gateway.start_in_thread()
    addr = gateway.address
    stopped = False
    try:
        attack = scenario.network_attack
        if attack == "conn_flood":
            _attack_conn_flood(outcome, gateway)
        elif attack == "slow_client":
            _attack_slow_client(outcome, gateway)
        elif attack == "cache_poison_guard":
            _attack_cache_poison(outcome, gateway, graph0, pi)

        plans: List[Tuple[str, Any, Any]] = []
        for i in range(scenario.requests):
            kind = i % 3
            if kind == 0 and attack != "cache_poison_guard":
                plans.append(("registered", {"graph": "chaos"}, ref0))
            else:
                problem = "mis" if kind != 2 else "matching"
                gi = i % len(families)
                graph, edges = families[gi]
                s = int(rng.integers(2**31))
                body = {
                    "problem": problem,
                    "graph": {"n": graph.num_vertices, "edges": pairs[gi]},
                    "seed": s,
                }
                plans.append((
                    problem, body,
                    _reference(problem, graph if problem == "mis" else edges, s),
                ))
            if scenario.deadline_storm and i % 2 == 1:
                # 2 ms may expire or not; 10 µs no solve can meet, so it
                # must come back a typed 504, never a hung socket.
                plans[-1][1]["timeout_s"] = 0.002 if i % 4 == 1 else 1e-5

        results: List[Optional[Tuple[Any, Any, Any]]] = [None] * len(plans)

        def issue(i: int) -> None:
            try:
                # Every client at once, past the connection bound.  Each
                # says Connection: close because these clients share the
                # process the workers fork from: a worker respawned while
                # a client's socket is open keeps it open after the client
                # closes, so the gateway would hold that keep-alive slot
                # until its header timeout.
                results[i] = request_json(
                    addr, "POST", "/v1/solve", plans[i][1],
                    headers={"Connection": "close"}, timeout=120.0,
                )
            except (ConnectionError, OSError, TimeoutError) as exc:
                results[i] = ("conn", type(exc).__name__, str(exc))

        threads = [
            threading.Thread(target=issue, args=(i,), daemon=True)
            for i in range(len(plans))
        ]
        for t in threads:
            t.start()
        if attack == "gateway_kill_mid_request":
            time.sleep(0.05)
            gateway.stop_in_thread()
            stopped = True
        for t in threads:
            t.join(timeout=180.0)

        for i, entry in enumerate(results):
            if entry is None:
                outcome.untyped_failures.append(f"request {i} never returned")
                continue
            status, headers, body = entry
            if status == "conn":
                # The socket died under a gateway kill — expected there,
                # a finding anywhere else.
                if attack == "gateway_kill_mid_request":
                    outcome.failures["ConnectionClosed"] = (
                        outcome.failures.get("ConnectionClosed", 0) + 1
                    )
                else:
                    outcome.untyped_failures.append(
                        f"request {i}: connection error {headers}: {body}"
                    )
            elif status == 200:
                if _http_matches(body, plans[i][2]):
                    outcome.completed += 1
                else:
                    outcome.mismatches.append(
                        f"request {i} ({plans[i][0]}) diverged from the "
                        "sequential reference over HTTP"
                    )
            elif status == 500:
                outcome.untyped_failures.append(
                    f"request {i}: untyped 500: {body}"
                )
            elif status == 429:
                outcome.shed += 1
            elif isinstance(body, dict) and body.get("error"):
                key = body["error"]
                outcome.failures[key] = outcome.failures.get(key, 0) + 1
            else:
                outcome.untyped_failures.append(
                    f"request {i}: status {status} without a typed error body"
                )

        if not stopped:
            _count_chaos(outcome, service)
            status, _, metrics = request_json(
                addr, "GET", "/v1/metrics", timeout=30.0
            )
            if status == 200:
                untyped = metrics["gateway"]["untyped_errors"]
                if untyped:
                    outcome.untyped_failures.append(
                        f"gateway counted {untyped} untyped error(s)"
                    )
            status, _, health = request_json(
                addr, "GET", "/v1/health", timeout=30.0
            )
            if status not in (200, 207):
                outcome.untyped_failures.append(
                    f"post-storm health is {status}: {health}"
                )
    finally:
        if not stopped:
            gateway.stop_in_thread()

    if scenario.network_attack == "gateway_kill_mid_request":
        # Recovery proof: a fresh gateway must serve the same content.
        fresh = HTTPGateway(
            SolverService(scenario.service_config(cache_entries=8)),
            GatewayConfig(drain_timeout_s=10.0),
        )
        fresh.add_graph("chaos", graph0, pi)
        fresh.start_in_thread()
        try:
            status, _, body = request_json(
                fresh.address, "POST", "/v1/solve", {"graph": "chaos"},
                timeout=60.0,
            )
            if status == 200 and _http_matches(body, ref0):
                outcome.checks += 1
                outcome.notes.append("fresh gateway served after the kill")
            else:
                outcome.untyped_failures.append(
                    f"fresh gateway failed after the kill (status {status})"
                )
        finally:
            fresh.stop_in_thread()
    return outcome
