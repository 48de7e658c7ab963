"""Unified health reporting across pool workers and segments.

:func:`build_health_report` snapshots one :class:`HealthReport` from a
running :class:`~repro.service.SolverService`: per-worker liveness and
progress (a busy worker is *stalled* once its job has been in flight
longer than ``stall_after_s``), restart/crash counters, circuit-breaker
states, queue depth against ``max_queue``, and the shared-memory segment
inventory cross-checked against owner liveness.
``SolverService.health()`` and the ``repro health`` subcommand are thin
wrappers over it.

Status rolls up worst-first:

* ``"critical"`` — the service is not running or has zero live workers;
* ``"degraded"`` — dead/stalled workers, a non-closed breaker, a queue
  at its bound, or orphaned segments in the inventory;
* ``"ok"`` — everything above is clean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.backends.ledger import SegmentLedger
from repro.resilience.reaper import segment_inventory

__all__ = [
    "HealthReport",
    "SegmentHealth",
    "WorkerHealth",
    "build_health_report",
]


@dataclass(frozen=True)
class WorkerHealth:
    """Liveness + progress of one pool worker at snapshot time."""

    worker_id: int
    pid: Optional[int]
    alive: bool
    state: str                  #: ``"idle"`` or ``"busy"``
    job_age_s: Optional[float]  #: seconds the current job has been in flight
    jobs_done: int
    stalled: bool               #: busy longer than the stall threshold

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": self.alive,
            "state": self.state,
            "job_age_s": (
                None if self.job_age_s is None else round(self.job_age_s, 3)
            ),
            "jobs_done": self.jobs_done,
            "stalled": self.stalled,
        }


@dataclass(frozen=True)
class SegmentHealth:
    """One ledgered segment in the inventory section of the report."""

    name: str
    role: str
    pid: int
    owner_alive: bool
    exists: bool
    orphaned: bool              #: exists but its owner is dead
    nbytes: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "role": self.role,
            "pid": self.pid,
            "owner_alive": self.owner_alive,
            "exists": self.exists,
            "orphaned": self.orphaned,
            "nbytes": self.nbytes,
        }


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time, cross-layer health snapshot (JSON-ready)."""

    status: str                 #: ``"ok"`` / ``"degraded"`` / ``"critical"``
    reasons: List[str]          #: why the status is not ``"ok"``
    workers: List[WorkerHealth]
    workers_alive: int
    workers_configured: int
    worker_restarts: int
    worker_crashes: int
    queue_depth: int
    delayed: int
    in_flight: int
    max_queue: int
    breaker_states: Dict[str, str]
    segments: List[SegmentHealth]
    registered_graphs: int              #: service-registered SharedCSR count
    latency_p95: float
    #: Durability counters: session lifecycle (live sessions, mutations
    #: applied, idempotent replays, version conflicts) plus quarantined
    #: snapshot, log and ledger files and swept temp debris.
    durability: Dict[str, Any] = field(default_factory=dict)
    generated_at: float = field(default_factory=time.time)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "workers": [w.as_dict() for w in self.workers],
            "workers_alive": self.workers_alive,
            "workers_configured": self.workers_configured,
            "worker_restarts": self.worker_restarts,
            "worker_crashes": self.worker_crashes,
            "queue_depth": self.queue_depth,
            "delayed": self.delayed,
            "in_flight": self.in_flight,
            "max_queue": self.max_queue,
            "breaker_states": dict(self.breaker_states),
            "segments": [s.as_dict() for s in self.segments],
            "registered_graphs": self.registered_graphs,
            "latency_p95": self.latency_p95,
            "durability": dict(self.durability),
            "generated_at": self.generated_at,
        }

    def format(self) -> str:
        """Human-readable multi-line report (CLI ``repro health``)."""
        lines = [f"status:          {self.status}"]
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        lines.append(
            f"workers:         {self.workers_alive}/{self.workers_configured} "
            f"alive ({self.worker_restarts} restarts, "
            f"{self.worker_crashes} crashes)"
        )
        for w in self.workers:
            age = "" if w.job_age_s is None else f", job {w.job_age_s:.2f}s"
            flags = " STALLED" if w.stalled else ("" if w.alive else " DEAD")
            lines.append(
                f"  w{w.worker_id} pid={w.pid} {w.state}"
                f" done={w.jobs_done}{age}{flags}"
            )
        lines.append(
            f"queue:           {self.queue_depth} queued, "
            f"{self.delayed} delayed, {self.in_flight} in flight "
            f"/ max {self.max_queue}"
        )
        open_breakers = {
            k: v for k, v in self.breaker_states.items() if v != "closed"
        }
        lines.append(
            "breakers:        "
            + (", ".join(f"{k}={v}" for k, v in sorted(open_breakers.items()))
               if open_breakers else "all closed")
        )
        orphans = [s for s in self.segments if s.orphaned]
        lines.append(
            f"segments:        {len(self.segments)} ledgered "
            f"({self.registered_graphs} registered graphs, "
            f"{len(orphans)} orphaned)"
        )
        for s in orphans:
            lines.append(f"  ORPHAN {s.name} (owner pid {s.pid} dead)")
        if self.durability:
            d = self.durability
            lines.append(
                f"sessions:        {d.get('live_sessions', 0)} live, "
                f"{d.get('mutations_applied', 0)} mutations applied, "
                f"{d.get('idempotent_replays', 0)} idempotent replays, "
                f"{d.get('version_conflicts', 0)} version conflicts"
            )
            quarantined = (
                d.get("quarantined_snapshots", 0)
                + d.get("quarantined_ledger_records", 0)
            )
            lines.append(
                f"durability:      {quarantined} quarantined file(s), "
                f"{d.get('snapshot_tmp_swept', 0)} tmp file(s) swept"
            )
        if self.latency_p95:
            lines.append(f"latency p95:     {self.latency_p95 * 1e3:.1f} ms")
        return "\n".join(lines)


def _durability_counters(service, ledger: Optional[SegmentLedger]) -> Dict[str, Any]:
    """Session + quarantine counters for the report's durability block.

    Reads ``service._session_manager`` directly rather than the lazy
    ``sessions`` property so a pure health probe never *creates* the
    manager as a side effect.
    """
    out: Dict[str, Any] = {
        "live_sessions": 0,
        "mutations_applied": 0,
        "idempotent_replays": 0,
        "version_conflicts": 0,
        "quarantined_snapshots": 0,
        "quarantined_ledger_records": 0,
        "snapshot_tmp_swept": 0,
    }
    manager = getattr(service, "_session_manager", None)
    if manager is not None:
        out.update(manager.counters())
        store = getattr(manager, "_store", None)
        if store is not None:
            out["quarantined_snapshots"] = len(store.corrupt_files())
            out["snapshot_tmp_swept"] = store.tmp_swept
    else:
        # No manager yet — still scan the configured directory so
        # corruption left by a previous process is visible immediately.
        session_dir = getattr(service.config, "session_dir", None)
        if session_dir is not None:
            import os

            try:
                out["quarantined_snapshots"] = sum(
                    1 for name in os.listdir(session_dir)
                    if name.endswith(".corrupt")
                )
            except OSError:
                pass
    scan_ledger = ledger if ledger is not None else SegmentLedger()
    out["quarantined_ledger_records"] = len(scan_ledger.corrupt_files())
    return out


def _segment_health(ledger: Optional[SegmentLedger]) -> List[SegmentHealth]:
    return [
        SegmentHealth(
            name=rec.name,
            role=rec.role,
            pid=rec.pid,
            owner_alive=rec.owner_alive,
            exists=rec.exists,
            orphaned=rec.exists and not rec.owner_alive,
            nbytes=rec.nbytes,
        )
        for rec in segment_inventory(ledger)
    ]


def build_health_report(
    service,
    *,
    stall_after_s: float = 30.0,
    ledger: Optional[SegmentLedger] = None,
    include_segments: bool = True,
) -> "HealthReport":
    """Snapshot a :class:`HealthReport` from a :class:`SolverService`.

    Reads the service's scheduler state under its lock (cheap: handles
    and counters only), then performs the segment scan outside it.  Safe
    to call on a stopped service — that simply reports ``"critical"``.
    """
    now = time.monotonic()
    reasons: List[str] = []
    with service._lock:
        started = service._started
        workers = []
        for w in service._pool.workers():
            alive = w.alive()
            busy = w.busy
            age = None if w.job_started is None else now - w.job_started
            stalled = bool(busy and alive and age is not None
                           and age > stall_after_s)
            workers.append(WorkerHealth(
                worker_id=w.worker_id,
                pid=w.process.pid,
                alive=alive,
                state="busy" if busy else "idle",
                job_age_s=age if busy else None,
                jobs_done=w.jobs_done,
                stalled=stalled,
            ))
        stats = service._stats
        queue_depth = len(service._queue)
        delayed = len(service._delayed)
        in_flight = len(service._pool.busy())
        breaker_states = {k: b.state for k, b in service._breakers.items()}
        registered = len(service._shared)
        worker_restarts = stats.worker_restarts
        worker_crashes = stats.worker_crashes
        latency_p95 = service.stats().latency_p95
    alive_count = sum(1 for w in workers if w.alive)
    segments = _segment_health(ledger) if include_segments else []
    orphans = [s for s in segments if s.orphaned]
    durability = _durability_counters(service, ledger)

    if not started:
        reasons.append("service is not running")
    if started and alive_count == 0:
        reasons.append("no live workers")
    status = "critical" if reasons else "ok"
    if status == "ok":
        if alive_count < service.config.workers:
            reasons.append(
                f"only {alive_count}/{service.config.workers} workers alive"
            )
        stalled_ids = [w.worker_id for w in workers if w.stalled]
        if stalled_ids:
            reasons.append(
                f"worker(s) {stalled_ids} stalled past {stall_after_s:.0f}s"
            )
        open_breakers = sorted(
            k for k, v in breaker_states.items() if v != "closed"
        )
        if open_breakers:
            reasons.append(f"breaker(s) not closed: {', '.join(open_breakers)}")
        bound = service.config.max_queue
        if queue_depth + delayed >= bound:
            reasons.append(
                f"admission queue at its bound ({queue_depth + delayed}/{bound})"
            )
        if orphans:
            reasons.append(
                f"{len(orphans)} orphaned segment(s) awaiting reap"
            )
        quarantined = (
            durability["quarantined_snapshots"]
            + durability["quarantined_ledger_records"]
        )
        if quarantined:
            reasons.append(
                f"{quarantined} quarantined durability file(s) "
                f"(inspect with `repro recover`)"
            )
        status = "degraded" if reasons else "ok"

    return HealthReport(
        status=status,
        reasons=reasons,
        workers=workers,
        workers_alive=alive_count,
        workers_configured=service.config.workers,
        worker_restarts=worker_restarts,
        worker_crashes=worker_crashes,
        queue_depth=queue_depth,
        delayed=delayed,
        in_flight=in_flight,
        max_queue=service.config.max_queue,
        breaker_states=breaker_states,
        segments=segments,
        registered_graphs=registered,
        latency_p95=latency_p95,
        durability=durability,
    )
