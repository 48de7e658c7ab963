"""Worker-pool process management: spawn, health, kill, respawn.

:class:`WorkerPool` owns the child processes and their pipes; the
scheduling brain lives in :mod:`repro.service.service`.  Each worker is
one :mod:`multiprocessing` ``Process`` running
:func:`repro.service.worker.worker_main` over its own duplex pipe, so a
hard kill of one worker cannot disturb a sibling: the only shared state
is the parent's bookkeeping.

The default start method is ``"fork"`` (fast startup, the child inherits
the already-imported numpy/repro modules); ``"spawn"`` and
``"forkserver"`` are accepted for callers that need a pristine
interpreter per worker.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional

from repro.service.worker import worker_main

__all__ = ["WorkerHandle", "WorkerPool"]

_START_METHODS = ("fork", "spawn", "forkserver")


class WorkerHandle:
    """One live worker: its process, parent-side pipe end, and current job.

    ``job`` is whatever opaque object the scheduler parked on the worker
    (the service uses its ticket records); ``None`` means idle.
    ``job_started`` is the monotonic time the current job was sent, used
    for deadline and hang enforcement.
    """

    __slots__ = ("worker_id", "process", "conn", "job", "job_started", "jobs_done")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.job = None
        self.job_started: Optional[float] = None
        self.jobs_done = 0

    @property
    def busy(self) -> bool:
        """Whether a job is in flight on this worker."""
        return self.job is not None

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self.process.is_alive()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"WorkerHandle(id={self.worker_id}, {state}, done={self.jobs_done})"


class WorkerPool:
    """A fixed-size pool of subprocess workers with respawn-on-death.

    The pool never reuses a dead worker's pipe: a crashed or killed
    worker is discarded wholesale and a fresh process takes its slot.
    All methods are intended to be called from a single scheduler thread
    (plus :meth:`start`/:meth:`shutdown` from the owning service).
    """

    def __init__(
        self,
        size: int,
        *,
        start_method: str = "fork",
        sys_path: tuple = (),
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, got {start_method!r}"
            )
        self.size = size
        self.sys_path = tuple(str(p) for p in sys_path)
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: Dict[int, WorkerHandle] = {}
        self._next_id = 0
        self.spawn_count = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the initial complement of workers."""
        while len(self._workers) < self.size:
            self.spawn()
        return self

    def spawn(self) -> WorkerHandle:
        """Start one fresh worker process and register its handle."""
        worker_id = self._next_id
        self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # NOT daemonic: a daemonic process may not have children, and a
        # "call" job may start its own.  Orphan safety does not depend on
        # the flag — a worker whose parent dies sees EOF on its pipe and
        # exits.
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.sys_path),
            name=f"repro-solver-worker-{worker_id}",
            daemon=False,
        )
        process.start()
        # Close the parent's copy of the child end so a dead worker shows
        # up as EOF on parent_conn instead of hanging forever.
        child_conn.close()
        handle = WorkerHandle(worker_id, process, parent_conn)
        self._workers[worker_id] = handle
        self.spawn_count += 1
        return handle

    def discard(self, handle: WorkerHandle, *, kill: bool = True) -> None:
        """Remove a worker from the pool, killing the process if asked.

        Used both for deliberate kills (deadline enforcement) and for
        reaping a worker that died on its own.  The pipe is closed so no
        stale fd lingers in the scheduler's wait set.
        """
        self._workers.pop(handle.worker_id, None)
        handle.job = None
        if kill and handle.process.is_alive():
            handle.process.kill()
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=1.0)

    def replace(self, handle: WorkerHandle, *, kill: bool = True) -> WorkerHandle:
        """Discard *handle* and spawn its replacement."""
        self.discard(handle, kill=kill)
        return self.spawn()

    def shutdown(self, timeout: float = 2.0) -> None:
        """Gracefully stop every worker; escalate to kill on stragglers."""
        deadline = time.monotonic() + timeout
        for handle in list(self._workers.values()):
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in list(self._workers.values()):
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            self.discard(handle, kill=True)
        self._workers.clear()

    # -- views -------------------------------------------------------------

    def workers(self) -> List[WorkerHandle]:
        """All registered handles (alive or not yet reaped)."""
        return list(self._workers.values())

    def idle(self) -> List[WorkerHandle]:
        """Workers with no job in flight, in id order."""
        return [w for w in self._workers.values() if not w.busy]

    def busy(self) -> List[WorkerHandle]:
        """Workers with a job in flight, in id order."""
        return [w for w in self._workers.values() if w.busy]

    def alive_count(self) -> int:
        """Number of registered workers whose process is running."""
        return sum(1 for w in self._workers.values() if w.alive())

    def __len__(self) -> int:
        return len(self._workers)
