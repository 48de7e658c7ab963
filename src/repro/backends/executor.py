"""Persistent shard-worker pool executing frontier kernels in parallel.

A :class:`FrontierExecutor` owns N long-lived worker processes (forked
once, reused across runs) plus the shared-memory segments they operate
on: a writable *scratch* segment (frontier staging, gather outputs, the
matching engine's cursor array) and memoized read-only *graph bundles*
(the partition arrays an engine derives from ``(graph, π)``).  A step's
frontier is split into contiguous chunks of approximately equal slot
mass (:func:`balanced_ranges`); each worker gathers its chunk into a
disjoint output range; the concatenation is, by construction, exactly
the array the single-process kernel would have produced — which is what
makes the ``parallel-vec`` engines bit-identical to ``rootset-vec``.

Everything crossing a pipe is a small op dict; every array crosses via
shared memory.  Deadlines propagate as absolute ``time.monotonic()``
instants checked worker-side before computing and coordinator-side while
waiting (a blown barrier kills and respawns the pool rather than leaving
it desynchronized).  All segments are owned by the coordinator and
unlinked on :meth:`shutdown` / interpreter exit, so a shard worker dying
mid-step — including injected chaos kills — can never leak a segment.

Use :func:`get_executor` rather than constructing directly: executors
are cached per ``(pid, workers)`` so repeated solves reuse warm workers,
and the pid key plus a creation-pid guard keep fork-inherited handles
from ever touching another process's pool.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
from collections import OrderedDict
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.shard_worker import shard_worker_main
from repro.backends.sharedmem import SharedArrays
from repro.errors import DeadlineExceededError, EngineError, WorkerCrashError

__all__ = [
    "FrontierExecutor",
    "balanced_ranges",
    "executor_status",
    "get_executor",
    "shutdown_executors",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: Graph bundles kept alive per executor before the oldest is unlinked.
_BUNDLE_CAP = 8


def balanced_ranges(
    degrees: np.ndarray, parts: int
) -> List[Tuple[int, int, int, int]]:
    """Split a frontier into ≤ *parts* contiguous chunks of ~equal slot mass.

    Returns ``(flo, fhi, slot_lo, slot_hi)`` tuples: chunk ``k`` covers
    frontier positions ``[flo, fhi)`` whose gathered slots occupy output
    positions ``[slot_lo, slot_hi)``.  Chunks are contiguous and ordered,
    so concatenating per-chunk gathers reproduces the single-process
    gather exactly; balancing is by slot count (degree mass), not vertex
    count, because gather cost is per slot.
    """
    k = int(degrees.size)
    if k == 0:
        return []
    cum = np.cumsum(degrees)
    total = int(cum[-1])

    def mass(b: int) -> int:
        return int(cum[b - 1]) if b > 0 else 0

    if parts <= 1 or k == 1:
        return [(0, k, 0, total)]
    bounds = [0]
    for p in range(1, parts):
        target = (p * total) // parts
        b = min(int(np.searchsorted(cum, target, side="left")) + 1, k)
        bounds.append(max(b, bounds[-1]))
    bounds.append(k)
    ranges = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            ranges.append((lo, hi, mass(lo), mass(hi)))
    return ranges


class FrontierExecutor:
    """A pool of persistent shard workers plus their shared segments.

    Parameters
    ----------
    workers:
        Number of shard processes (≥ 1).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (workers inherit the warm interpreter) and the platform
        default elsewhere.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise EngineError(f"executor needs at least 1 worker, got {workers}")
        if start_method is None and "fork" in mp.get_all_start_methods():
            start_method = "fork"
        self._ctx = mp.get_context(start_method)
        self.workers = int(workers)
        self._pid = os.getpid()
        self._closed = False
        self._scratch: Optional[SharedArrays] = None
        self._scratch_caps: Dict[str, int] = {}
        self._scratch_views: Dict[str, np.ndarray] = {}
        self._owned: "OrderedDict[str, SharedArrays]" = OrderedDict()
        self._bundle_keys: Dict[str, Tuple[int, ...]] = {}
        self._shards: List[List[Any]] = [self._spawn(i) for i in range(self.workers)]

    # -- pool management -----------------------------------------------------

    def _spawn(self, index: int) -> List[Any]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, index),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        child_conn.close()
        return [proc, parent_conn]

    def _respawn_all(self) -> None:
        for shard in self._shards:
            proc, conn = shard
            try:
                conn.close()
            except OSError:
                pass
            proc.terminate()
            proc.join(timeout=1.0)
        self._shards = [self._spawn(i) for i in range(self.workers)]

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has run."""
        return self._closed

    # -- barriers ------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Dict[str, Any]],
        *,
        deadline: Optional[float] = None,
        grace: float = 5.0,
    ) -> List[Dict[str, Any]]:
        """Dispatch ``tasks[i]`` to worker ``i`` and barrier on all replies.

        *deadline* is an absolute ``time.monotonic()`` instant: expired
        before dispatch → :class:`~repro.errors.DeadlineExceededError`
        without sending; blown past *grace* while waiting → the pool is
        killed and respawned (no desynchronized barriers) and the same
        error raised.  A worker death mid-barrier likewise respawns the
        whole pool and raises :class:`~repro.errors.WorkerCrashError`.
        """
        if self._closed:
            raise EngineError("executor has been shut down")
        if len(tasks) > self.workers:
            raise EngineError(
                f"{len(tasks)} tasks for {self.workers} workers; chunk first"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceededError(
                "deadline expired before shard dispatch"
            )
        active: Dict[Any, int] = {}
        for i, task in enumerate(tasks):
            conn = self._shards[i][1]
            conn.send(task)
            active[conn] = i
        replies: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        crashed: List[int] = []
        hard_stop = None if deadline is None else deadline + grace
        while active:
            timeout = 1.0
            if hard_stop is not None:
                timeout = min(timeout, max(hard_stop - time.monotonic(), 0.0))
            ready = mp_connection.wait(list(active), timeout=timeout)
            if not ready:
                if hard_stop is not None and time.monotonic() >= hard_stop:
                    self._respawn_all()
                    raise DeadlineExceededError(
                        f"shard barrier overran its deadline by more than "
                        f"{grace:.1f}s grace; pool respawned"
                    )
                continue
            for conn in ready:
                i = active.pop(conn)
                try:
                    replies[i] = conn.recv()
                except (EOFError, OSError):
                    crashed.append(i)
        if crashed:
            self._respawn_all()
            raise WorkerCrashError(
                f"shard worker(s) {sorted(crashed)} died mid-barrier; "
                "pool respawned, shared segments retained by the coordinator"
            )
        for i, reply in enumerate(replies):
            if reply.get("deadline"):
                raise DeadlineExceededError(
                    f"shard worker {i} refused an already-expired task"
                )
            if not reply.get("ok"):
                raise WorkerCrashError(
                    f"shard worker {i} failed: "
                    f"{reply.get('error_type')}: {reply.get('error')}"
                )
        return replies  # type: ignore[return-value]

    def broadcast(self, task: Dict[str, Any], **kwargs) -> List[Dict[str, Any]]:
        """Send one op (copied) to every worker and barrier on the replies."""
        return self.run([dict(task) for _ in range(self.workers)], **kwargs)

    def arm_kill(self, index: int, after: int = 1) -> None:
        """Chaos hook: make worker *index* hard-exit at its n-th next gather."""
        conn = self._shards[index][1]
        conn.send({"op": "arm_kill", "after": int(after)})
        conn.recv()

    def status(self) -> Dict[str, Any]:
        """Liveness snapshot of this pool (consumed by the health layer)."""
        alive = [bool(proc.is_alive()) for proc, _conn in self._shards]
        return {
            "workers": self.workers,
            "alive": sum(alive),
            "pids": [proc.pid for proc, _conn in self._shards],
            "segments": (
                ([self._scratch.name] if self._scratch is not None else [])
                + list(self._owned)
            ),
            "closed": self._closed,
        }

    # -- shared segments -----------------------------------------------------

    def reserve(self, sizes: Dict[str, int]) -> Dict[str, np.ndarray]:
        """Ensure the scratch segment holds an int64 array per key/size.

        Returns writable coordinator views.  Growing any capacity
        reallocates the whole segment and **discards prior contents** —
        engines reserve once per run, before initializing cursor state.
        """
        grow = self._scratch is None or any(
            self._scratch_caps.get(k, -1) < v for k, v in sizes.items()
        )
        if grow:
            caps = dict(self._scratch_caps)
            for k, v in sizes.items():
                caps[k] = max(caps.get(k, 0), int(v))
            old = self._scratch
            self._scratch = SharedArrays.create(
                {k: np.zeros(v, dtype=np.int64) for k, v in caps.items()},
                {"role": "scratch"},
                writable=True,
            )
            self._scratch_caps = caps
            self._scratch_views = dict(self._scratch.arrays)
            if old is not None:
                self._detach_everywhere(old.name)
                old.close()
                old.unlink()
        return {k: self._scratch_views[k] for k in sizes}

    @property
    def scratch_name(self) -> str:
        """Segment name of the current scratch bundle."""
        if self._scratch is None:
            raise EngineError("no scratch reserved yet")
        return self._scratch.name

    def share_bundle(
        self,
        cache_key: str,
        digest: Tuple[int, ...],
        build: Callable[[], Dict[str, np.ndarray]],
    ) -> str:
        """Memoized read-only graph bundle; returns its segment name.

        ``(cache_key, digest)`` identifies the derived arrays (e.g. a
        graph's id plus the π content digest); *build* runs only on miss.
        At most :data:`_BUNDLE_CAP` bundles are kept — the oldest is
        detached everywhere and unlinked on overflow.
        """
        for name, key in self._bundle_keys.items():
            if key == (cache_key, digest):
                self._owned.move_to_end(name)
                return name
        bundle = SharedArrays.create(build(), {"role": "engine-bundle"})
        self._owned[bundle.name] = bundle
        self._bundle_keys[bundle.name] = (cache_key, digest)
        while len(self._owned) > _BUNDLE_CAP:
            old_name, old = self._owned.popitem(last=False)
            self._bundle_keys.pop(old_name, None)
            self._detach_everywhere(old_name)
            old.close()
            old.unlink()
        return bundle.name

    def _detach_everywhere(self, name: str) -> None:
        try:
            self.broadcast({"op": "detach", "name": name})
        except (WorkerCrashError, DeadlineExceededError, EngineError):
            pass  # cleanup path; a dead pool cannot hold attachments anyway

    # -- the parallel kernel -------------------------------------------------

    def gather(
        self,
        *,
        graph: str,
        offsets_key: str,
        data_key: str,
        frontier: np.ndarray,
        degrees: np.ndarray,
        mode: str = "frontier",
        starts_key: Optional[str] = None,
        need_owner: bool = False,
        deadline: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Parallel segmented gather over a frontier, split across workers.

        Writes *frontier* into scratch, fans one chunk per worker, and
        returns ``(owner, values, info)`` where the arrays are views into
        scratch **valid only until the next executor call** (consume or
        copy immediately) and *info* records the per-worker slot split,
        busy seconds, and barrier wall time.  Requires a prior
        :meth:`reserve` with ``frontier``/``out_v`` (and ``out_o`` when
        ``need_owner``) capacities.
        """
        total = int(degrees.sum()) if degrees.size else 0
        if frontier.size == 0 or total == 0:
            # Degenerate frontiers skip the barrier entirely; degree-0
            # vertices gather nothing, matching the sequential kernel.
            return _EMPTY, _EMPTY, {"wall_s": 0.0, "split": [], "busy_s": []}
        views = self._scratch_views
        views["frontier"][: frontier.size] = frontier
        ranges = balanced_ranges(degrees, self.workers)
        tasks = [
            {
                "op": "gather",
                "graph": graph,
                "offsets_key": offsets_key,
                "data_key": data_key,
                "mode": mode,
                "starts_key": starts_key,
                "scratch": self.scratch_name,
                "flo": flo,
                "fhi": fhi,
                "out_key": "out_v",
                "owner_key": "out_o" if need_owner else None,
                "lo": slot_lo,
                "deadline": deadline,
            }
            for flo, fhi, slot_lo, _slot_hi in ranges
        ]
        t0 = time.perf_counter()
        replies = self.run(tasks, deadline=deadline)
        wall = time.perf_counter() - t0
        for (flo, fhi, slot_lo, slot_hi), reply in zip(ranges, replies):
            if reply["count"] != slot_hi - slot_lo:
                raise EngineError(
                    f"shard gather disagreed on slot count for chunk "
                    f"[{flo},{fhi}): {reply['count']} != {slot_hi - slot_lo}"
                )
        info = {
            "wall_s": wall,
            "split": [hi - lo for _, _, lo, hi in ranges],
            "busy_s": [r["busy_s"] for r in replies],
        }
        owner = views["out_o"][:total] if need_owner else _EMPTY
        return owner, views["out_v"][:total], info

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers and unlink every owned segment (idempotent).

        Safe to call from a fork-inherited copy: a process that did not
        create the pool only closes its duplicated pipe ends and never
        signals the workers or unlinks the segments.
        """
        if self._closed:
            return
        self._closed = True
        foreign = os.getpid() != self._pid
        for shard in self._shards:
            proc, conn = shard
            if not foreign:
                try:
                    conn.send(None)
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
            if not foreign:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
        self._shards = []
        if not foreign:
            if self._scratch is not None:
                self._scratch.close()
                self._scratch.unlink()
            for bundle in self._owned.values():
                bundle.close()
                bundle.unlink()
        self._scratch = None
        self._scratch_views = {}
        self._scratch_caps = {}
        self._owned = OrderedDict()
        self._bundle_keys = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"FrontierExecutor(workers={self.workers}, {state})"


_EXECUTORS: Dict[Tuple[int, int], FrontierExecutor] = {}


def get_executor(workers: int) -> FrontierExecutor:
    """The cached per-process executor for *workers* shard processes.

    Keyed by ``(pid, workers)`` so repeated solves reuse warm workers and
    fork-inherited cache entries are never returned in a child process.
    """
    key = (os.getpid(), int(workers))
    ex = _EXECUTORS.get(key)
    if ex is None or ex.closed:
        ex = FrontierExecutor(workers)
        _EXECUTORS[key] = ex
    return ex


def executor_status() -> List[Dict[str, Any]]:
    """Status of every live executor owned by *this* process.

    Fork-inherited cache entries (keyed by another pid) are excluded —
    their pools belong to the parent and are not this process's to probe.
    """
    pid = os.getpid()
    return [
        ex.status()
        for (owner_pid, _workers), ex in _EXECUTORS.items()
        if owner_pid == pid and not ex.closed
    ]


def shutdown_executors() -> None:
    """Shut down every cached executor (registered as an atexit hook)."""
    for key in list(_EXECUTORS):
        _EXECUTORS.pop(key).shutdown()


atexit.register(shutdown_executors)
