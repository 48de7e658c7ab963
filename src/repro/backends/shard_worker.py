"""Child-process loop executing frontier-kernel shards over shared memory.

A shard worker is one member of a :class:`~repro.backends.executor.
FrontierExecutor` pool.  The coordinator sends one small *task* dict per
barrier (never a second before the reply); every array the task touches
lives in named shared-memory segments (:mod:`repro.backends.sharedmem`),
so the pipe only ever carries names, integer ranges, and op codes — the
zero-copy contract that makes per-step fan-out cheaper than the work it
splits.

Ops:

``"gather"``
    The parallel kernel: read the frontier slice ``[flo, fhi)`` from the
    scratch segment, gather it from the graph bundle with the same kernels
    the single-process path runs (``mode="frontier"``:
    :func:`~repro.kernels.frontier_gather` over whole CSR segments;
    ``mode="range"``: :func:`~repro.kernels.range_gather` from a writable
    cursor array in scratch, Lemma 5.2's lazy deletion), then write the
    gathered slots — and optionally the owner column — into the
    caller-designated scratch ranges.
``"attach"`` / ``"detach"``
    Map/unmap a segment by name ahead of time; ``gather`` also attaches
    lazily, so these exist for prewarming and for releasing segments the
    coordinator is about to unlink.
``"ping"``
    Liveness + warm-up round-trip.
``"arm_kill"``
    Chaos hook: hard-exit (``os._exit``) at the *start* of the n-th
    subsequent gather — mid-barrier, before replying — so tests can prove
    the coordinator recovers and no segment leaks.

Deadline propagation: tasks carry an absolute ``time.monotonic()``
deadline (``CLOCK_MONOTONIC`` is system-wide on Linux, so parent and
child clocks agree); an expired task is refused with ``{"deadline":
True}`` instead of computing.  Every reply carries ``busy_s`` so the
coordinator can report per-worker work split and barrier wait.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.backends.sharedmem import SharedArrays
from repro.kernels.frontier import frontier_gather, range_gather

__all__ = ["SHARD_CHAOS_EXIT_CODE", "shard_worker_main"]

#: Exit code for chaos kills (matches the service's convention so a
#: post-mortem can tell injected deaths from genuine crashes).
SHARD_CHAOS_EXIT_CODE = 86


class _ShardState:
    """Per-process caches: segment attachments and chaos arming."""

    __slots__ = ("segments", "kill_in")

    def __init__(self) -> None:
        self.segments: Dict[str, SharedArrays] = {}
        self.kill_in: int = -1  # <0: disarmed

    def segment(self, name: str, writable: bool = False) -> SharedArrays:
        cached = self.segments.get(name)
        if cached is None:
            cached = SharedArrays.attach(name, writable=writable)
            self.segments[name] = cached
        return cached


def _gather_reply(state: _ShardState, task: Dict[str, Any]) -> Dict[str, Any]:
    deadline = task.get("deadline")
    if deadline is not None and time.monotonic() > deadline:
        return {"ok": False, "deadline": True}
    t0 = time.perf_counter()
    scratch = state.segment(task["scratch"], writable=True)
    bundle = state.segment(task["graph"])
    frontier = scratch.arrays["frontier"][task["flo"]:task["fhi"]]
    offsets = bundle.arrays[task["offsets_key"]]
    data = bundle.arrays[task["data_key"]]
    owner_key = task.get("owner_key")
    if task["mode"] == "range":
        cursors = scratch.arrays[task["starts_key"]]
        owner, values = range_gather(cursors, offsets[1:], data, frontier)
    else:
        owner, values = frontier_gather(
            offsets, data, frontier, need_owner=bool(owner_key)
        )
    lo, count = task["lo"], values.size
    scratch.arrays[task["out_key"]][lo:lo + count] = values
    if owner_key:
        scratch.arrays[owner_key][lo:lo + count] = owner
    return {"ok": True, "count": count, "busy_s": time.perf_counter() - t0}


def execute_shard_task(state: _ShardState, task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one op against the per-process *state*; exceptions propagate."""
    op = task["op"]
    if op == "gather":
        if state.kill_in >= 0:
            state.kill_in -= 1
            if state.kill_in < 0:
                os._exit(SHARD_CHAOS_EXIT_CODE)
        return _gather_reply(state, task)
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "attach":
        state.segment(task["name"], writable=bool(task.get("writable")))
        return {"ok": True}
    if op == "detach":
        seg = state.segments.pop(task["name"], None)
        if seg is not None:
            seg.close()
        return {"ok": True}
    if op == "arm_kill":
        state.kill_in = max(int(task.get("after", 1)) - 1, 0)
        return {"ok": True}
    return {"ok": False, "error_type": "ValueError",
            "error": f"unknown shard op {op!r}"}


def shard_worker_main(conn, worker_id: int) -> None:
    """Entry point of a shard worker process: serve tasks until shutdown.

    Exits on a ``None`` task (graceful shutdown) or a broken pipe (the
    coordinator died).  Every exception escaping a task is serialized as
    ``{"ok": False, "error_type": ..., "error": ...}`` — the worker is an
    isolation boundary, exactly like the service workers.
    """
    state = _ShardState()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        try:
            reply = execute_shard_task(state, task)
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 — isolation boundary
            reply = {
                "ok": False,
                "error_type": type(exc).__name__,
                "error": str(exc),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    for seg in state.segments.values():
        seg.close()
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
