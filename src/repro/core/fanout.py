"""Shared fan-out plumbing for the ``parallel-vec`` engines.

Both parallel engines follow the same recipe: keep the coordinator loop
of their ``rootset-vec`` twin bit-for-bit, but route each step's large
segmented gather through a :class:`~repro.backends.FrontierExecutor`
(contiguous chunks, disjoint output ranges — concatenation equals the
single-process gather exactly).  This module holds the pieces they
share:

* :func:`resolve_workers` — worker-count precedence: explicit argument >
  ``REPRO_WORKERS`` environment variable > ``min(cpu_count, 4)``;
* :func:`budget_deadline` — convert a :class:`~repro.robustness.Budget`'s
  remaining wall-clock into the absolute ``time.monotonic()`` instant the
  shard workers check (the Budget satellite of PR 6: deadlines propagate
  to every fan-out worker, not just the coordinator);
* :func:`charge_gather` — the exact Machine charge the frontier-gather
  kernels make, applied when the gather ran remotely (PRAM accounting
  describes the *algorithm*, not where it executed, so ``parallel-vec``
  reports the same work/depth as ``rootset-vec``);
* :class:`FanoutStats` — per-run accumulator behind
  ``stats.aux["parallel"]``: worker count, per-worker slot split, busy
  seconds, barrier wait, and how many gathers fanned out versus ran
  locally (small frontiers stay local under ``min_fanout``, where
  process fan-out costs more than it saves).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    EngineError,
)
from repro.pram.machine import Machine, log2_depth
from repro.robustness.budget import Budget

__all__ = [
    "DEFAULT_MIN_FANOUT",
    "FanoutStats",
    "budget_deadline",
    "bundle_digest",
    "charge_gather",
    "reraise_deadline",
    "resolve_workers",
]

#: Environment variable consulted when no explicit worker count is passed.
WORKERS_ENV = "REPRO_WORKERS"

#: Gathers below this many slots run locally: at small frontier sizes the
#: pipe round-trip dominates, and the result is bit-identical either way.
DEFAULT_MIN_FANOUT = 4096


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_WORKERS`` > cpu-bound.

    The default caps at 4: beyond that the step barrier outweighs the
    split for all but the largest frontiers, and explicit sweeps pass the
    count anyway.  Raises :class:`~repro.errors.EngineError` for counts
    below 1.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise EngineError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = min(os.cpu_count() or 1, 4)
    workers = int(workers)
    if workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    return workers


def bundle_digest(*arrays) -> tuple:
    """Content digest identifying a set of derived arrays for bundle reuse.

    ``(size, hash(bytes))`` per array — the same scheme as the partition
    caches.  ``hash`` is per-process salted, which is fine here: executor
    bundle caches are per-process too (keyed by pid), so a digest never
    crosses a process boundary.  Hashing is O(bytes) but runs only at the
    first fan-out-sized gather of a solve, and a hit skips the far more
    expensive segment create + copy + N attaches.
    """
    return tuple((int(a.size), hash(a.tobytes())) for a in arrays)


def budget_deadline(budget: Optional[Budget]) -> Optional[float]:
    """The absolute ``time.monotonic()`` deadline a budget implies.

    ``None`` when there is no budget or no wall-clock limit.  The
    conversion is relative (remaining seconds), so it is correct whatever
    clock the budget itself was built on.  An already-exhausted budget
    raises via :meth:`~repro.robustness.Budget.check` before any dispatch.
    """
    if budget is None:
        return None
    budget.check()
    remaining = budget.remaining_seconds()
    if remaining is None:
        return None
    return time.monotonic() + remaining


def charge_gather(
    machine: Optional[Machine], frontier_size: int, total: int, tag: str
) -> None:
    """Charge exactly what :func:`repro.kernels.frontier_gather` charges.

    Used on the fan-out path, where the gather itself ran in shard
    workers: work is ``|frontier| + slots``, depth one segmented-gather
    step — identical accounting to the local kernel, so the parallel
    engines report the same (work, depth) as their sequential twins.
    """
    if machine is not None:
        machine.charge(
            frontier_size + total,
            log2_depth(max(int(frontier_size), 2)),
            tag=tag,
        )


class FanoutStats:
    """Accumulates the ``stats.aux["parallel"]`` block across a run."""

    __slots__ = (
        "workers", "split", "busy_s", "barrier_wait_s", "fanout_steps",
        "local_steps",
    )

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.split = [0] * workers
        self.busy_s = [0.0] * workers
        self.barrier_wait_s = 0.0
        self.fanout_steps = 0
        self.local_steps = 0

    def record_fanout(self, info: Dict[str, Any]) -> None:
        """Fold one executor barrier's info dict into the run totals."""
        self.fanout_steps += 1
        busy = info["busy_s"]
        slowest = max(busy, default=0.0)
        for i, slots in enumerate(info["split"]):
            self.split[i] += int(slots)
        for i, b in enumerate(busy):
            self.busy_s[i] += b
            self.barrier_wait_s += slowest - b

    def record_local(self) -> None:
        """Count a gather that stayed on the coordinator (small frontier)."""
        self.local_steps += 1

    def to_aux(self) -> Dict[str, Any]:
        """The JSON-safe dict stored under ``stats.aux["parallel"]``."""
        return {
            "workers": self.workers,
            "split": list(self.split),
            "worker_busy_s": [round(b, 6) for b in self.busy_s],
            "barrier_wait_s": round(self.barrier_wait_s, 6),
            "fanout_steps": self.fanout_steps,
            "local_steps": self.local_steps,
        }


def reraise_deadline(exc: DeadlineExceededError, budget: Optional[Budget]):
    """Map an executor deadline failure back onto engine budget semantics."""
    if budget is not None:
        raise BudgetExceededError(
            f"wall-clock budget exceeded during parallel barrier: {exc}"
        ) from exc
    raise exc
