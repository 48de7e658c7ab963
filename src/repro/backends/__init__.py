"""Performance tier: shared-memory graphs and process fan-out.

This subpackage is what turns the simulated parallelism of the engine
layer into *real* multicore execution, three coordinated pieces:

========================  ==================================================
:mod:`~repro.backends.sharedmem`  zero-copy graph bundles in
                                  ``multiprocessing.shared_memory``
                                  (:class:`SharedArrays`, :class:`SharedCSR`)
:mod:`~repro.backends.ledger`     crash-safe record of every segment, so
                                  the reaper can unlink orphans
:mod:`~repro.backends.executor`   persistent shard-worker pool running the
                                  :mod:`repro.kernels` frontier gathers over
                                  disjoint slices of a step's frontier
                                  (:class:`FrontierExecutor`)
========================  ==================================================

Layering: ``backends`` sits beside :mod:`repro.kernels` — it may import
the substrate (``graphs``/``pram``/``kernels``) but never the engine,
service, or bench layers.  The ``parallel-vec`` engines in
:mod:`repro.core` and the :class:`~repro.service.SolverService` build on
top of it.  See ``docs/performance.md`` for the lifecycle rules.
"""

from repro.backends.ledger import (
    LedgerEntry,
    SegmentLedger,
    default_ledger,
    ledger_enabled,
)
from repro.backends.sharedmem import SharedArrays, SharedCSR
from repro.backends.executor import (
    FrontierExecutor,
    executor_status,
    get_executor,
    shutdown_executors,
)

__all__ = [
    "LedgerEntry",
    "SegmentLedger",
    "default_ledger",
    "ledger_enabled",
    "SharedArrays",
    "SharedCSR",
    "FrontierExecutor",
    "executor_status",
    "get_executor",
    "shutdown_executors",
]
