"""Dynamic graphs: incremental greedy MIS/MM, streaming, and session state.

The paper's priority-DAG structure makes greedy maintenance *local*: an
edge mutation only perturbs the DAG region reachable from its endpoints
toward higher ranks.  This package exploits that three ways:

* :mod:`repro.dynamic.incremental` —
  :class:`~repro.dynamic.incremental.IncrementalMIS` /
  :class:`~repro.dynamic.incremental.IncrementalMatching` maintainers
  that re-peel only the affected region per mutation batch,
  bit-identical to from-scratch sequential greedy on the mutated graph,
  whose state travels as numpy arrays
  (:func:`~repro.dynamic.incremental.result_from_state` answers from it
  without a maintainer).  A batch costs O(batch + affected): it is
  committed with its flips onto a
  :class:`~repro.dynamic.incremental.StateOverlay` over the sorted edge
  arrays, which is folded only when they are read or when it would pass
  a fixed share of m.
* :mod:`repro.dynamic.streaming` — batched edge-arrival ingestion over
  either maintainer.
* :mod:`repro.dynamic.jobs` + :mod:`repro.dynamic.store` — the worker
  entry point that applies a batch to a cached maintainer and replies
  with its flips (the parent's own overlay follows them over the
  committed arrays), and the atomic, checksummed
  snapshot store (arrays as raw bytes) with its per-session mutation
  log, which let :class:`repro.service.SolverService` serve maintainers
  as long-lived crash-safe sessions.

Layering: sits above :mod:`repro.core`/:mod:`repro.graphs` and below
:mod:`repro.service` (which imports it lazily in workers).
"""

from repro.dynamic.incremental import (
    IncrementalMatching,
    IncrementalMIS,
    edge_priority,
    result_from_state,
)
from repro.dynamic.streaming import stream_edges
from repro.dynamic.store import SnapshotStore
from repro.dynamic import incremental, jobs, store, streaming

__all__ = [
    "IncrementalMIS",
    "IncrementalMatching",
    "edge_priority",
    "result_from_state",
    "stream_edges",
    "SnapshotStore",
    "incremental",
    "jobs",
    "store",
    "streaming",
]
