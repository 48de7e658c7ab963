"""Shared frontier-kernel layer for the linear-work engines.

Sits between the substrate (:mod:`repro.graphs`, :mod:`repro.pram`) and
the engines (:mod:`repro.core`): vectorized bulk-synchronous kernels over
vertex/edge frontiers (:mod:`repro.kernels.frontier`) and memoized
priority partitions of adjacency structure
(:mod:`repro.kernels.partition`).  Every kernel charges its CRCW-PRAM
(work, depth) cost to an optional :class:`~repro.pram.machine.Machine`,
so engines composed from kernels inherit exact ``O(n + m)`` accounting.
"""

from repro.kernels.frontier import (
    advance_cursors,
    decrement_counts,
    frontier_gather,
    range_gather,
    scatter_distinct,
    scatter_min,
    sorted_segment_min,
    stamp_dedup,
)
from repro.kernels.partition import (
    clear_partition_caches,
    grouped_csr,
    partition_cache_stats,
    rank_sorted_incidence,
    split_parents_children,
)

#: Every module that binds frontier-kernel names, for tools that swap a
#: kernel for a wrapper (:class:`~repro.observability.KernelCounters`,
#: :class:`~repro.robustness.faults.ChaosInjector`): the definition site,
#: this package, and each engine that imports kernels by name.  An engine
#: missing here keeps calling the original, unseen by both tools.  (Shard
#: workers bind kernels too, but run in child processes no patch reaches.)
PATCH_MODULES = (
    "repro.kernels.frontier",
    "repro.kernels",
    "repro.core.mis.parallel",
    "repro.core.mis.prefix",
    "repro.core.mis.rootset_vectorized",
    "repro.core.mis.parallel_vectorized",
    "repro.core.matching.prefix",
    "repro.core.matching.rootset_vectorized",
    "repro.core.matching.parallel_vectorized",
)

__all__ = [
    "PATCH_MODULES",
    "frontier_gather",
    "range_gather",
    "stamp_dedup",
    "scatter_distinct",
    "decrement_counts",
    "advance_cursors",
    "sorted_segment_min",
    "scatter_min",
    "grouped_csr",
    "split_parents_children",
    "rank_sorted_incidence",
    "clear_partition_caches",
    "partition_cache_stats",
]
