"""Priority partitions of adjacency structure, shared and memoized.

Both linear-work engine families pre-process the input against the
priority array π before their first step:

* MIS (Lemma 4.1): each vertex's neighbor list is split into **parents**
  (earlier in π) and **children** (later) — :func:`split_parents_children`;
* MM (Lemma 5.3): each vertex's incident edges are ordered **by edge
  priority** with the linear-work bucket sort — :func:`rank_sorted_incidence`.

Because ``CSRGraph.arcs()`` yields the source column in CSR order, masking
it preserves sortedness, so both parent and child CSR structures fall out
of one counting pass (:func:`grouped_csr`) with no sorting at all.

Sweeps (prefix-size, thread-count, engine ablations) rerun engines many
times on the same ``(graph, π)`` pair; the partitions depend only on that
pair, so both builders memoize their results in small per-graph LRU caches
keyed on graph identity (weak, so caches die with their graph) plus a
content digest of π (so in-place rank mutation can never serve a stale
split).  Machine charging is **per call, hit or miss**: memoization is a
wall-clock optimization, and the PRAM accounting must describe the
algorithm, not the cache.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.machine import Machine, log2_depth

__all__ = [
    "grouped_csr",
    "split_parents_children",
    "rank_sorted_incidence",
    "clear_partition_caches",
    "partition_cache_stats",
]

#: Distinct rank arrays remembered per graph; sweeps reuse one π, so a
#: handful covers every realistic caller while bounding memory.
_ENTRIES_PER_KEY = 4

_split_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_incidence_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_stats = {"hits": 0, "misses": 0}


def _digest(ranks: np.ndarray) -> Tuple[int, int]:
    """Cheap content fingerprint of a rank array (size + byte hash)."""
    return ranks.size, hash(ranks.tobytes())


def _lookup(cache, key, digest):
    entries: Optional[List] = cache.get(key)
    if entries:
        for i, (d, value) in enumerate(entries):
            if d == digest:
                if i:  # LRU: move the hit to the front.
                    entries.insert(0, entries.pop(i))
                _stats["hits"] += 1
                return value
    _stats["misses"] += 1
    return None


def _store(cache, key, digest, value) -> None:
    try:
        entries = cache.setdefault(key, [])
    except TypeError:  # un-weakref-able key; skip caching
        return
    entries.insert(0, (digest, value))
    del entries[_ENTRIES_PER_KEY:]


def clear_partition_caches() -> None:
    """Drop every memoized partition (tests and memory-sensitive callers)."""
    _split_cache.clear()
    _incidence_cache.clear()
    _stats["hits"] = 0
    _stats["misses"] = 0


def partition_cache_stats() -> dict:
    """Hit/miss counters of the partition caches (reset by ``clear``)."""
    return dict(_stats)


def grouped_csr(
    sorted_keys: np.ndarray, values: np.ndarray, num_segments: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR structure over *values* grouped by an already-sorted key column.

    *sorted_keys* must be non-decreasing (e.g. a masked CSR ``src``
    column); the values are then already contiguous per segment, so the
    offsets are one ``bincount`` + ``cumsum`` and no ``argsort`` is
    needed.  Returns ``(offsets, values)`` with ``offsets`` of length
    ``num_segments + 1``.
    """
    counts = np.bincount(sorted_keys, minlength=num_segments).astype(
        np.int64, copy=False
    )
    offsets = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, values


def _freeze(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def split_parents_children(
    graph: CSRGraph,
    ranks: np.ndarray,
    *,
    machine: Optional[Machine] = None,
    use_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partition every adjacency list by priority (Lemma 4.1).

    Returns ``(p_off, p_nbr, c_off, c_nbr)``: two CSR structures holding,
    for each vertex, its earlier (parent) and later (child) neighbors.
    The per-vertex parent order is whatever CSR order induces, exactly as
    the lemma permits ("the pointers to parents are kept as an array in an
    arbitrary order").  The returned arrays are shared and read-only;
    results are memoized per ``(graph, π)`` (see module docstring).
    Charges ``n + 2m`` work at logarithmic depth per call, hit or miss.
    """
    n = graph.num_vertices
    if machine is not None:
        machine.charge(n + graph.num_arcs, log2_depth(max(n, 2)), tag="partition")
    digest = _digest(ranks) if use_cache else None
    if use_cache:
        cached = _lookup(_split_cache, graph, digest)
        if cached is not None:
            return cached
    offsets, dst = graph.offsets, graph.neighbors
    degrees = np.diff(offsets)
    # The implicit src column is non-decreasing (CSR order), so masked
    # subsets stay grouped and both structures build sort-free; per-vertex
    # parent counts are segment sums of the mask (prefix-sum differences).
    is_parent = ranks[dst] < np.repeat(ranks, degrees)
    running = np.zeros(dst.size + 1, dtype=np.int64)
    np.cumsum(is_parent, out=running[1:])
    p_off = running[offsets]
    c_off = offsets - p_off
    p_nbr = dst[is_parent]
    c_nbr = dst[~is_parent]
    split = _freeze(p_off, p_nbr, c_off, c_nbr)
    if use_cache:
        _store(_split_cache, graph, digest, split)
    return split


def rank_sorted_incidence(
    edges: EdgeList,
    ranks: np.ndarray,
    *,
    machine: Optional[Machine] = None,
    use_cache: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex → incident-edge CSR with each list sorted by rank (Lemma 5.3).

    Returns ``(inc_off, inc_eids)``: ``inc_eids[inc_off[v]:inc_off[v+1]]``
    lists ``v``'s incident edge ids from highest priority (smallest rank)
    to lowest.  Built with the lemma's linear-work bucket sort over ranks
    followed by a stable counting sort on endpoints; memoized per
    ``(edges, π)``.  Charges the bucket-sort (``2m + max(m, 1)``) and
    incidence-build (``2m + n``) costs per call, hit or miss.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if machine is not None:
        machine.charge(
            2 * m + max(m, 1), log2_depth(max(2 * m, 2)), tag="mm-bucket-sort"
        )
        machine.charge(2 * m + n, log2_depth(max(2 * m, 2)), tag="mm-incidence")
    digest = _digest(ranks) if use_cache else None
    if use_cache:
        cached = _lookup(_incidence_cache, edges, digest)
        if cached is not None:
            return cached
    endpoints = np.concatenate([edges.u, edges.v])
    eids = np.concatenate(
        [np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)]
    )
    # (endpoint, rank) pairs are distinct, so one argsort on the composite
    # key realizes "bucket by rank, then group stably by endpoint" in a
    # single pass (~8x faster than two stable argsorts at paper scale).
    order = np.argsort(endpoints * max(m, 1) + ranks[eids])
    inc_off, inc_eids = grouped_csr(endpoints[order], eids[order], n)
    index = _freeze(inc_off, inc_eids)
    if use_cache:
        _store(_incidence_cache, edges, digest, index)
    return index
