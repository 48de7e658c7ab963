"""Bulk-synchronous frontier kernels for the linear-work engines.

The paper's linear-work implementations (Lemmas 4.1/4.2 for MIS, 5.2/5.3
for MM) are stated pointer-by-pointer, but every per-step operation they
perform is a bulk operation over the current *frontier* (the root set, the
deleted set, the mmcheck candidate set).  This module provides those bulk
operations as vectorized CSR kernels:

* :func:`frontier_gather` / :func:`range_gather` — segmented adjacency
  gather over a vertex frontier (whole lists, or cursor-to-end ranges);
* :func:`stamp_dedup` — stamp-based frontier deduplication, the vectorized
  stand-in for Lemma 4.2's arbitrary-concurrent-write ownership trick;
* :func:`decrement_counts` — bulk retirement of parent arcs via per-vertex
  undecided-parent counters (the vectorized ``misCheck`` pointer advance);
* :func:`advance_cursors` — bulk lazy-deletion cursor advance for the
  sorted incidence lists of Lemma 5.2/5.3 (``mmcheck`` phase 1);
* :func:`sorted_segment_min` — segmented min over an already-sorted key
  column, via ``np.minimum.reduceat`` on older numpy or the indexed
  ``np.minimum.at`` fast path on numpy ≥ 1.24 (whichever measures faster);
* :func:`scatter_min` — indexed min over *unsorted* keys, the inner step
  of the prefix engines (Algorithm 3 and its matching analogue).

Every kernel optionally charges a :class:`~repro.pram.machine.Machine`
with the CRCW-PRAM cost of the bulk step — linear work in the elements it
touches, logarithmic depth — so engines built from these kernels keep the
exact ``O(n + m)`` accounting the lemmas prove.  Cursor advances charge
one unit per *retired* slot (each slot is retired at most once per run),
which is precisely the amortization argument of Lemma 4.1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pram.machine import Machine, log2_depth

__all__ = [
    "frontier_gather",
    "range_gather",
    "stamp_dedup",
    "scatter_distinct",
    "decrement_counts",
    "advance_cursors",
    "sorted_segment_min",
    "scatter_min",
]

_EMPTY = np.empty(0, dtype=np.int64)


def scatter_distinct(
    values: np.ndarray,
    domain: int,
    machine: Optional[Machine] = None,
    tag: str = "dedup",
) -> np.ndarray:
    """Distinct elements of an integer array in ``[0, domain)``.

    The concurrent-write ownership trick of Lemma 4.2 executed literally:
    every occurrence writes its position into a scratch cell, one write per
    value wins, and the winners are kept.  ``O(len(values))`` with no sort
    (unlike ``np.unique``); the scratch array is uninitialized memory, so
    the allocation is free.  Result order is by winning occurrence, not
    sorted.
    """
    if machine is not None:
        machine.charge(values.size, log2_depth(max(int(values.size), 2)), tag=tag)
    if values.size == 0:
        return _EMPTY
    scratch = np.empty(domain, dtype=np.int64)
    idx = np.arange(values.size, dtype=np.int64)
    scratch[values] = idx
    return values[scratch[values] == idx]


def frontier_gather(
    offsets: np.ndarray,
    data: np.ndarray,
    frontier: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "frontier-gather",
    need_owner: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather every CSR slot owned by a frontier vertex.

    Returns ``(owner, values)``: ``owner[i]`` is the frontier vertex whose
    segment slot ``i`` came from, ``values[i]`` the slot payload.  Pass
    ``need_owner=False`` to skip materializing the owner column (returned
    empty) when only the payloads matter.  Work ``O(|frontier| + slots
    gathered)``, depth ``O(log)`` (one segmented gather step).
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = offsets[frontier]
    degrees = offsets[frontier + 1] - starts
    total = int(degrees.sum())
    if machine is not None:
        machine.charge(
            frontier.size + total,
            log2_depth(max(int(frontier.size), 2)),
            tag=tag,
        )
    if total == 0:
        return _EMPTY, _EMPTY
    seg_starts = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=seg_starts[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_starts, degrees)
    owner = np.repeat(frontier, degrees) if need_owner else _EMPTY
    return owner, data[flat]


def range_gather(
    starts: np.ndarray,
    ends: np.ndarray,
    data: np.ndarray,
    frontier: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "range-gather",
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather ``data[starts[v]:ends[v]]`` for each frontier vertex ``v``.

    The cursor-to-end variant of :func:`frontier_gather`, used where lazy
    deletion has already retired a prefix of each list (``starts`` is the
    per-vertex cursor array, ``ends`` the CSR segment ends).  Returns
    ``(owner, values)`` as in :func:`frontier_gather`.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    lo = starts[frontier]
    deg = ends[frontier] - lo
    total = int(deg.sum())
    if machine is not None:
        machine.charge(
            frontier.size + total,
            log2_depth(max(int(frontier.size), 2)),
            tag=tag,
        )
    if total == 0:
        return _EMPTY, _EMPTY
    seg_starts = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=seg_starts[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(lo - seg_starts, deg)
    owner = np.repeat(frontier, deg)
    return owner, data[flat]


def stamp_dedup(
    candidates: np.ndarray,
    stamps: np.ndarray,
    stamp: int,
    machine: Optional[Machine] = None,
    tag: str = "stamp-dedup",
) -> np.ndarray:
    """Deduplicate a candidate frontier against a per-item stamp array.

    Returns the distinct candidates whose ``stamps`` entry differs from
    *stamp* and marks them, so repeated calls with the same *stamp* admit
    each item once — the sequentially-consistent equivalent of the
    concurrent ownership write of Lemma 4.2 ("the neighbor writes its
    identifier into the checked vertex").  Mutates *stamps* in place.
    Work ``O(|candidates|)``, depth ``O(log)``.
    """
    if machine is not None:
        machine.charge(
            candidates.size, log2_depth(max(int(candidates.size), 2)), tag=tag
        )
    if candidates.size == 0:
        return _EMPTY
    fresh = candidates[stamps[candidates] != stamp]
    fresh = scatter_distinct(fresh, stamps.size)
    stamps[fresh] = stamp
    return fresh


def decrement_counts(
    counts: np.ndarray,
    targets: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "count-decrement",
) -> np.ndarray:
    """Decrement ``counts`` once per occurrence in *targets*; report zeros.

    This is the vectorized ``misCheck`` pointer advance: instead of walking
    a cursor over the parent array, each vertex keeps a count of its still
    undecided parents, and every newly decided parent contributes one
    occurrence to *targets*.  A count hitting zero is exactly a cursor
    reaching the end of the parent array — the vertex becomes a root.
    Returns the distinct targets whose count reached zero.  Each decrement
    permanently retires one parent arc, so the total work across a run is
    ``O(m)`` (Lemma 4.1's amortization).  Mutates *counts* in place.
    """
    if machine is not None:
        machine.charge(targets.size, log2_depth(max(int(targets.size), 2)), tag=tag)
    if targets.size == 0:
        return _EMPTY
    if 8 * targets.size >= counts.size:
        # Dense frontier: one counting pass over the value domain.
        mult = np.bincount(targets)
        hit = mult.size
        counts[:hit] -= mult
        return np.flatnonzero((mult > 0) & (counts[:hit] == 0))
    # Sparse frontier: sort-based multiplicities keep the step o(domain).
    uniq, mult = np.unique(targets, return_counts=True)
    counts[uniq] -= mult
    return uniq[counts[uniq] == 0]


def advance_cursors(
    cursors: np.ndarray,
    ends: np.ndarray,
    slots: np.ndarray,
    status: np.ndarray,
    live_value: int,
    frontier: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "cursor-advance",
) -> int:
    """Advance each frontier vertex's cursor past non-live slots, in bulk.

    ``cursors[v]`` indexes into *slots* (item ids); a slot is live while
    ``status[slots[cursors[v]]] == live_value``.  Every frontier cursor is
    advanced until it reaches a live slot or ``ends[v]`` — phase 1 of
    ``mmcheck`` (Lemma 5.2), executed with the lemma's geometric doubling:
    each round probes a window of doubled size, so the bulk-synchronous
    iteration count is logarithmic in the longest advance and the slots
    probed stay within a constant factor of the slots retired.  Charges one
    unit per advance (the slot it retires) plus one terminating check per
    frontier vertex; returns the number of advances.  *frontier* must not
    contain duplicates.  Mutates *cursors*.
    """
    advances = 0
    active = np.asarray(frontier, dtype=np.int64)
    window = 4
    while active.size:
        lo = cursors[active]
        deg = np.minimum(lo + window, ends[active]) - lo
        probing = deg > 0
        active, lo, deg = active[probing], lo[probing], deg[probing]
        if active.size == 0:
            break
        total = int(deg.sum())
        seg = np.zeros(active.size, dtype=np.int64)
        np.cumsum(deg[:-1], out=seg[1:])
        pos = np.arange(total, dtype=np.int64)
        live = status[slots[pos + np.repeat(lo - seg, deg)]] == live_value
        # First live offset inside each window (deg[i] when all dead).
        first = np.minimum.reduceat(np.where(live, pos, total), seg) - seg
        first = np.minimum(first, deg)
        cursors[active] = lo + first
        advances += int(first.sum())
        active = active[first == deg]
        # Quadrupling keeps the probed slots within a constant factor of
        # the retired slots while halving the bulk-synchronous round count.
        window *= 4
    if machine is not None:
        machine.charge(
            advances + frontier.size,
            log2_depth(max(int(frontier.size), 2)),
            tag=tag,
        )
    return advances


# numpy 1.24 gave ``ufunc.at`` an indexed fast path for 1-D contiguous
# same-dtype operands; before that it ran a buffered per-element loop that
# the reduceat formulation beats by an order of magnitude.
_FAST_UFUNC_AT = np.lib.NumpyVersion(np.__version__) >= "1.24.0"


def _reduceat_segment_min(
    sorted_keys: np.ndarray, values: np.ndarray, out: np.ndarray
) -> None:
    """The ``np.minimum.reduceat`` formulation of :func:`sorted_segment_min`."""
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    out[sorted_keys[boundaries]] = np.minimum.reduceat(values, boundaries)


def sorted_segment_min(
    sorted_keys: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "sorted-seg-min",
) -> None:
    """``out[k] = min(values where sorted_keys == k)`` for keys present.

    *sorted_keys* must be non-decreasing (a compacted CSR ``src`` column
    keeps this property for free); entries of *out* whose key is absent are
    left untouched, so callers pre-fill *out* with their sentinel.  Two
    equivalent formulations, picked by numpy version: a segmented
    ``np.minimum.reduceat`` over the key-change boundaries, or the indexed
    ``np.minimum.at`` scatter where numpy ≥ 1.24 makes it the faster single
    pass (the boundary scan then costs more than it saves — measured in
    ``BENCH_rootset.json``).  Work ``O(len(values))``, depth ``O(log)``.
    Mutates *out* in place.
    """
    if machine is not None:
        machine.charge(values.size, log2_depth(max(int(values.size), 2)), tag=tag)
    if sorted_keys.size == 0:
        return
    if _FAST_UFUNC_AT:
        np.minimum.at(out, sorted_keys, values)
        return
    _reduceat_segment_min(sorted_keys, values, out)


def scatter_min(
    out: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "scatter-min",
) -> None:
    """``out[k] = min(out[k], values where keys == k)``, keys in any order.

    The indexed min both prefix engines run once per inner step: over the
    prefix's internal arcs for MIS (each vertex's smallest live neighbor
    rank) and at both endpoints of the live edges for MM (each vertex's
    smallest live incident edge rank).  Unlike :func:`sorted_segment_min`
    the keys need not be sorted, so no key column is kept in order between
    steps.  Entries of *out* whose key is absent are left untouched, so
    callers pre-fill the cells they read with their sentinel.  Work
    ``O(len(values))``, depth ``O(log)``.  Mutates *out* in place.
    """
    if machine is not None:
        machine.charge(values.size, log2_depth(max(int(values.size), 2)), tag=tag)
    np.minimum.at(out, keys, values)
