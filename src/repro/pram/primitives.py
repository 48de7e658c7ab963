"""Vectorized PRAM primitives with textbook work/depth charging.

These are the building blocks the paper's implementations rely on (prefix
sums for packing, bucket sort for ordering incident edges by priority,
concurrent-write minima for root detection).  Each function

* computes its result with vectorized numpy (no per-element Python loops,
  per the HPC guides), and
* optionally charges a :class:`~repro.pram.machine.Machine` with the
  standard CRCW-PRAM cost of the primitive (linear work, logarithmic
  depth), so that engines built from primitives account work consistently.

The numpy execution order is of course sequential under the hood; the
*costs charged* are those of the parallel primitive, which is what the
simulated-time figures consume.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pram.machine import Machine, log2_depth
from repro.util.arrays import sorted_unique

__all__ = [
    "plus_scan",
    "pack",
    "pack_index",
    "segmented_min",
    "min_scatter",
    "bucket_sort_by_key",
    "remove_duplicates",
]


def plus_scan(values: np.ndarray, machine: Optional[Machine] = None, tag: str = "scan") -> np.ndarray:
    """Exclusive prefix sum (`+`-scan) of a 1-D integer/float array.

    Work ``O(n)``, depth ``O(log n)`` (Blelloch scan).  Returns an array of
    the same length whose ``i``-th entry is ``sum(values[:i])``.

    >>> plus_scan(np.array([3, 1, 4]))
    array([0, 3, 4])
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"plus_scan expects a 1-D array, got shape {values.shape}")
    out = np.empty_like(values)
    if values.size:
        out[0] = 0
        np.cumsum(values[:-1], out=out[1:])
    if machine is not None:
        machine.charge(values.size, log2_depth(values.size), tag=tag)
    return out


def pack(values: np.ndarray, flags: np.ndarray, machine: Optional[Machine] = None, tag: str = "pack") -> np.ndarray:
    """Keep ``values[i]`` where ``flags[i]`` is true, densely packed.

    Work ``O(n)``, depth ``O(log n)`` (scan + scatter).  This is the
    "densely pack into new arrays" operation of Theorem 4.5.
    """
    values = np.asarray(values)
    flags = np.asarray(flags, dtype=bool)
    if values.shape != flags.shape:
        raise ValueError(
            f"values and flags must have identical shapes, got {values.shape} vs {flags.shape}"
        )
    if machine is not None:
        machine.charge(values.size, log2_depth(values.size), tag=tag)
    return values[flags]


def pack_index(flags: np.ndarray, machine: Optional[Machine] = None, tag: str = "pack") -> np.ndarray:
    """Indices at which *flags* is true, in increasing order.

    Equivalent to ``pack(arange(n), flags)`` without materializing the
    iota.  Work ``O(n)``, depth ``O(log n)``.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1:
        raise ValueError(f"pack_index expects a 1-D array, got shape {flags.shape}")
    if machine is not None:
        machine.charge(flags.size, log2_depth(flags.size), tag=tag)
    return np.nonzero(flags)[0].astype(np.int64, copy=False)


def min_scatter(
    target: np.ndarray,
    index: np.ndarray,
    values: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "min-scatter",
) -> None:
    """``target[index[i]] = min(target[index[i]], values[i])`` for all i.

    The CRCW "priority/arbitrary write + doubling" idiom used for root
    detection: every live edge writes its far endpoint's rank to its near
    endpoint, keeping the minimum.  Work ``O(len(index))``, depth
    ``O(log n)``.  Mutates *target* in place.
    """
    index = np.asarray(index)
    values = np.asarray(values)
    if index.shape != values.shape:
        raise ValueError(
            f"index and values must have identical shapes, got {index.shape} vs {values.shape}"
        )
    np.minimum.at(target, index, values)
    if machine is not None:
        machine.charge(index.size, log2_depth(max(index.size, 2)), tag=tag)


def segmented_min(
    values: np.ndarray,
    segment_offsets: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "seg-min",
) -> np.ndarray:
    """Minimum of each segment of *values* delimited by *segment_offsets*.

    ``segment_offsets`` has length ``k+1`` for ``k`` segments (CSR style);
    empty segments yield the dtype's max value.  Work ``O(n)``, depth
    ``O(log n)``.
    """
    values = np.asarray(values)
    offs = np.asarray(segment_offsets, dtype=np.int64)
    if offs.ndim != 1 or offs.size == 0:
        raise ValueError("segment_offsets must be a non-empty 1-D array")
    if offs[0] != 0 or offs[-1] != values.size or np.any(np.diff(offs) < 0):
        raise ValueError("segment_offsets must be monotone from 0 to len(values)")
    k = offs.size - 1
    if np.issubdtype(values.dtype, np.integer):
        sentinel = np.iinfo(values.dtype).max
    else:
        sentinel = np.inf
    out = np.full(k, sentinel, dtype=values.dtype)
    nonempty = offs[:-1] < offs[1:]
    if values.size:
        mins = np.minimum.reduceat(values, offs[:-1][nonempty])
        out[nonempty] = mins
    if machine is not None:
        machine.charge(values.size + k, log2_depth(max(values.size, 2)), tag=tag)
    return out


def bucket_sort_by_key(
    keys: np.ndarray,
    num_buckets: int,
    machine: Optional[Machine] = None,
    tag: str = "bucket-sort",
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable counting/bucket sort of integer *keys* in ``[0, num_buckets)``.

    Returns ``(order, bucket_offsets)`` where ``keys[order]`` is sorted and
    ``bucket_offsets`` is the CSR boundary array of the buckets (length
    ``num_buckets + 1``).  This is the linear-work sort of Lemma 5.3 used
    to order each vertex's incident edges by priority.  Work ``O(n + B)``,
    depth ``O(log n)``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"bucket_sort_by_key expects 1-D keys, got shape {keys.shape}")
    if num_buckets < 1:
        raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    if keys.size:
        lo, hi = int(keys.min()), int(keys.max())
        if lo < 0 or hi >= num_buckets:
            raise ValueError(
                f"keys must lie in [0, {num_buckets}), found range [{lo}, {hi}]"
            )
    counts = np.bincount(keys, minlength=num_buckets).astype(np.int64, copy=False)
    bucket_offsets = np.zeros(num_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=bucket_offsets[1:])
    # Stable sort within buckets via argsort with 'stable' kind; for the
    # library's use (distinct priority keys) buckets have size <= 1 anyway.
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    if machine is not None:
        machine.charge(keys.size + num_buckets, log2_depth(max(keys.size, 2)), tag=tag)
    return order, bucket_offsets


def remove_duplicates(
    values: np.ndarray,
    machine: Optional[Machine] = None,
    tag: str = "dedup",
) -> np.ndarray:
    """Distinct values of an integer array (order not preserved).

    Used when building root sets, where several deleted vertices may
    nominate the same candidate ("duplicates can be avoided ... by having
    the neighbor write its identifier into the checked vertex", Lemma 4.2).
    Work ``O(n)`` expected (hashing on a PRAM), depth ``O(log n)``.
    """
    values = np.asarray(values)
    out = sorted_unique(values)
    if machine is not None:
        machine.charge(values.size, log2_depth(max(values.size, 2)), tag=tag)
    return out
