"""Seeded fault injection for chaos testing.

Two families of faults, matching the two ways state can go bad:

**Kernel faults** (injected live via :class:`ChaosInjector`) corrupt the
output of a frontier primitive mid-run — a dropped or duplicated frontier
vertex, a foreign vertex smuggled into a dedup result, a spurious parent
count decrement, an off-by-one cursor advance, a neighborhood minimum
lifted past its true value.  These model the silent data races and logic
slips the invariant guards exist to catch.

**Input faults** (:func:`corrupt_ranks`, :func:`corrupt_graph`) poison the
arrays handed to the front doors — NaN or duplicated priorities, truncated
or non-monotone CSR offsets, out-of-range neighbors.  These model bad
callers and bit rot, and must be rejected by front-door validation.

Everything is deterministic given :class:`FaultSpec` (kind, seed, strike
count), so a failing chaos case replays exactly.  The injector patches the
kernel's definition site *and* every engine module that imported the name
(engines bind kernels at import time; the list is
:data:`repro.kernels.PATCH_MODULES`), and restores all of them on exit.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels import PATCH_MODULES

__all__ = [
    "KERNEL_FAULTS",
    "RANK_FAULTS",
    "GRAPH_FAULTS",
    "FAULT_KINDS",
    "FaultSpec",
    "ChaosInjector",
    "corrupt_ranks",
    "corrupt_graph",
]

#: Faults injected into live kernel calls (fault kind → kernel wrapped).
KERNEL_FAULTS: Dict[str, str] = {
    "drop-frontier": "scatter_distinct",
    "dup-frontier": "scatter_distinct",
    "foreign-frontier": "scatter_distinct",
    "count-extra": "decrement_counts",
    "cursor-skip": "advance_cursors",
    "min-lift": "scatter_min",
}

#: Faults applied to a priority array before the front door sees it.
RANK_FAULTS = ("rank-nan", "rank-dup", "rank-oob", "rank-short")

#: Faults applied to CSR graph arrays (constructor bypassed).
GRAPH_FAULTS = ("csr-truncate", "csr-nonmonotone", "csr-oob")

FAULT_KINDS = tuple(KERNEL_FAULTS) + RANK_FAULTS + GRAPH_FAULTS


@dataclass(frozen=True)
class FaultSpec:
    """One reproducible fault: what to break, where in the run, and how.

    ``after`` counts kernel invocations to pass through untouched before
    the single strike; sweeping it moves the fault across rounds.
    """

    kind: str
    seed: int = 0
    after: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")


class ChaosInjector:
    """Context manager that arms one kernel fault while active.

    >>> spec = FaultSpec("dup-frontier", seed=7, after=1)
    >>> with ChaosInjector(spec) as chaos:
    ...     run_engine()                        # doctest: +SKIP
    >>> chaos.fired                             # doctest: +SKIP
    True

    ``fired`` reports whether the strike actually corrupted anything (a
    strike on an empty frontier is a no-op); chaos harnesses use it to
    skip the detected-or-harmless assertion for faults that never landed.
    The fault strikes once — call ``after`` passthroughs, one corruption,
    then the kernel behaves normally again.
    """

    def __init__(self, spec: FaultSpec) -> None:
        if spec.kind not in KERNEL_FAULTS:
            raise ValueError(
                f"{spec.kind!r} is an input fault; apply it with "
                f"corrupt_ranks/corrupt_graph instead of ChaosInjector"
            )
        self.spec = spec
        self.fired = False
        self._calls = 0
        self._rng = np.random.default_rng(spec.seed)
        self._saved: List[Tuple[object, str, Callable]] = []

    # -- corruption payloads ----------------------------------------------

    def _strike_scatter(self, result: np.ndarray, domain: int) -> np.ndarray:
        kind = self.spec.kind
        if result.size == 0:
            return result
        j = int(self._rng.integers(result.size))
        if kind == "drop-frontier":
            self.fired = True
            return np.delete(result, j)
        if kind == "dup-frontier":
            self.fired = True
            return np.append(result, result[j])
        # foreign-frontier: replace one winner with a different id from the
        # domain — typically an already-decided vertex.
        if domain <= 1:
            return result
        out = result.copy()
        out[j] = (out[j] + 1) % domain
        self.fired = True
        return out

    def _strike_counts(
        self, counts: np.ndarray, zeros: np.ndarray
    ) -> np.ndarray:
        # One spurious decrement.  A count of 1 prematurely "completes" its
        # vertex, minting a false root; any other positive count plants
        # latent corruption that surfaces as a missing or early root later.
        ones = np.flatnonzero(counts == 1)
        pool = ones if ones.size else np.flatnonzero(counts > 1)
        if pool.size == 0:
            return zeros
        v = int(pool[self._rng.integers(pool.size)])
        counts[v] -= 1
        self.fired = True
        if counts[v] == 0:
            zeros = np.append(zeros, v)
        return zeros

    def _strike_cursor(
        self, cursors: np.ndarray, ends: np.ndarray, frontier: np.ndarray
    ) -> None:
        # Off-by-one advance: one cursor hops over the live slot it had
        # stopped on, silently deleting an edge that was never processed.
        frontier = np.asarray(frontier, dtype=np.int64)
        room = frontier[cursors[frontier] < ends[frontier]]
        if room.size == 0:
            return
        v = int(room[self._rng.integers(room.size)])
        cursors[v] += 1
        self.fired = True

    def _strike_min(
        self, out: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        # Raise one cell this call set to the next-larger value scattered
        # to the same key: the prefix engines then see a smaller-ranked
        # live neighbor (MIS) or incident edge (MM) as absent, which can
        # mint a false root or a false winner.
        order = np.lexsort((values, keys))
        k, v = keys[order], values[order]
        # Positions holding a key's next-larger value right after the
        # value that set its cell.
        lift = np.flatnonzero(
            (k[1:] == k[:-1]) & (v[1:] > v[:-1]) & (v[:-1] == out[k[:-1]])
        ) + 1
        if lift.size == 0:
            return
        j = int(lift[self._rng.integers(lift.size)])
        out[k[j]] = v[j]
        self.fired = True

    # -- wrapper construction ---------------------------------------------

    def _should_strike(self) -> bool:
        self._calls += 1
        return (not self.fired) and self._calls > self.spec.after

    def _make_wrapper(self, original: Callable) -> Callable:
        kind = self.spec.kind

        if KERNEL_FAULTS[kind] == "scatter_distinct":

            def wrapper(values, domain, machine=None, tag="dedup"):
                result = original(values, domain, machine, tag)
                if self._should_strike():
                    result = self._strike_scatter(result, domain)
                return result

        elif KERNEL_FAULTS[kind] == "decrement_counts":

            def wrapper(counts, targets, machine=None, tag="count-decrement"):
                zeros = original(counts, targets, machine, tag)
                if self._should_strike():
                    zeros = self._strike_counts(counts, zeros)
                return zeros

        elif KERNEL_FAULTS[kind] == "scatter_min":

            def wrapper(out, keys, values, machine=None, tag="scatter-min"):
                original(out, keys, values, machine, tag)
                if self._should_strike():
                    self._strike_min(out, keys, values)

        else:  # advance_cursors

            def wrapper(
                cursors,
                ends,
                slots,
                status,
                live_value,
                frontier,
                machine=None,
                tag="cursor-advance",
            ):
                advances = original(
                    cursors, ends, slots, status, live_value, frontier,
                    machine, tag,
                )
                if self._should_strike():
                    self._strike_cursor(cursors, ends, frontier)
                return advances

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "ChaosInjector":
        name = KERNEL_FAULTS[self.spec.kind]
        original = getattr(importlib.import_module("repro.kernels.frontier"), name)
        wrapper = self._make_wrapper(original)
        for mod_name in PATCH_MODULES:
            mod = importlib.import_module(mod_name)
            if getattr(mod, name, None) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for mod, name, original in self._saved:
            setattr(mod, name, original)
        self._saved.clear()


def corrupt_ranks(ranks: np.ndarray, kind: str, seed: int = 0) -> np.ndarray:
    """Return a corrupted copy of a priority array (input never mutated)."""
    if kind not in RANK_FAULTS:
        raise ValueError(f"unknown rank fault {kind!r}; expected one of {RANK_FAULTS}")
    rng = np.random.default_rng(seed)
    n = ranks.size
    if kind == "rank-short":
        return ranks[: max(n - 1, 0)].copy()
    if n == 0:
        return ranks.copy()
    i = int(rng.integers(n))
    if kind == "rank-nan":
        out = ranks.astype(np.float64)
        out[i] = np.nan
        return out
    out = ranks.copy()
    if kind == "rank-dup":
        out[i] = out[(i + 1) % n]
    else:  # rank-oob
        out[i] = n if rng.integers(2) else -1
    return out


def corrupt_graph(graph: CSRGraph, kind: str, seed: int = 0) -> CSRGraph:
    """Return a CSR graph with corrupted arrays, bypassing the constructor.

    The constructor validates, so corruption is planted on a shell built
    with ``__new__`` — exactly the post-construction bit-rot scenario the
    front doors must re-check for.
    """
    if kind not in GRAPH_FAULTS:
        raise ValueError(
            f"unknown graph fault {kind!r}; expected one of {GRAPH_FAULTS}"
        )
    rng = np.random.default_rng(seed)
    offsets = graph.offsets.copy()
    neighbors = graph.neighbors.copy()
    if kind == "csr-truncate":
        # Lop slots off the tail: the offsets no longer cover the arcs.
        offsets[-1] -= 1 + int(rng.integers(max(neighbors.size, 1)))
    elif kind == "csr-nonmonotone":
        if offsets.size >= 3:
            v = 1 + int(rng.integers(offsets.size - 2))
            offsets[v] = offsets[v + 1] + 1 + int(rng.integers(3))
    else:  # csr-oob
        if neighbors.size:
            s = int(rng.integers(neighbors.size))
            neighbors[s] = graph.num_vertices + int(rng.integers(4))
    shell = object.__new__(CSRGraph)
    shell.offsets = offsets
    shell.neighbors = neighbors
    shell._edge_list = None
    return shell
