"""Incremental greedy MIS/MM under edge insertions and deletions.

The paper's priority-DAG view makes greedy maintenance local: vertex ``v``
is in the lexicographically-first MIS iff no earlier-ranked neighbor is,
so an edge mutation can only change the answer inside the DAG region
reachable (toward higher ranks) from the mutated endpoints.  The
maintainers here apply a batch of mutations structurally, seed a dirty
set with the directly perturbed items, and **re-peel only that region**
in rank order:

* pop the dirty item of minimum rank — all of its earlier-ranked
  neighbors are already final, so its greedy decision can be recomputed
  exactly;
* if the decision flipped, every higher-ranked neighbor becomes dirty.

Processing in rank order re-establishes the unique greedy fixpoint, so
the maintained answer is **bit-identical** to running sequential greedy
from scratch on the mutated graph (the mutation-parity suite asserts
this after every batch, against the ``rootset-vec`` / ``parallel-vec``
engines too).

State as arrays.  The peel walks adjacency sets, but each maintainer also
keeps its edges as a sorted array of canonical keys ``u*n + v`` (``u <
v``) with aligned state rows — ``(u, v)`` for MIS, ``(u, v, priority,
matched)`` for MM — and patches them per batch with ``np.searchsorted``
and one slice-and-concatenate pass.  So
:meth:`~IncrementalMIS.to_state` is a few array copies, with no Python
loop over edges, and :func:`result_from_state` builds the answer from a
state's arrays without rebuilding a maintainer.  ``from_state`` also
takes the ``tolist()`` form of a state (format-1 snapshot files,
portable JSON snapshots).

Work accounting: each batch records the affected-region size (items
popped), the flips, the arcs scanned, and the incremental-vs-scratch
work ratio against the ``items + 2·arcs`` cost a from-scratch peel would
pay — the ``aux["dynamic"]`` block that flows through session results
and perfbench's ``dynamic.*`` per-layer metrics.  Every scan of an
item's neighbours is charged at its full neighbour count, so the
numbers are a pure function of (state, batch): a maintainer rebuilt by
``from_state`` reports what the live one reports.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.orderings import random_priorities
from repro.core.result import MISResult, MatchingResult, RunStats
from repro.core.status import EDGE_DEAD, EDGE_MATCHED, IN_SET, KNOCKED_OUT
from repro.errors import InvalidGraphError, InvariantViolationError
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph, EdgeList
from repro.robustness.validate import check_ranks
from repro.util.arrays import sorted_unique
from repro.util.rng import SeedLike

__all__ = [
    "IncrementalMIS",
    "IncrementalMatching",
    "edge_priority",
    "result_from_state",
]

EdgePair = Tuple[int, int]

_MASK64 = (1 << 64) - 1


def edge_priority(seed: int, u: int, v: int) -> int:
    """Deterministic 62-bit priority for edge ``{u, v}`` under *seed*.

    A splitmix64-style integer mix — a pure function of ``(seed, u, v)``
    with no process-level state, so a session replayed after a worker
    crash (or restored from a snapshot on another host) draws identical
    priorities for identical insertions.
    """
    x = (int(seed) * 0x9E3779B97F4A7C15 + (u << 32 | (v & 0xFFFFFFFF)) + v) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z >> 2  # 62 bits: stays clear of int64 trouble downstream


def _canon_pair(u: object, v: object, n: int, context: str) -> EdgePair:
    try:
        a, b = int(u), int(v)
    except (TypeError, ValueError) as exc:
        raise InvalidGraphError(f"{context}: non-integer endpoint ({u!r}, {v!r})") from exc
    if a == b:
        raise InvalidGraphError(f"{context}: self-loop ({a}, {b})")
    if not (0 <= a < n and 0 <= b < n):
        raise InvalidGraphError(
            f"{context}: endpoints ({a}, {b}) out of range [0, {n})"
        )
    return (a, b) if a < b else (b, a)


def _check_batch(
    insertions: Sequence[EdgePair],
    deletions: Sequence[EdgePair],
    n: int,
) -> Tuple[List[EdgePair], List[EdgePair]]:
    """Canonicalize a mutation batch; reject self-loops and in-batch dupes."""
    ins = [_canon_pair(u, v, n, "insert") for (u, v) in insertions]
    dels = [_canon_pair(u, v, n, "delete") for (u, v) in deletions]
    seen: Set[EdgePair] = set()
    for pair in ins + dels:
        if pair in seen:
            raise InvalidGraphError(f"batch mentions edge {pair} twice")
        seen.add(pair)
    return ins, dels


def _state_array(value: object, tail: Tuple[int, ...], name: str) -> np.ndarray:
    """A fresh int64 copy of state field *value* (array or ``tolist()`` form).

    The array must hold integers (or bools) and have shape ``(k, *tail)``.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nested lists
        raise InvalidGraphError(f"state {name}: not an integer array ({exc})") from None
    if arr.shape == (0,):  # an empty JSON list carries no dtype or width
        arr = np.empty((0,) + tail, dtype=np.int64)
    if arr.dtype.kind not in "iub" or arr.shape[1:] != tail or arr.ndim != 1 + len(tail):
        raise InvalidGraphError(
            f"state {name}: expected integers of shape (k, {', '.join(map(str, tail))}), "
            f"got {arr.dtype} {arr.shape}"
        )
    return arr.astype(np.int64)


def _state_edges(rows: np.ndarray, n: int) -> np.ndarray:
    """Validate state edge rows; return their sorted canonical keys."""
    u, v = rows[:, 0], rows[:, 1]
    if u.size and (u.min() < 0 or v.max() >= n or bool(np.any(u >= v))):
        raise InvalidGraphError(f"state edges must be pairs 0 <= u < v < {n}")
    keys = u * n + v
    if keys.size > 1 and bool(np.any(keys[1:] <= keys[:-1])):
        raise InvalidGraphError("state edges must be sorted and distinct")
    return keys


def _splice(
    keys: np.ndarray,
    rows: np.ndarray,
    n: int,
    dels: Sequence[EdgePair],
    new_rows: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the rows of *dels* and add *new_rows*, keeping *keys* sorted.

    One pass: the kept slices of the old arrays and the new rows are
    joined by one ``np.concatenate`` per array, a plain copy
    (``np.delete``/``np.insert`` along axis 0 of a 2-D array is about 10x
    slower).  Both edge sets are canonical and validated against the
    maintainer's adjacency already, so every deletion is present and
    every insertion absent.
    """
    new = np.asarray(new_rows, dtype=np.int64).reshape(-1, rows.shape[1])
    new_keys = new[:, 0] * n + new[:, 1]
    at = np.searchsorted(keys, new_keys).tolist()
    gone = np.searchsorted(keys, [a * n + b for a, b in dels]).tolist()
    # (old position, 0 = insert new row i before it / 1 = drop it, key, i)
    events = sorted(
        [(pos, 0, key, i) for i, (pos, key) in enumerate(zip(at, new_keys.tolist()))]
        + [(pos, 1, 0, -1) for pos in gone]
    )
    key_parts, row_parts, prev = [], [], 0
    for pos, drop, _, i in events:
        key_parts.append(keys[prev:pos])
        row_parts.append(rows[prev:pos])
        if drop:
            prev = pos + 1
        else:
            key_parts.append(new_keys[i:i + 1])
            row_parts.append(new[i:i + 1])
            prev = pos
    key_parts.append(keys[prev:])
    row_parts.append(rows[prev:])
    return np.concatenate(key_parts), np.concatenate(row_parts)


class _DynamicCounters:
    """Per-batch and cumulative re-peel accounting shared by both maintainers."""

    __slots__ = ("batches", "total_work", "total_scratch_work", "last")

    def __init__(self) -> None:
        self.batches = 0
        self.total_work = 0
        self.total_scratch_work = 0
        self.last: Dict[str, object] = {}

    def record(
        self,
        *,
        inserted: int,
        deleted: int,
        affected: int,
        flipped: int,
        scanned_arcs: int,
        items: int,
        arcs: int,
    ) -> Dict[str, object]:
        work = affected + scanned_arcs
        scratch = items + 2 * arcs
        self.batches += 1
        self.total_work += work
        self.total_scratch_work += scratch
        self.last = {
            "inserted": inserted,
            "deleted": deleted,
            "affected": affected,
            "flipped": flipped,
            "scanned_arcs": scanned_arcs,
            "work": work,
            "scratch_work": scratch,
            "work_ratio": (work / scratch) if scratch else 0.0,
        }
        return dict(self.last)

    def aux(self) -> Dict[str, object]:
        """The ``aux["dynamic"]`` block attached to session results."""
        total_scratch = self.total_scratch_work
        return {
            "batches": self.batches,
            "total_work": self.total_work,
            "total_scratch_work": total_scratch,
            "total_work_ratio": (self.total_work / total_scratch) if total_scratch else 0.0,
            "last_batch": dict(self.last),
        }

    def load(self, data: Dict[str, object]) -> None:
        self.batches = int(data.get("batches", 0))
        self.total_work = int(data.get("total_work", 0))
        self.total_scratch_work = int(data.get("total_scratch_work", 0))
        self.last = dict(data.get("last_batch", {}))

    def run_stats(self, algorithm: str, n: int, m: int) -> RunStats:
        """Result stats: cumulative re-peel work, one step per batch."""
        return RunStats(
            algorithm=algorithm,
            n=n,
            m=m,
            work=self.total_work,
            depth=self.total_work,
            steps=self.batches,
            rounds=self.batches,
            aux={"dynamic": self.aux()},
        )


def result_from_state(state: Dict[str, object]) -> Union[MISResult, MatchingResult]:
    """The answer a :meth:`~IncrementalMIS.to_state` state encodes.

    Built from the state's arrays (or their ``tolist()`` form) without a
    maintainer: MIS copies ``status`` and ``ranks``; MM turns the
    ``matched`` column into a status vector over the canonical edge list
    and ranks each edge by its ``(priority, u, v)`` position.  State rows
    are sorted by ``(u, v)``, so one stable sort by priority gives that
    order (about 3x faster than ``np.lexsort`` of the three columns).
    Every returned array is a fresh copy, so a caller that writes into
    the result never changes *state*.  The state is trusted (it was
    validated when committed); :meth:`~IncrementalMIS.from_state`
    validates.
    """
    problem = state.get("problem")
    counters = _DynamicCounters()
    counters.load(dict(state.get("counters", {})))
    n = int(state["n"])
    if problem == "mis":
        return MISResult(
            status=np.array(state["status"], dtype=np.int8),
            ranks=np.array(state["ranks"], dtype=np.int64),
            stats=counters.run_stats("mis/incremental", n, len(state["edges"])),
        )
    if problem == "matching":
        rows = np.asarray(state["edges"], dtype=np.int64).reshape(-1, 4)
        m = rows.shape[0]
        u, v = rows[:, 0].copy(), rows[:, 1].copy()
        status = np.full(m, EDGE_DEAD, dtype=np.int8)
        status[rows[:, 3] != 0] = EDGE_MATCHED
        ranks = np.empty(m, dtype=np.int64)
        ranks[np.argsort(rows[:, 2], kind="stable")] = np.arange(m)
        return MatchingResult(
            status=status,
            edge_u=u,
            edge_v=v,
            ranks=ranks,
            stats=counters.run_stats("mm/incremental", n, m),
        )
    raise InvalidGraphError(f"unknown session problem {problem!r}")


class IncrementalMIS:
    """Maintain the lexicographically-first MIS under edge mutations.

    Parameters
    ----------
    graph:
        Initial :class:`~repro.graphs.csr.CSRGraph` (may be edgeless).
    ranks:
        Vertex priority permutation of ``0..n-1``; random from *seed*
        when omitted.  The vertex set is fixed for the session's
        lifetime, so the permutation stays valid across edge mutations.
    seed:
        Randomness for *ranks* when omitted.

    The initial answer is computed by a full peel (every vertex dirty),
    which is exactly sequential greedy; :meth:`apply_batch` then re-peels
    only the affected priority-DAG region per mutation batch.

    Examples
    --------
    >>> from repro.graphs.generators import path_graph
    >>> import numpy as np
    >>> inc = IncrementalMIS(path_graph(4), np.arange(4))
    >>> sorted(inc.members())
    [0, 2]
    >>> _ = inc.apply_batch(insertions=[(0, 2)])
    >>> sorted(inc.members())
    [0, 3]
    """

    problem = "mis"

    def __init__(
        self,
        graph: CSRGraph,
        ranks: Optional[np.ndarray] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        n = graph.num_vertices
        if ranks is None:
            ranks = random_priorities(n, seed)
        ranks = check_ranks(ranks, n)
        el = graph.edge_list()
        keys = sorted_unique(el.u * n + el.v)
        rows = np.stack((keys // n, keys % n), axis=1)
        self._load(n, ranks.copy(), keys, rows, np.full(n, KNOCKED_OUT, dtype=np.int8))
        self.counters = _DynamicCounters()
        self._graph_cache: Optional[CSRGraph] = graph
        self._peel(range(n))

    def _load(
        self,
        n: int,
        ranks: np.ndarray,
        keys: np.ndarray,
        rows: np.ndarray,
        status: np.ndarray,
    ) -> None:
        """Adopt *ranks*, sorted *keys*, aligned ``(u, v)`` *rows*, *status*."""
        self.n = n
        self.ranks = ranks
        self._rank = ranks.tolist()
        self._keys = keys
        self._rows = rows
        self.status = status
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        for a, b in zip(rows[:, 0].tolist(), rows[:, 1].tolist()):
            self._adj[a].add(b)
            self._adj[b].add(a)
        self._graph_cache = None

    # -- mutation --------------------------------------------------------

    def apply_batch(
        self,
        insertions: Sequence[EdgePair] = (),
        deletions: Sequence[EdgePair] = (),
    ) -> Dict[str, object]:
        """Apply one mutation batch and re-peel the affected region.

        Insertions must not already exist and deletions must; violations
        (and self-loops, out-of-range endpoints, in-batch duplicates)
        raise :class:`~repro.errors.InvalidGraphError` **before** any
        structural change, so a rejected batch leaves the session intact.

        Returns the per-batch dynamic stats dict (affected-region size,
        flips, scanned arcs, work ratio).
        """
        ins, dels = _check_batch(insertions, deletions, self.n)
        for a, b in ins:
            if b in self._adj[a]:
                raise InvalidGraphError(f"insert: edge ({a}, {b}) already present")
        for a, b in dels:
            if b not in self._adj[a]:
                raise InvalidGraphError(f"delete: edge ({a}, {b}) not present")
        rank = self._rank
        seeds: Set[int] = set()
        for a, b in ins:
            self._adj[a].add(b)
            self._adj[b].add(a)
            seeds.add(a if rank[a] > rank[b] else b)
        for a, b in dels:
            self._adj[a].discard(b)
            self._adj[b].discard(a)
            seeds.add(a if rank[a] > rank[b] else b)
        self._keys, self._rows = _splice(self._keys, self._rows, self.n, dels, ins)
        self._graph_cache = None
        affected, flipped, scanned = self._peel(seeds)
        return self.counters.record(
            inserted=len(ins),
            deleted=len(dels),
            affected=affected,
            flipped=flipped,
            scanned_arcs=scanned,
            items=self.n,
            arcs=self.m,
        )

    def _peel(self, dirty: Iterable[int]) -> Tuple[int, int, int]:
        """Re-peel *dirty* (and everything they flip) in rank order."""
        rank = self._rank
        status = self.status
        adj = self._adj
        heap = [(rank[v], v) for v in dirty]
        heapq.heapify(heap)
        queued = {v for (_, v) in heap}
        affected = flipped = scanned = 0
        while heap:
            rv, v = heapq.heappop(heap)
            queued.discard(v)
            affected += 1
            nbrs = adj[v]
            # Charged as the neighbour count, not the arcs visited before
            # the break: that number depends on set iteration order, which
            # a maintainer rebuilt by from_state need not share.
            scanned += len(nbrs)
            new = IN_SET
            for w in nbrs:
                if rank[w] < rv and status[w] == IN_SET:
                    new = KNOCKED_OUT
                    break
            if status[v] == new:
                continue
            status[v] = new
            flipped += 1
            scanned += len(nbrs)
            for w in nbrs:
                if rank[w] > rv and w not in queued:
                    queued.add(w)
                    heapq.heappush(heap, (rank[w], w))
        return affected, flipped, scanned

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        """Current edge count."""
        return int(self._keys.size)

    @property
    def size(self) -> int:
        """Current independent-set size."""
        return int(np.count_nonzero(self.status == IN_SET))

    def members(self) -> List[int]:
        """Current independent-set vertex ids (sorted)."""
        return np.nonzero(self.status == IN_SET)[0].tolist()

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR (cached between mutations)."""
        if self._graph_cache is None:
            self._graph_cache = from_edges(self.n, self._rows[:, 0], self._rows[:, 1])
        return self._graph_cache

    def result(self) -> MISResult:
        """Current answer as a :class:`~repro.core.result.MISResult`.

        ``stats.aux["dynamic"]`` carries the cumulative and last-batch
        re-peel accounting.
        """
        return result_from_state(self.to_state())

    def verify(self) -> None:
        """Re-check the greedy fixpoint on every vertex (guards hook).

        Raises :class:`~repro.errors.InvariantViolationError` if any
        vertex's status disagrees with the greedy rule — the full-guard
        invariant for sessions — or if the edge arrays that
        :meth:`to_state` ships disagree with the adjacency the peel walks.
        """
        rank = self._rank
        for v in range(self.n):
            expected = IN_SET
            for w in self._adj[v]:
                if rank[w] < rank[v] and self.status[w] == IN_SET:
                    expected = KNOCKED_OUT
                    break
            if self.status[v] != expected:
                raise InvariantViolationError(
                    f"incremental MIS fixpoint violated at vertex {v}"
                )
        n = self.n
        live = sorted(a * n + b for a in range(n) for b in self._adj[a] if a < b)
        if live != self._keys.tolist() or not np.array_equal(
            self._rows[:, 0] * n + self._rows[:, 1], self._keys
        ):
            raise InvariantViolationError(
                "incremental MIS edge arrays disagree with its adjacency"
            )

    # -- state (snapshot / worker replay) --------------------------------

    def to_state(self) -> Dict[str, object]:
        """State as arrays: ``ranks`` int64[n], ``status`` int8[n], and
        ``edges`` int64[m, 2] of canonical ``u < v`` rows in sorted order,
        plus the counters.  Every array is a fresh copy."""
        return {
            "problem": "mis",
            "n": self.n,
            "ranks": self.ranks.copy(),
            "edges": self._rows.copy(),
            "status": self.status.copy(),
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMIS":
        """Rebuild a maintainer from :meth:`to_state` output.

        Takes the array form or its ``tolist()`` form and copies it, so
        the maintainer never aliases *state*.  Shapes, endpoint ranges,
        ``u < v``, strictly increasing edge keys and the status vector
        are checked (:class:`~repro.errors.InvalidGraphError`).  The
        stored status is trusted (it was a verified fixpoint when
        snapshotted) so restore is O(n + m) with no re-peel; call
        :meth:`verify` to re-check it.
        """
        if state.get("problem") != "mis":
            raise InvalidGraphError(
                f"expected a 'mis' session state, got {state.get('problem')!r}"
            )
        n = int(state["n"])
        ranks = check_ranks(_state_array(state["ranks"], (), "ranks"), n)
        rows = _state_array(state["edges"], (2,), "edges")
        keys = _state_edges(rows, n)
        status = _state_array(state["status"], (), "status")
        if status.shape != (n,):
            raise InvalidGraphError("state status length does not match n")
        if not bool(np.all((status == IN_SET) | (status == KNOCKED_OUT))):
            raise InvalidGraphError("state status holds a code other than IN_SET/KNOCKED_OUT")
        obj = cls.__new__(cls)
        obj._load(n, ranks, keys, rows, status.astype(np.int8))
        obj.counters = _DynamicCounters()
        obj.counters.load(dict(state.get("counters", {})))
        return obj


class IncrementalMatching:
    """Maintain the lexicographically-first maximal matching under mutations.

    Edge identity is the canonical pair ``(min(u,v), max(u,v))``; each
    edge owns a priority that never changes while it exists.  Initial
    edges take the caller's rank permutation when given (positions in
    ``graph.edge_list()`` order); edges inserted later draw a
    deterministic priority from :func:`edge_priority` under the session
    *seed*, so the whole evolution is replayable.  Ties are broken by the
    endpoint pair, making the edge order total.

    :meth:`current_ranks` exposes the live edge order as a dense
    permutation over the canonical edge list — what a from-scratch
    reference solve of the mutated graph must use for parity.
    """

    problem = "matching"

    def __init__(
        self,
        graph_or_edges: Union[CSRGraph, EdgeList],
        ranks: Optional[np.ndarray] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        if isinstance(graph_or_edges, CSRGraph):
            el = graph_or_edges.edge_list()
        elif isinstance(graph_or_edges, EdgeList):
            el = graph_or_edges
        else:
            raise InvalidGraphError(
                f"expected CSRGraph or EdgeList, got {type(graph_or_edges).__name__}"
            )
        n = el.num_vertices
        m = el.num_edges
        self.n = n
        self.seed = int(seed) if seed is not None else 0
        if ranks is not None:
            prios = check_ranks(ranks, m)
        else:
            prios = np.fromiter(
                (edge_priority(self.seed, a, b) for a, b in zip(el.u.tolist(), el.v.tolist())),
                dtype=np.int64,
                count=m,
            )
        keys = el.u * n + el.v
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size > 1 and bool(np.any(keys[1:] == keys[:-1])):
            dup = int(keys[1:][keys[1:] == keys[:-1]][0])
            raise InvalidGraphError(
                f"duplicate edge {(dup // n, dup % n)} in initial edge list"
            )
        self._edges: Dict[EdgePair, List] = {}  # key -> [priority, matched]
        self._incident: List[Set[EdgePair]] = [set() for _ in range(n)]
        for a, b, p in zip(el.u.tolist(), el.v.tolist(), prios.tolist()):
            key = (a, b)
            self._edges[key] = [p, False]
            self._incident[a].add(key)
            self._incident[b].add(key)
        self.counters = _DynamicCounters()
        self._peel(list(self._edges))
        rows = np.zeros((m, 4), dtype=np.int64)
        rows[:, 0] = el.u[order]
        rows[:, 1] = el.v[order]
        rows[:, 2] = prios[order]
        rows[:, 3] = [
            self._edges[key][1] for key in zip(rows[:, 0].tolist(), rows[:, 1].tolist())
        ]
        self._keys = keys
        self._rows = rows

    # -- ordering --------------------------------------------------------

    def _order(self, key: EdgePair) -> Tuple[int, int, int]:
        return (self._edges[key][0], key[0], key[1])

    # -- mutation --------------------------------------------------------

    def apply_batch(
        self,
        insertions: Sequence[EdgePair] = (),
        deletions: Sequence[EdgePair] = (),
    ) -> Dict[str, object]:
        """Apply one mutation batch and re-peel the affected line-graph region.

        Same strictness contract as :meth:`IncrementalMIS.apply_batch`.
        """
        ins, dels = _check_batch(insertions, deletions, self.n)
        for key in ins:
            if key in self._edges:
                raise InvalidGraphError(f"insert: edge {key} already present")
        for key in dels:
            if key not in self._edges:
                raise InvalidGraphError(f"delete: edge {key} not present")
        dirty: Set[EdgePair] = set()
        for key in dels:
            prio, matched = self._edges[key]
            order = (prio, key[0], key[1])
            a, b = key
            self._incident[a].discard(key)
            self._incident[b].discard(key)
            del self._edges[key]
            if matched:
                # Only later-ordered adjacent edges can change: earlier
                # ones never depended on this edge.
                for nbr in self._incident[a] | self._incident[b]:
                    if self._order(nbr) > order:
                        dirty.add(nbr)
        # A later deletion in the same batch may remove an edge an earlier
        # deletion marked dirty; only surviving edges get re-peeled.
        dirty = {key for key in dirty if key in self._edges}
        new_rows = []
        for key in ins:
            a, b = key
            prio = edge_priority(self.seed, a, b)
            self._edges[key] = [prio, False]
            self._incident[a].add(key)
            self._incident[b].add(key)
            dirty.add(key)
            new_rows.append((a, b, prio, 0))
        self._keys, self._rows = _splice(self._keys, self._rows, self.n, dels, new_rows)
        affected, flipped, scanned, changed = self._peel(dirty)
        if changed:
            n = self.n
            at = np.searchsorted(self._keys, [a * n + b for a, b in changed])
            self._rows[at, 3] = [self._edges[key][1] for key in changed]
        return self.counters.record(
            inserted=len(ins),
            deleted=len(dels),
            affected=affected,
            flipped=flipped,
            scanned_arcs=scanned,
            items=len(self._edges),
            arcs=len(self._edges),
        )

    def _peel(self, dirty: Iterable[EdgePair]) -> Tuple[int, int, int, List[EdgePair]]:
        """Re-peel *dirty* in edge order; also returns the flipped edges."""
        heap = [(self._order(key), key) for key in dirty]
        heapq.heapify(heap)
        queued = {key for (_, key) in heap}
        affected = scanned = 0
        changed: List[EdgePair] = []
        edges = self._edges
        while heap:
            order, key = heapq.heappop(heap)
            queued.discard(key)
            if key not in edges:  # deleted while queued (defensive)
                continue
            affected += 1
            a, b = key
            nbrs = self._incident[a] | self._incident[b]
            # Every edge sharing an endpoint, the edge itself excluded;
            # charged in full for the reason given in IncrementalMIS._peel.
            scanned += len(nbrs) - 1
            new = True
            for nbr in nbrs:
                if nbr == key:
                    continue
                rec = edges[nbr]
                if rec[1] and (rec[0], nbr[0], nbr[1]) < order:
                    new = False
                    break
            rec = edges[key]
            if rec[1] == new:
                continue
            rec[1] = new
            changed.append(key)
            scanned += len(nbrs) - 1
            for nbr in nbrs:
                if nbr == key:
                    continue
                if (edges[nbr][0], nbr[0], nbr[1]) > order and nbr not in queued:
                    queued.add(nbr)
                    heapq.heappush(heap, ((edges[nbr][0], nbr[0], nbr[1]), nbr))
        return affected, len(changed), scanned, changed

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        """Current edge count."""
        return int(self._keys.size)

    @property
    def size(self) -> int:
        """Current matching size."""
        return int(np.count_nonzero(self._rows[:, 3]))

    def edge_list(self) -> EdgeList:
        """Current edges in canonical ``(u, v)``-sorted order."""
        return EdgeList(self.n, self._rows[:, 0].copy(), self._rows[:, 1].copy())

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR."""
        return from_edges(self.n, self._rows[:, 0], self._rows[:, 1])

    def current_ranks(self) -> np.ndarray:
        """Dense edge-rank permutation over :meth:`edge_list` order.

        Rank of edge *i* = position of its ``(priority, u, v)`` key in the
        session's total edge order — feed this to a from-scratch engine to
        reproduce the maintained matching bit-for-bit.
        """
        return self.result().ranks

    def result(self) -> MatchingResult:
        """Current answer as a :class:`~repro.core.result.MatchingResult`."""
        return result_from_state(self.to_state())

    def verify(self) -> None:
        """Re-check the greedy matching fixpoint on every edge, and that the
        state rows agree with the edge map the peel walks."""
        for key, rec in self._edges.items():
            order = (rec[0], key[0], key[1])
            blocked = False
            for nbr in self._incident[key[0]] | self._incident[key[1]]:
                if nbr == key:
                    continue
                other = self._edges[nbr]
                if other[1] and (other[0], nbr[0], nbr[1]) < order:
                    blocked = True
                    break
            if rec[1] == blocked:
                raise InvariantViolationError(
                    f"incremental matching fixpoint violated at edge {key}"
                )
        live = [[a, b, p, int(hit)] for (a, b), (p, hit) in sorted(self._edges.items())]
        if live != self._rows.tolist() or not np.array_equal(
            self._rows[:, 0] * self.n + self._rows[:, 1], self._keys
        ):
            raise InvariantViolationError(
                "incremental matching edge rows disagree with its edge map"
            )

    # -- state -----------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """State as arrays: ``edges`` int64[m, 4] with rows ``(u, v,
        priority, matched)`` in canonical sorted order, plus the seed and
        counters.  The array is a fresh copy."""
        return {
            "problem": "matching",
            "n": self.n,
            "seed": self.seed,
            "edges": self._rows.copy(),
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMatching":
        """Rebuild a maintainer from :meth:`to_state` output.

        Takes the array form or its ``tolist()`` form (``matched`` may be
        a bool) and copies it; checks as :meth:`IncrementalMIS.from_state`
        does, plus a 0/1 ``matched`` column.
        """
        if state.get("problem") != "matching":
            raise InvalidGraphError(
                f"expected a 'matching' session state, got {state.get('problem')!r}"
            )
        n = int(state["n"])
        rows = _state_array(state["edges"], (4,), "edges")
        keys = _state_edges(rows, n)
        if not bool(np.all((rows[:, 3] == 0) | (rows[:, 3] == 1))):
            raise InvalidGraphError("state edges: matched flags must be 0 or 1")
        obj = cls.__new__(cls)
        obj.n = n
        obj.seed = int(state.get("seed", 0))
        obj._keys = keys
        obj._rows = rows
        obj._edges = {}
        obj._incident = [set() for _ in range(n)]
        for a, b, prio, hit in rows.tolist():
            key = (a, b)
            obj._edges[key] = [prio, bool(hit)]
            obj._incident[a].add(key)
            obj._incident[b].add(key)
        obj.counters = _DynamicCounters()
        obj.counters.load(dict(state.get("counters", {})))
        return obj
