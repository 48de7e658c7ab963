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
this after every batch, against the ``rootset-vec`` / ``prefix``
engines too).

State as arrays.  The peel walks adjacency sets (MM: an edge map), but
each maintainer also keeps its edges as a sorted array of canonical keys
``u*n + v`` (``u < v``) with aligned state rows — ``(u, v)`` for MIS,
``(u, v, priority, matched)`` for MM.  A batch does not touch those
arrays.  It records the items whose answer it flipped (``last_flips``)
and commits itself with them onto a :class:`StateOverlay` over the
arrays, in O(batch + flips); ``m`` and ``size`` are the overlay's
counters.  The overlay is folded into the arrays in one
slice-and-concatenate pass (:func:`_splice`) when something reads them
(:meth:`~IncrementalMIS.to_state`, ``graph``, ``edge_list``, ``verify``,
``result``) or when it would pass :data:`_FOLD_SHARE` of m, so a batch
costs O(batch + affected) and the fold's O(m) copy is paid once per
Θ(m) touched items.  So :meth:`~IncrementalMIS.to_state` is a fold and
a few array copies, with no Python loop over edges, and
:func:`result_from_state` builds the answer from a state's arrays
without rebuilding a maintainer.  The same overlay, fed the batch and
its flips, lets a holder of the arrays follow a maintainer that lives
elsewhere (a session's parent), and :func:`apply_flips` is that step as
a pure function.  :func:`check_state`
validates a state or its ``tolist()`` form (format-1 snapshot files,
portable JSON snapshots) for ``from_state`` and a session restore.
Version 0 is sequential greedy on (graph, π), which every engine returns,
so :func:`initial_state` builds it from one solve plus O(m) numpy.

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

import copy
import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.engines import solve as engine_solve
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
    "StateOverlay",
    "apply_flips",
    "check_state",
    "edge_priorities",
    "edge_priority",
    "initial_state",
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


def edge_priorities(seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`edge_priority` of every edge ``{u[i], v[i]}``: the same mix in
    uint64 arithmetic, which wraps as the scalar masks do (equal values)."""
    u = np.asarray(u, dtype=np.int64).astype(np.uint64)
    v = np.asarray(v, dtype=np.int64).astype(np.uint64)
    x = (u << np.uint64(32)) | (v & np.uint64(0xFFFFFFFF))
    x += v + np.uint64((int(seed) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(2)).astype(np.int64)


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


def _state_edges(rows: np.ndarray, n: int) -> None:
    """Check state edge rows: canonical pairs, sorted and distinct."""
    u, v = rows[:, 0], rows[:, 1]
    if u.size and (u.min() < 0 or v.max() >= n or bool(np.any(u >= v))):
        raise InvalidGraphError(f"state edges must be pairs 0 <= u < v < {n}")
    keys = u * n + v
    if keys.size > 1 and bool(np.any(keys[1:] <= keys[:-1])):
        raise InvalidGraphError("state edges must be sorted and distinct")


#: The share of m that a :class:`StateOverlay` (edges touched and MIS
#: statuses flipped since the last fold) may reach before a commit folds
#: it into the sorted arrays.  Any constant share keeps a fold's O(m)
#: copy at O(batch) per batch amortized.  Measured
#: (docs/performance.md, "Folding the edge arrays"): the mean batch time
#: is flat from 1/8 down to 1/256 and rises at 1/1024, while the single
#: fold that pays for the touched set shrinks with the share (a touched
#: edge costs ~7 us to fold, a row of the copy ~6 ns).
_FOLD_SHARE = 1 / 256


def _splice(
    keys: np.ndarray,
    rows: np.ndarray,
    drop: np.ndarray,
    new_keys: np.ndarray,
    new_rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the rows whose keys are in *drop* and add *new_rows*.

    *keys* is sorted and aligned with *rows*; keys of *drop* that *keys*
    lacks are skipped.  *new_keys* is sorted, aligned with *new_rows*,
    and holds no key left after the drop, so an edge whose row changed
    is dropped and re-added.  One pass: the kept slices of the old
    arrays and the new rows are joined by one ``np.concatenate`` per
    array, a plain copy (boolean-mask scatters cost about 10x more on
    2-D rows).  Returns fresh arrays.
    """
    gone = np.searchsorted(keys, drop)
    found = gone < keys.size
    found[found] = keys[gone[found]] == drop[found]
    gone = gone[found]
    at = np.searchsorted(keys, new_keys)
    pos = np.concatenate((at, gone))
    # Position order; at one position the insert goes before the drop.
    order = np.lexsort((np.arange(pos.size) >= at.size, pos))
    key_parts, row_parts, prev = [], [], 0
    for p, i in zip(pos[order].tolist(), order.tolist()):
        key_parts.append(keys[prev:p])
        row_parts.append(rows[prev:p])
        if i >= at.size:
            prev = p + 1
        else:
            key_parts.append(new_keys[i:i + 1])
            row_parts.append(new_rows[i:i + 1])
            prev = p
    key_parts.append(keys[prev:])
    row_parts.append(rows[prev:])
    return np.concatenate(key_parts), np.concatenate(row_parts)


class StateOverlay:
    """A committed state as base arrays plus the batches since the last fold.

    :meth:`commit` takes one batch and the flips a maintainer reported for
    it in O(batch + flips): inserted rows and deleted keys go into a dict
    over the base rows, whose sorted keys are kept beside them; flipped
    values go there too (an MM edge's row, an MIS vertex's status).
    :attr:`m` and :attr:`size` follow as counters; a deleted MM edge that
    was matched lowers ``size``.  :meth:`fold` writes the overlay into
    fresh arrays in one :func:`_splice` pass and returns the state, as
    :meth:`IncrementalMIS.to_state` lays it out; :meth:`result` folds
    only for MM, since an MIS answer reads no edge row.  The base arrays
    are never written, so a state that :meth:`fold` handed out stays as
    it was.  A commit folds first when the overlay and its batch would
    pass :data:`_FOLD_SHARE` of m.  Both steps build what they write
    before they write it, so one that raises leaves the overlay as it
    was.  Batches and flips are trusted to be ones a maintainer holding
    this state accepted and reported.  Each maintainer keeps one over its
    own arrays; a session's parent keeps one per committed version.
    """

    def __init__(self, state: Dict[str, object]) -> None:
        self._state = dict(state)
        self._counters = state["counters"]
        n = self._n = int(state["n"])
        rows = state["edges"]
        self._keys = rows[:, 0] * n + rows[:, 1]
        #: Edge key -> current row, ``None`` once deleted.
        self._edges: Dict[int, Optional[List[int]]] = {}
        #: MIS vertex -> current status.
        self._status: Dict[int, int] = {}
        #: Current edge count.
        self.m = len(rows)
        #: Current answer size: MIS members, or matched MM edges.
        self.size = int(np.count_nonzero(
            state["status"] == IN_SET if state["problem"] == "mis" else rows[:, 3]
        ))

    def _row(self, key: int) -> List[int]:
        """The current row of live edge *key* (the overlay's own list, if
        it holds one: copy it before a write)."""
        row = self._edges.get(key)
        if row is None:
            row = self._state["edges"][int(self._keys.searchsorted(key))].tolist()
        return row

    def commit(
        self,
        insertions: Sequence[EdgePair],
        deletions: Sequence[EdgePair],
        flips: Sequence[Sequence[int]],
        counters: Optional[Dict[str, object]] = None,
    ) -> None:
        """Add one accepted batch, its flips and (when given) the counters."""
        n = self._n
        mis = self._state["problem"] == "mis"
        ins = [_canon_pair(u, v, n, "insert") for u, v in insertions]
        dels = [_canon_pair(u, v, n, "delete") for u, v in deletions]
        m = self.m + len(ins) - len(dels)
        if len(self._edges) + len(self._status) + len(ins) + len(dels) + len(flips) > _FOLD_SHARE * m:
            self.fold()
        # The batch's rows, statuses and size, written below in one step.
        edges: Dict[int, Optional[List[int]]] = {}
        status: Dict[int, int] = {}
        size = self.size
        for a, b in dels:
            key = a * n + b
            if not mis:
                size -= self._row(key)[3]
            edges[key] = None
        if mis:
            for a, b in ins:
                edges[a * n + b] = [a, b]
            base = self._state["status"]
            for v, new in flips:
                old = self._status.get(v, int(base[v]))
                status[v] = new
                size += (new == IN_SET) - (old == IN_SET)
        else:
            seed = self._state["seed"]
            for a, b in ins:  # the scalar mix: a few inserts cost less than numpy's calls
                edges[a * n + b] = [a, b, edge_priority(seed, a, b), 0]
            for a, b, hit in flips:
                key = a * n + b
                row = edges.get(key)
                if row is None:
                    row = edges[key] = list(self._row(key))
                size += hit - row[3]
                row[3] = hit
        self._edges.update(edges)
        self._status.update(status)
        self.m, self.size = m, size
        if counters is not None:
            self._counters = counters

    def _status_array(self) -> np.ndarray:
        """A fresh MIS status array with the overlay's flips written in."""
        status = self._state["status"].copy()
        if self._status:
            status[np.fromiter(self._status, dtype=np.int64, count=len(self._status))] = list(
                self._status.values())
        return status

    def fold(self) -> Dict[str, object]:
        """The committed state with the overlay written into fresh arrays.

        The returned dict and its arrays are the new base: a later commit
        goes into a new overlay over them and a later fold into new
        arrays, so neither is changed afterwards.
        """
        if not (self._edges or self._status or self._counters is not self._state["counters"]):
            return self._state
        state = dict(self._state, counters=self._counters)
        keys = self._keys
        if self._edges:
            drop = np.fromiter(sorted(self._edges), dtype=np.int64, count=len(self._edges))
            live = [self._edges[key] for key in drop.tolist() if self._edges[key] is not None]
            rows = state["edges"]
            new_rows = np.array(live, dtype=np.int64).reshape(-1, rows.shape[1])
            keys, state["edges"] = _splice(
                keys, rows, drop, new_rows[:, 0] * self._n + new_rows[:, 1], new_rows)
        if self._status:
            state["status"] = self._status_array()
        self._state, self._keys, self._edges, self._status = state, keys, {}, {}
        return state

    def result(self) -> Union[MISResult, MatchingResult]:
        """The answer :func:`result_from_state` builds from :meth:`fold`.

        An MIS answer reads the status, the ranks and m, not the edge
        rows, so it folds nothing: O(n), not O(m).
        """
        if self._state["problem"] != "mis":
            return result_from_state(self.fold())
        return _mis_result(self._status_array(), self._state, self.m, self._counters)


def apply_flips(
    state: Dict[str, object],
    insertions: Sequence[EdgePair],
    deletions: Sequence[EdgePair],
    flips: Sequence[Sequence[int]],
) -> Dict[str, object]:
    """The state a maintainer holding *state* reaches under one batch.

    *flips* is the maintainer's ``last_flips`` after it accepted the
    batch: ``(v, status)`` per flipped MIS vertex, ``(u, v, matched)``
    per flipped MM edge.  The batch is committed onto a
    :class:`StateOverlay` of *state* and folded: the edge rows are
    spliced as a maintainer's fold splices them, inserted MM edges take
    :func:`edge_priorities` under the state's seed, and the flipped
    values are written over the result.  Pure: every array of the
    returned state is a fresh copy and *state* is left as it was; the
    counters are copied unchanged (the batch's come from the maintainer).
    The batch is trusted to be one the maintainer accepted, so each
    deletion is present and each insertion absent.
    """
    overlay = StateOverlay(state)
    overlay.commit(insertions, deletions, flips)
    out = dict(overlay.fold(), counters=copy.deepcopy(state["counters"]))
    for key, value in out.items():
        if isinstance(value, np.ndarray) and value is state[key]:
            out[key] = value.copy()
    return out


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


def _mis_result(
    status: np.ndarray, state: Dict[str, object], m: int, counters: Dict[str, object]
) -> MISResult:
    """An MIS answer: *status* (a fresh array), *state*'s ranks copied."""
    dyn = _DynamicCounters()
    dyn.load(dict(counters))
    return MISResult(
        status=status,
        ranks=np.array(state["ranks"], dtype=np.int64),
        stats=dyn.run_stats("mis/incremental", int(state["n"]), m),
    )


def result_from_state(state: Dict[str, object]) -> Union[MISResult, MatchingResult]:
    """The answer a :meth:`~IncrementalMIS.to_state` state encodes.

    Built from the state's arrays (or their ``tolist()`` form) without a
    maintainer: MIS copies ``status`` and ``ranks``; MM turns the
    ``matched`` column into a status vector over the canonical edge list
    and ranks each edge by its ``(priority, u, v)`` position.  State rows
    are sorted by ``(u, v)``, so a stable sort by priority gives that
    order, and without a tie any sort does: the default sort and a tie
    check take 0.46 ms at m = 25k against the stable sort's 1.57 ms,
    which runs only when the sorted priorities hold a tie.
    Every returned array is a fresh copy, so a caller that writes into
    the result never changes *state*.  The state is trusted (it was
    validated when committed); :meth:`~IncrementalMIS.from_state`
    validates.
    """
    problem = state.get("problem")
    if problem == "mis":
        return _mis_result(np.array(state["status"], dtype=np.int8), state,
                           len(state["edges"]), state.get("counters", {}))
    counters = _DynamicCounters()
    counters.load(dict(state.get("counters", {})))
    n = int(state["n"])
    if problem == "matching":
        rows = np.asarray(state["edges"], dtype=np.int64).reshape(-1, 4)
        m = rows.shape[0]
        u, v = rows[:, 0].copy(), rows[:, 1].copy()
        status = np.full(m, EDGE_DEAD, dtype=np.int8)
        status[rows[:, 3] != 0] = EDGE_MATCHED
        prio = rows[:, 2]
        order = np.argsort(prio)
        ordered = prio[order]
        if np.any(ordered[1:] == ordered[:-1]):
            order = np.argsort(prio, kind="stable")
        ranks = np.empty(m, dtype=np.int64)
        ranks[order] = np.arange(m)
        return MatchingResult(
            status=status,
            edge_u=u,
            edge_v=v,
            ranks=ranks,
            stats=counters.run_stats("mm/incremental", n, m),
        )
    raise InvalidGraphError(f"unknown session problem {problem!r}")


def check_state(state: Dict[str, object], problem: Optional[str] = None) -> Dict[str, object]:
    """Validate a :meth:`~IncrementalMIS.to_state` state (or its ``tolist()``
    form) of *problem* (any, when omitted); return its array form as fresh
    copies.  Shapes, endpoint ranges, ``u < v``, strictly increasing edge
    keys, MIS ranks and status codes and MM ``matched`` flags are checked
    (:class:`~repro.errors.InvalidGraphError`; ranks raise
    :class:`~repro.errors.InvalidOrderingError`).  The stored answer is
    trusted, so a check is O(n + m) numpy with no solve."""
    got = state.get("problem") if isinstance(state, dict) else None
    if got not in ("mis", "matching") or problem not in (None, got):
        raise InvalidGraphError(
            f"expected a {problem or 'mis/matching'} session state, got {got!r}"
        )
    try:
        n = int(state["n"])
        out: Dict[str, object] = {"problem": got, "n": n}
        if got == "mis":
            out["ranks"] = check_ranks(_state_array(state["ranks"], (), "ranks"), n)
        else:
            out["seed"] = int(state.get("seed", 0))
        rows = out["edges"] = _state_array(state["edges"], (2 if got == "mis" else 4,), "edges")
        _state_edges(rows, n)
        if got == "mis":
            status = _state_array(state["status"], (), "status")
            if status.shape != (n,):
                raise InvalidGraphError("state status length does not match n")
            if not bool(np.all((status == IN_SET) | (status == KNOCKED_OUT))):
                raise InvalidGraphError("state status holds a code other than IN_SET/KNOCKED_OUT")
            out["status"] = status.astype(np.int8)
        elif not bool(np.all((rows[:, 3] == 0) | (rows[:, 3] == 1))):
            raise InvalidGraphError("state edges: matched flags must be 0 or 1")
        counters = _DynamicCounters()
        counters.load(dict(state.get("counters", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed {got} session state: {exc!r}") from None
    out["counters"] = counters.aux()
    return out


def initial_state(
    problem: str,
    payload: Union[CSRGraph, EdgeList],
    ranks: Optional[np.ndarray] = None,
    *,
    seed: SeedLike = None,
    solve: Callable[..., Union[MISResult, MatchingResult]] = engine_solve,
) -> Dict[str, object]:
    """Version 0 of a session as :meth:`~IncrementalMIS.to_state` arrays.

    Its answer is sequential greedy's, which every engine returns, so it
    is one ``solve(problem, payload, ranks)`` call (the in-process front
    door by default) plus O(m) numpy.  MIS solves under *ranks* or
    ``random_priorities(n, seed)``.  MM edges take *ranks* (positions in
    ``edge_list()`` order) as priorities, or :func:`edge_priorities` under
    *seed* (0 when omitted), and solve under the dense ``(priority, u,
    v)`` order.
    """
    counters = _DynamicCounters().aux()
    if problem == "mis":
        if not isinstance(payload, CSRGraph):
            raise InvalidGraphError("mis sessions require a CSRGraph payload")
        n = payload.num_vertices
        ranks = check_ranks(random_priorities(n, seed) if ranks is None else ranks, n)
        status = np.array(solve("mis", payload, ranks).status, dtype=np.int8)
        el = payload.edge_list()
        keys = sorted_unique(el.u * n + el.v)
        edges = np.stack((keys // n, keys % n), axis=1)
        return {"problem": "mis", "n": n, "ranks": ranks.copy(), "edges": edges,
                "status": status, "counters": counters}
    if not isinstance(payload, (CSRGraph, EdgeList)):
        raise InvalidGraphError(f"expected CSRGraph or EdgeList, got {type(payload).__name__}")
    el = payload.edge_list() if isinstance(payload, CSRGraph) else payload
    n, m = el.num_vertices, el.num_edges
    seed = int(seed) if seed is not None else 0
    prios = check_ranks(ranks, m) if ranks is not None else edge_priorities(seed, el.u, el.v)
    keys = el.u * n + el.v
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if keys.size > 1 and bool(np.any(keys[1:] == keys[:-1])):
        dup = int(keys[1:][keys[1:] == keys[:-1]][0])
        raise InvalidGraphError(f"duplicate edge {(dup // n, dup % n)} in initial edge list")
    rows = np.stack((el.u[order], el.v[order], prios[order], np.zeros(m, np.int64)), axis=1)
    state = {"problem": "matching", "n": n, "seed": seed, "edges": rows, "counters": counters}
    dense = result_from_state(state)  # the sorted edges, ranked by (priority, u, v)
    status = solve("matching", EdgeList(n, dense.edge_u, dense.edge_v), dense.ranks).status
    rows[:, 3] = status == EDGE_MATCHED
    return state


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

    The initial answer is one in-process solve (:func:`initial_state`),
    adopted as :meth:`from_state` adopts a state; :meth:`apply_batch`
    then re-peels only the affected priority-DAG region per mutation
    batch.

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
        self._adopt(initial_state("mis", graph, ranks, seed=seed))
        self._graph_cache = graph

    def _adopt(self, state: Dict[str, object]) -> None:
        """Take over the arrays of a checked or freshly built *state*."""
        n = self.n = state["n"]
        rows = state["edges"]
        self.ranks = state["ranks"]
        self._rank = self.ranks.tolist()
        #: The live status the peel writes.
        self.status = state["status"]
        #: The edge rows and status of the last fold plus the batches
        #: since; its base status is a copy, which the peel never writes.
        self._overlay = StateOverlay(dict(state, status=self.status.copy()))
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        for a, b in zip(rows[:, 0].tolist(), rows[:, 1].tolist()):
            self._adj[a].add(b)
            self._adj[b].add(a)
        self._graph_cache: Optional[CSRGraph] = None
        self.counters = _DynamicCounters()
        self.counters.load(state["counters"])
        #: ``(v, status)`` of every vertex the last accepted batch flipped.
        self.last_flips: List[Tuple[int, int]] = []

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
        flips, scanned arcs, work ratio); the flipped vertices with their
        new status are left in :attr:`last_flips`.
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
        self._graph_cache = None
        affected, changed, scanned = self._peel(seeds)
        self.last_flips = [(v, int(self.status[v])) for v in changed]
        self._overlay.commit(ins, dels, self.last_flips)
        return self.counters.record(
            inserted=len(ins),
            deleted=len(dels),
            affected=affected,
            flipped=len(changed),
            scanned_arcs=scanned,
            items=self.n,
            arcs=self.m,
        )

    def _peel(self, dirty: Iterable[int]) -> Tuple[int, List[int], int]:
        """Re-peel *dirty* (and everything they flip) in rank order; also
        returns the flipped vertices."""
        rank = self._rank
        status = self.status
        adj = self._adj
        heap = [(rank[v], v) for v in dirty]
        heapq.heapify(heap)
        queued = {v for (_, v) in heap}
        affected = scanned = 0
        changed: List[int] = []
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
            changed.append(v)
            scanned += len(nbrs)
            for w in nbrs:
                if rank[w] > rv and w not in queued:
                    queued.add(w)
                    heapq.heappush(heap, (rank[w], w))
        return affected, changed, scanned

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        """Current edge count."""
        return self._overlay.m

    @property
    def size(self) -> int:
        """Current independent-set size."""
        return self._overlay.size

    def members(self) -> List[int]:
        """Current independent-set vertex ids (sorted)."""
        return np.nonzero(self.status == IN_SET)[0].tolist()

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR (cached between mutations)."""
        if self._graph_cache is None:
            rows = self._overlay.fold()["edges"]
            self._graph_cache = from_edges(self.n, rows[:, 0], rows[:, 1])
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
        invariant for sessions — or if the arrays that :meth:`to_state`
        ships (the overlay folded first) or the ``m``/``size`` counters
        disagree with the adjacency and status the peel walks.
        """
        state = self._overlay.fold()
        rows = state["edges"]
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
        keys = rows[:, 0] * n + rows[:, 1]
        if live != keys.tolist() or not np.array_equal(keys, self._overlay._keys) or not (
            np.array_equal(state["status"], self.status)
        ) or (self.m, self.size) != (len(live), np.count_nonzero(self.status == IN_SET)):
            raise InvariantViolationError(
                "incremental MIS edge arrays or counters disagree with its adjacency"
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
            "edges": self._overlay.fold()["edges"].copy(),
            "status": self.status.copy(),
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMIS":
        """Rebuild a maintainer from :meth:`to_state` output.

        The state (array or ``tolist()`` form) goes through
        :func:`check_state`, so the maintainer never aliases it.  The
        stored status is trusted, so a rebuild is O(n + m) with no
        re-peel; call :meth:`verify` to re-check it.
        """
        obj = cls.__new__(cls)
        obj._adopt(check_state(state, cls.problem))
        return obj


class IncrementalMatching:
    """Maintain the lexicographically-first maximal matching under mutations.

    Edge identity is the canonical pair ``(min(u,v), max(u,v))``; each
    edge owns a priority that never changes while it exists.  Initial
    edges take the caller's rank permutation when given (positions in
    ``graph.edge_list()`` order); otherwise, and for edges inserted
    later, a deterministic priority from :func:`edge_priorities` under
    the session *seed*, so the whole evolution is replayable.  Ties are
    broken by the endpoint pair, making the edge order total.  The
    initial matching is one in-process solve (:func:`initial_state`)
    under that order, adopted as :meth:`from_state` adopts a state.

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
        self._adopt(initial_state("matching", graph_or_edges, ranks, seed=seed))

    def _adopt(self, state: Dict[str, object]) -> None:
        """Take over the rows of a checked or freshly built *state*."""
        n = self.n = state["n"]
        self.seed = state["seed"]
        rows = state["edges"]
        #: The edge rows of the last fold plus the batches since.
        self._overlay = StateOverlay(state)
        self._edges: Dict[EdgePair, List] = {}  # key -> [priority, matched]
        self._incident: List[Set[EdgePair]] = [set() for _ in range(n)]
        for a, b, prio, hit in rows.tolist():
            key = (a, b)
            self._edges[key] = [prio, bool(hit)]
            self._incident[a].add(key)
            self._incident[b].add(key)
        self.counters = _DynamicCounters()
        self.counters.load(state["counters"])
        #: ``(u, v, matched)`` of every edge the last accepted batch flipped.
        self.last_flips: List[Tuple[int, int, int]] = []

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

        Same strictness contract as :meth:`IncrementalMIS.apply_batch`;
        the flipped edges with their new flag are left in
        :attr:`last_flips`.
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
        pairs = np.array(ins, dtype=np.int64).reshape(-1, 2)
        prios = edge_priorities(self.seed, pairs[:, 0], pairs[:, 1]).tolist()
        for key, prio in zip(ins, prios):
            a, b = key
            self._edges[key] = [prio, False]
            self._incident[a].add(key)
            self._incident[b].add(key)
            dirty.add(key)
        affected, flipped, scanned, changed = self._peel(dirty)
        self.last_flips = [(a, b, int(self._edges[(a, b)][1])) for a, b in changed]
        self._overlay.commit(ins, dels, self.last_flips)
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
        return self._overlay.m

    @property
    def size(self) -> int:
        """Current matching size."""
        return self._overlay.size

    def edge_list(self) -> EdgeList:
        """Current edges in canonical ``(u, v)``-sorted order."""
        rows = self._overlay.fold()["edges"]
        return EdgeList(self.n, rows[:, 0].copy(), rows[:, 1].copy())

    def graph(self) -> CSRGraph:
        """The current mutated graph as a CSR."""
        rows = self._overlay.fold()["edges"]
        return from_edges(self.n, rows[:, 0], rows[:, 1])

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
        state rows (the overlay folded first) and the ``m``/``size``
        counters agree with the edge map the peel walks."""
        rows = self._overlay.fold()["edges"]
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
        if live != rows.tolist() or not np.array_equal(
            rows[:, 0] * self.n + rows[:, 1], self._overlay._keys
        ) or (self.m, self.size) != (len(live), sum(hit for _, _, _, hit in live)):
            raise InvariantViolationError(
                "incremental matching edge rows or size disagree with its edge map"
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
            "edges": self._overlay.fold()["edges"].copy(),
            "counters": self.counters.aux(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IncrementalMatching":
        """Rebuild a maintainer from :meth:`to_state` output, checked by
        :func:`check_state` as :meth:`IncrementalMIS.from_state` is."""
        obj = cls.__new__(cls)
        obj._adopt(check_state(state, cls.problem))
        return obj
