"""Invariant-guarded execution: per-round corruption detectors.

The paper's headline experimental claim is that every schedule returns
*the same* MIS/matching for a fixed priority order.  Nothing about the
engines defends that property at runtime: a corrupted frontier kernel or a
flipped status byte would propagate to a wrong-but-plausible answer.  The
guards here are the runtime defense, with three modes:

``off``
    No checks, no overhead — the default everywhere.
``cheap``
    O(frontier) structural checks per round: frontier distinctness, status
    consistency of accepted/knocked items, strictly monotone undecided
    count, and a termination check that nothing is left undecided.
``full``
    Everything in ``cheap``, plus the per-round *priority* invariants —
    an accepted MIS root must have no accepted neighbor and no earlier
    undecided neighbor; a matched edge must dominate every earlier live
    edge at both endpoints — and a final O(n + m) lexicographically-first
    fixed-point check against the order.  Total added cost stays
    O(n + m) per run (each item's neighborhood is inspected once, at the
    round it is decided).

Any violated invariant raises
:class:`~repro.errors.InvariantViolationError` naming the engine and
round.  Guards are pure observers: they never mutate engine state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.status import EDGE_DEAD, EDGE_LIVE, IN_SET, UNDECIDED
from repro.errors import EngineError, InvariantViolationError
from repro.graphs.csr import CSRGraph, EdgeList
from repro.util.arrays import sorted_unique

__all__ = [
    "GUARD_MODES",
    "resolve_guard_mode",
    "MISInvariantGuard",
    "MatchingInvariantGuard",
    "mis_guard",
    "matching_guard",
]

#: Accepted values of every engine's ``guards=`` knob.
GUARD_MODES = ("off", "cheap", "full")


def resolve_guard_mode(mode: Optional[str]) -> str:
    """Normalize a ``guards=`` argument (``None`` means ``"off"``)."""
    if mode is None:
        return "off"
    if mode not in GUARD_MODES:
        raise EngineError(
            f"unknown guard mode {mode!r}; expected one of {GUARD_MODES}"
        )
    return mode


def _distinct(items: np.ndarray) -> bool:
    return sorted_unique(items).size == items.size


class MISInvariantGuard:
    """Round-by-round invariant checks for the greedy MIS engines.

    One guard instance observes one run.  Engines call
    :meth:`check_roots` just before accepting a step's root set,
    :meth:`check_step` after the knockouts, and :meth:`finalize` once the
    frontier drains.
    """

    __slots__ = ("graph", "ranks", "mode", "engine", "_undecided", "_round")

    def __init__(
        self, graph: CSRGraph, ranks: np.ndarray, mode: str, engine: str
    ) -> None:
        self.graph = graph
        self.ranks = ranks
        self.mode = mode
        self.engine = engine
        self._undecided = graph.num_vertices
        self._round = 0

    def _fail(self, message: str) -> None:
        raise InvariantViolationError(
            f"{self.engine}: round {self._round}: {message}"
        )

    def check_roots(self, status: np.ndarray, roots: np.ndarray) -> None:
        """Validate a root set about to be accepted (still undecided)."""
        roots = np.asarray(roots)
        if not _distinct(roots):
            self._fail("root frontier contains duplicate vertices")
        if roots.size and np.any(status[roots] != UNDECIDED):
            bad = int(roots[status[roots] != UNDECIDED][0])
            self._fail(f"root {bad} is already decided (status {int(status[bad])})")
        if self.mode == "full" and roots.size:
            own, nb = self.graph.gather(roots)
            if np.any(status[nb] == IN_SET):
                v = int(own[status[nb] == IN_SET][0])
                self._fail(f"root {v} has a neighbor already in the set")
            early = (status[nb] == UNDECIDED) & (self.ranks[nb] < self.ranks[own])
            if np.any(early):
                v = int(own[early][0])
                self._fail(
                    f"root {v} accepted while an earlier neighbor is undecided"
                )

    def check_step(
        self,
        status: np.ndarray,
        roots: np.ndarray,
        knocked: np.ndarray,
        *,
        knocked_distinct: bool = True,
    ) -> None:
        """Validate the state after a step's accepts and knockouts.

        *knocked_distinct* is the engine's claim; engines whose knockout
        stream legitimately repeats vertices (the prefix peelers) pass
        ``False`` and the guard deduplicates for its accounting instead of
        treating repeats as corruption.
        """
        roots = np.asarray(roots)
        knocked = np.asarray(knocked)
        if knocked_distinct:
            if not _distinct(knocked):
                self._fail("knocked frontier contains duplicate vertices")
        else:
            knocked = sorted_unique(knocked)
        if knocked.size and np.any(status[knocked] == UNDECIDED):
            bad = int(knocked[status[knocked] == UNDECIDED][0])
            self._fail(f"knocked vertex {bad} is still undecided after the step")
        decided = int(roots.size) + int(knocked.size)
        if decided <= 0:
            self._fail("step decided no vertices (no progress)")
        self._undecided -= decided
        if self._undecided < 0:
            self._fail(
                "more vertices decided than ever existed "
                "(undecided counter went negative)"
            )
        if self.mode == "full":
            actual = int(np.count_nonzero(status == UNDECIDED))
            if actual != self._undecided:
                self._fail(
                    f"undecided recount mismatch: counter says {self._undecided}, "
                    f"status array says {actual}"
                )
        self._round += 1

    def finalize(self, status: np.ndarray) -> None:
        """Validate the terminal state of the run."""
        undecided = int(np.count_nonzero(status == UNDECIDED))
        if undecided:
            v = int(np.flatnonzero(status == UNDECIDED)[0])
            self._fail(
                f"run terminated with {undecided} undecided vertices (first: {v})"
            )
        if self.mode == "full":
            from repro.core.mis.verify import is_lexicographically_first_mis

            if not is_lexicographically_first_mis(
                self.graph, self.ranks, status == IN_SET
            ):
                self._fail(
                    "output is not the lexicographically-first MIS for the order"
                )


class MatchingInvariantGuard:
    """Round-by-round invariant checks for the greedy matching engines."""

    __slots__ = ("edges", "ranks", "mode", "engine", "_live", "_round")

    def __init__(
        self, edges: EdgeList, ranks: np.ndarray, mode: str, engine: str
    ) -> None:
        self.edges = edges
        self.ranks = ranks
        self.mode = mode
        self.engine = engine
        self._live = edges.num_edges
        self._round = 0

    def _fail(self, message: str) -> None:
        raise InvariantViolationError(
            f"{self.engine}: round {self._round}: {message}"
        )

    def check_ready(
        self,
        status: np.ndarray,
        ready: np.ndarray,
        matched_v: np.ndarray,
    ) -> None:
        """Validate a ready set about to be matched (edges still live)."""
        ready = np.asarray(ready)
        if not _distinct(ready):
            self._fail("ready set contains duplicate edges")
        if ready.size == 0:
            return
        if np.any(status[ready] != EDGE_LIVE):
            bad = int(ready[status[ready] != EDGE_LIVE][0])
            self._fail(f"ready edge {bad} is not live (status {int(status[bad])})")
        ends = np.concatenate([self.edges.u[ready], self.edges.v[ready]])
        if not _distinct(ends):
            self._fail("two ready edges share an endpoint")
        if np.any(matched_v[ends]):
            w = int(ends[matched_v[ends]][0])
            self._fail(f"ready edge touches already-matched vertex {w}")
        if self.mode == "full":
            self._check_rank_minimal(status, ready)

    def _check_rank_minimal(self, status: np.ndarray, ready: np.ndarray) -> None:
        """Every earlier edge incident on a ready endpoint must be dead.

        This is the Lemma 5.2/5.3 invariant that the lazy-deletion cursors
        exist to maintain; an off-by-one cursor advance breaks exactly it.
        Each endpoint is matched at most once per run, so the total cost
        of these gathers is O(m).
        """
        from repro.kernels import frontier_gather

        inc_off, inc_eids = self.edges.incidence()
        ends = np.concatenate([self.edges.u[ready], self.edges.v[ready]])
        end_rank = np.concatenate([self.ranks[ready], self.ranks[ready]])
        vrank = np.empty(self.edges.num_vertices, dtype=np.int64)
        vrank[ends] = end_rank
        owner, slots = frontier_gather(inc_off, inc_eids, ends, need_owner=True)
        if slots.size == 0:
            return
        earlier = self.ranks[slots] < vrank[owner]
        bad = earlier & (status[slots] != EDGE_DEAD)
        if np.any(bad):
            e = int(slots[bad][0])
            self._fail(
                f"matched edge is dominated: earlier incident edge {e} "
                f"is not dead"
            )

    def check_step(
        self,
        status: np.ndarray,
        ready: np.ndarray,
        killed: np.ndarray,
        *,
        killed_distinct: bool = True,
    ) -> None:
        """Validate the state after a step's matches and lazy deletions."""
        ready = np.asarray(ready)
        killed = np.asarray(killed)
        if killed_distinct:
            if not _distinct(killed):
                self._fail("killed frontier contains duplicate edges")
        else:
            killed = sorted_unique(killed)
        if killed.size and np.any(status[killed] != EDGE_DEAD):
            bad = int(killed[status[killed] != EDGE_DEAD][0])
            self._fail(f"killed edge {bad} is not dead after the step")
        decided = int(ready.size) + int(killed.size)
        if decided <= 0:
            self._fail("step decided no edges (no progress)")
        self._live -= decided
        if self._live < 0:
            self._fail(
                "more edges decided than ever existed (live counter went negative)"
            )
        if self.mode == "full":
            actual = int(np.count_nonzero(status == EDGE_LIVE))
            if actual != self._live:
                self._fail(
                    f"live recount mismatch: counter says {self._live}, "
                    f"status array says {actual}"
                )
        self._round += 1

    def finalize(self, status: np.ndarray) -> None:
        """Validate the terminal state (after the final live→dead sweep)."""
        live = int(np.count_nonzero(status == EDGE_LIVE))
        if live:
            self._fail(f"run terminated with {live} edges still live")
        if self.mode == "full":
            from repro.core.matching.verify import (
                is_lexicographically_first_matching,
            )
            from repro.core.status import EDGE_MATCHED

            if not is_lexicographically_first_matching(
                self.edges, self.ranks, status == EDGE_MATCHED
            ):
                self._fail(
                    "output is not the lexicographically-first matching "
                    "for the order"
                )


def mis_guard(
    mode: Optional[str], graph: CSRGraph, ranks: np.ndarray, engine: str
) -> Optional[MISInvariantGuard]:
    """Build an MIS guard, or ``None`` when *mode* resolves to ``off``."""
    mode = resolve_guard_mode(mode)
    if mode == "off":
        return None
    return MISInvariantGuard(graph, ranks, mode, engine)


def matching_guard(
    mode: Optional[str], edges: EdgeList, ranks: np.ndarray, engine: str
) -> Optional[MatchingInvariantGuard]:
    """Build a matching guard, or ``None`` when *mode* resolves to ``off``."""
    mode = resolve_guard_mode(mode)
    if mode == "off":
        return None
    return MatchingInvariantGuard(edges, ranks, mode, engine)
