"""Deterministic reservations: the generic prefix-speculation framework.

The paper's implementations (and the PBBS suite built by its authors)
execute greedy loops with a common pattern the companion PPoPP'12 paper
names *deterministic reservations*: take a prefix of the iteration order,
let every iterate speculatively **reserve** the shared state it needs via
priority write-min, then **commit** the iterates whose reservations held;
losers retry in the next round together with fresh prefix items.  Because
reservations resolve by iteration priority, the final state equals the
sequential loop's — determinism for free.

This module provides the generic engine, :func:`speculative_for`, plus
MIS and maximal-matching instantiations used to cross-validate the
dedicated engines in :mod:`repro.core` (they must agree exactly — the
property suite enforces it).

An iterate's step callbacks:

``reserve(i) -> bool``
    Attempt reservations for iterate *i*; return ``False`` to declare the
    iterate already settled with no commit needed (it leaves the round).
``commit(i) -> bool``
    Return ``True`` if the iterate finished (committed or discovered it
    is dead); ``False`` to retry next round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    validate_priorities,
)
from repro.core.result import MatchingResult, MISResult, stats_from_machine
from repro.core.status import (
    EDGE_DEAD,
    EDGE_LIVE,
    EDGE_MATCHED,
    IN_SET,
    KNOCKED_OUT,
    UNDECIDED,
    new_edge_status,
    new_vertex_status,
)
from repro.errors import EngineError
from repro.graphs.csr import CSRGraph, EdgeList
from repro.pram.machine import Machine, log2_depth
from repro.util.rng import SeedLike
from repro.util.validation import check_positive_int

__all__ = ["speculative_for", "reservation_mis", "reservation_matching"]


def speculative_for(
    num_items: int,
    reserve: Callable[[int], bool],
    commit: Callable[[int], bool],
    *,
    granularity: int,
    machine: Optional[Machine] = None,
    max_rounds: Optional[int] = None,
) -> int:
    """Run the deterministic-reservations loop; return the round count.

    Items are processed in index order (pre-permute your data so that the
    index *is* the priority).  Each round handles a window of up to
    *granularity* unfinished items: the lowest-priority-index survivors of
    previous rounds plus fresh items.

    Parameters
    ----------
    num_items:
        Number of iterates.
    reserve, commit:
        Per-item callbacks (see module docstring).
    granularity:
        Window size — the prefix-size dial, same trade-off as Algorithm 3.
    machine:
        Charged one step per phase per round (work = window size).
    max_rounds:
        Safety valve; a framework user whose commit never succeeds would
        otherwise loop forever.  Defaults to ``4 * num_items + 16``.
    """
    granularity = check_positive_int(granularity, "granularity")
    if max_rounds is None:
        max_rounds = 4 * num_items + 16
    active: list = []
    next_fresh = 0
    rounds = 0
    while active or next_fresh < num_items:
        rounds += 1
        if rounds > max_rounds:
            raise EngineError(
                f"speculative_for exceeded {max_rounds} rounds; "
                "commit() appears to never succeed for some iterate"
            )
        if machine is not None:
            machine.begin_round()
        while len(active) < granularity and next_fresh < num_items:
            active.append(next_fresh)
            next_fresh += 1
        window = active
        needs_commit = [i for i in window if reserve(i)]
        settled = set(window) - set(needs_commit)
        retry = [i for i in needs_commit if not commit(i)]
        if machine is not None:
            machine.charge(len(window), log2_depth(max(len(window), 2)), tag="reserve")
            machine.charge(
                max(len(needs_commit), 1),
                log2_depth(max(len(needs_commit), 2)),
                tag="commit",
            )
        # Preserve priority order among retries.
        active = retry
    return rounds


def reservation_mis(
    graph: CSRGraph,
    ranks: Optional[np.ndarray] = None,
    *,
    granularity: Optional[int] = None,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> MISResult:
    """MIS through :func:`speculative_for` (PBBS ``incrementalMIS`` style).

    Reserve phase: a vertex inspects its earlier neighbors — if any is in
    the set it settles as knocked out; if all are out (or none exist) it
    settles into the set; otherwise it must retry.  There is no shared
    write to reserve, so ``commit`` is trivially "did reserve settle me".
    Returns the lexicographically-first MIS for *ranks*.
    """
    n = graph.num_vertices
    if ranks is None:
        ranks = random_priorities(n, seed)
    else:
        ranks = validate_priorities(ranks, n)
    if machine is None:
        machine = Machine()
    if granularity is None:
        granularity = max(1, n // 50)

    status = new_vertex_status(n)
    perm = permutation_from_ranks(ranks)
    offsets, neighbors = graph.offsets, graph.neighbors

    def reserve(i: int) -> bool:
        v = int(perm[i])
        if status[v] != UNDECIDED:
            return False
        nbrs = neighbors[offsets[v]:offsets[v + 1]]
        earlier = nbrs[ranks[nbrs] < ranks[v]]
        if earlier.size and bool((status[earlier] == IN_SET).any()):
            status[v] = KNOCKED_OUT
            return False
        if earlier.size == 0 or bool((status[earlier] != UNDECIDED).all()):
            status[v] = IN_SET
            return False
        return True  # blocked on an undecided earlier neighbor -> commit phase

    def commit(i: int) -> bool:
        return False  # blocked vertices always retry next round

    rounds = speculative_for(
        n, reserve, commit, granularity=granularity, machine=machine
    )
    stats = stats_from_machine(
        "mis/reservations", n, graph.num_edges, machine,
        steps=rounds, rounds=rounds, prefix_size=granularity,
    )
    return MISResult(status=status, ranks=ranks, stats=stats, machine=machine)


def reservation_matching(
    edges: EdgeList,
    ranks: Optional[np.ndarray] = None,
    *,
    granularity: Optional[int] = None,
    seed: SeedLike = None,
    machine: Optional[Machine] = None,
) -> MatchingResult:
    """Maximal matching through :func:`speculative_for` (PBBS ``matching``).

    Reserve: a live edge write-mins its priority index onto both endpoint
    cells.  Commit: if it holds both cells it matches; if an endpoint got
    matched by someone else it dies; otherwise retry.  Returns the
    lexicographically-first matching for *ranks*.
    """
    m = edges.num_edges
    n = edges.num_vertices
    if ranks is None:
        ranks = random_priorities(m, seed)
    else:
        ranks = validate_priorities(ranks, m)
    if machine is None:
        machine = Machine()
    if granularity is None:
        granularity = max(1, m // 50)

    status = new_edge_status(m)
    perm = permutation_from_ranks(ranks)
    eu, ev = edges.u, edges.v
    matched_v = np.zeros(n, dtype=bool)
    reservation = np.full(n, m, dtype=np.int64)  # holds priority indices

    def reserve(i: int) -> bool:
        e = int(perm[i])
        if status[e] != EDGE_LIVE:
            return False
        a, b = int(eu[e]), int(ev[e])
        if matched_v[a] or matched_v[b]:
            status[e] = EDGE_DEAD
            return False
        if i < reservation[a]:
            reservation[a] = i
        if i < reservation[b]:
            reservation[b] = i
        return True

    def commit(i: int) -> bool:
        e = int(perm[i])
        a, b = int(eu[e]), int(ev[e])
        holds_a = reservation[a] == i
        holds_b = reservation[b] == i
        # Release this iterate's holds in every branch — a stale hold from
        # a settled edge would block every later contender forever.
        if holds_a:
            reservation[a] = m
        if holds_b:
            reservation[b] = m
        if matched_v[a] or matched_v[b]:
            status[e] = EDGE_DEAD
            return True
        if holds_a and holds_b:
            status[e] = EDGE_MATCHED
            matched_v[a] = True
            matched_v[b] = True
            return True
        return False

    rounds = speculative_for(
        m, reserve, commit, granularity=granularity, machine=machine
    )
    stats = stats_from_machine(
        "mm/reservations", n, m, machine,
        steps=rounds, rounds=rounds, prefix_size=granularity,
    )
    return MatchingResult(
        status=status, edge_u=eu, edge_v=ev, ranks=ranks,
        stats=stats, machine=machine,
    )
