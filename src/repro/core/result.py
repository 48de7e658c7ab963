"""Result containers returned by every engine.

A result couples the combinatorial answer (which vertices/edges were
selected) with the :class:`~repro.core.result.RunStats` extracted from the
work--depth machine, so one engine run feeds both verification and the
figure harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.status import EDGE_MATCHED, IN_SET
from repro.pram.machine import Machine

__all__ = ["RunStats", "MISResult", "MatchingResult"]


@dataclass(frozen=True)
class RunStats:
    """Aggregate accounting of one engine run.

    Attributes
    ----------
    algorithm:
        Engine identifier ("mis/sequential", "mm/prefix", ...).
    n, m:
        Input sizes (vertices and undirected edges; for matching over an
        edge list, ``n`` is the vertex count and ``m`` the edge count).
    work:
        Exact operation count charged to the machine.
    depth:
        Sum of per-step depths (unbounded-processor time with barriers).
    steps:
        Number of synchronous steps.  For the step-synchronous parallel
        engines this *is* the dependence length of Theorem 3.5.
    rounds:
        Number of outer rounds (prefix iterations for Algorithm 3, priority
        regeneration rounds for Luby, 1 for single-phase engines).
    prefix_size:
        The prefix engines' configured first window, clamped to the input
        size (``n`` or ``m``): the fixed size, the first entry of a
        ``prefix_sizes`` or Theorem 4.5 schedule, or the default windows'
        target t.  0 for every other engine.
    aux:
        Engine-specific exact counters.  The keys used by the greedy
        engines are ``"slot_scans"`` (priority-order positions examined)
        and ``"item_examinations"`` (live vertices/edges examined across
        all synchronous steps); their sum normalized by input size is the
        paper's "Total work / N" axis, which counts items processed — so
        the sequential schedule measures exactly 1.0 + (set size)/N.
    """

    algorithm: str
    n: int
    m: int
    work: int
    depth: int
    steps: int
    rounds: int
    prefix_size: int = 0
    aux: dict = field(default_factory=dict)

    def normalized_work(self, baseline_work: int) -> float:
        """Work divided by a baseline (the paper's "Total work / N" axis)."""
        if baseline_work <= 0:
            raise ValueError(f"baseline work must be positive, got {baseline_work}")
        return self.work / baseline_work


def stats_from_machine(
    algorithm: str,
    n: int,
    m: int,
    machine: Machine,
    *,
    steps: Optional[int] = None,
    rounds: Optional[int] = None,
    prefix_size: int = 0,
    aux: Optional[dict] = None,
) -> RunStats:
    """Snapshot a machine's counters into an immutable :class:`RunStats`."""
    return RunStats(
        algorithm=algorithm,
        n=int(n),
        m=int(m),
        work=int(machine.work),
        depth=int(machine.depth),
        steps=int(machine.num_steps if steps is None else steps),
        rounds=int(machine.num_rounds if rounds is None else rounds),
        prefix_size=int(prefix_size),
        aux=dict(aux or {}),
    )


@dataclass
class MISResult:
    """Output of an MIS engine.

    Attributes
    ----------
    status:
        ``int8`` array over vertices with values from
        :mod:`repro.core.status` (``IN_SET`` / ``KNOCKED_OUT``; engines
        always terminate with no ``UNDECIDED`` entries).
    ranks:
        The priority array the run used (what makes the result
        reproducible and schedule-independent).
    stats:
        Work/depth/step accounting.
    machine:
        The machine carrying the full step trace, when the caller supplied
        or requested one (``None`` after trace-free runs).
    """

    status: np.ndarray
    ranks: np.ndarray
    stats: RunStats
    machine: Optional[Machine] = None

    @property
    def in_set(self) -> np.ndarray:
        """Boolean membership mask of the independent set."""
        return self.status == IN_SET

    @property
    def vertices(self) -> np.ndarray:
        """Sorted vertex ids of the independent set."""
        return np.nonzero(self.in_set)[0]

    @property
    def size(self) -> int:
        """Cardinality of the independent set."""
        return int(np.count_nonzero(self.in_set))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MISResult(size={self.size}, algorithm={self.stats.algorithm!r}, "
            f"steps={self.stats.steps}, work={self.stats.work})"
        )


@dataclass
class MatchingResult:
    """Output of a maximal-matching engine.

    Attributes
    ----------
    status:
        ``int8`` array over edge ids (``EDGE_MATCHED`` / ``EDGE_DEAD``).
    edge_u, edge_v:
        Endpoint arrays defining the edge numbering the run used.
    ranks:
        Edge priority array.
    stats, machine:
        As in :class:`MISResult`.
    """

    status: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    ranks: np.ndarray
    stats: RunStats
    machine: Optional[Machine] = None

    @property
    def matched(self) -> np.ndarray:
        """Boolean mask over edge ids of matched edges."""
        return self.status == EDGE_MATCHED

    @property
    def edges(self) -> np.ndarray:
        """Matched edge ids, sorted."""
        return np.nonzero(self.matched)[0]

    @property
    def pairs(self) -> np.ndarray:
        """Matched endpoint pairs, shape ``(k, 2)`` with ``u < v`` rows."""
        ids = self.edges
        return np.stack([self.edge_u[ids], self.edge_v[ids]], axis=1)

    @property
    def size(self) -> int:
        """Number of matched edges."""
        return int(np.count_nonzero(self.matched))

    def vertex_cover_mask(self) -> np.ndarray:
        """Vertices touched by the matching (a 2-approximate vertex cover).

        A classic application: the endpoints of any maximal matching form
        a vertex cover at most twice the optimum.
        """
        n = int(max(self.edge_u.max(initial=-1), self.edge_v.max(initial=-1))) + 1
        mask = np.zeros(n, dtype=bool)
        ids = self.edges
        mask[self.edge_u[ids]] = True
        mask[self.edge_v[ids]] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MatchingResult(size={self.size}, algorithm={self.stats.algorithm!r}, "
            f"steps={self.stats.steps}, work={self.stats.work})"
        )
