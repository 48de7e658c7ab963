"""Every front-door method rejects malformed graphs and orderings.

The corruption helpers build CSR shells that bypass the constructor's own
validation — exactly the scenario (mmap'd file, buggy transform, bit rot)
the front-door re-checks exist for.  The ``parallel-vec`` rank cases call
the unregistered engines directly: no front door selects them, but the
benchmark's traced replay still hands them a caller's π.
"""

import numpy as np
import pytest

from repro.core.matching.api import MM_METHODS, maximal_matching
from repro.core.matching.parallel_vectorized import parallel_matching_vectorized
from repro.core.mis.api import MIS_METHODS, maximal_independent_set
from repro.core.mis.parallel_vectorized import parallel_mis_vectorized
from repro.core.orderings import random_priorities
from repro.errors import EngineError, InvalidGraphError, InvalidOrderingError
from repro.graphs.csr import EdgeList
from repro.graphs.generators import uniform_random_graph
from repro.robustness import GRAPH_FAULTS, corrupt_graph, corrupt_ranks

G = uniform_random_graph(120, 360, seed=9)


def _solver(problem, method):
    """The front door for a registered *method*; for ``parallel-vec``,
    the unregistered engine itself, on one worker."""
    if method == "parallel-vec":
        engine = (parallel_mis_vectorized if problem == "mis"
                  else parallel_matching_vectorized)
        return lambda payload, ranks=None, **kw: engine(
            payload, ranks, workers=1, **kw
        )
    front_door = (maximal_independent_set if problem == "mis"
                  else maximal_matching)
    return lambda payload, ranks=None, **kw: front_door(
        payload, ranks, method=method, **kw
    )


@pytest.mark.parametrize("method", MIS_METHODS)
@pytest.mark.parametrize("kind", GRAPH_FAULTS)
def test_mis_methods_reject_malformed_csr(method, kind):
    bad = corrupt_graph(G, kind, seed=2)
    with pytest.raises(InvalidGraphError):
        maximal_independent_set(bad, method=method)


@pytest.mark.parametrize("method", MM_METHODS)
@pytest.mark.parametrize("kind", GRAPH_FAULTS)
def test_mm_methods_reject_malformed_csr(method, kind):
    bad = corrupt_graph(G, kind, seed=2)
    with pytest.raises(InvalidGraphError):
        maximal_matching(bad, method=method)


def _asymmetric_graph():
    """Arcs 0->1 and 2->3 without their reverses: even arc count, monotone
    offsets, in-range neighbors — only the symmetry check can see it."""
    from repro.graphs.csr import CSRGraph

    g = CSRGraph.__new__(CSRGraph)  # bypass constructor validation
    g.offsets = np.array([0, 1, 1, 2, 2], dtype=np.int64)
    g.neighbors = np.array([1, 3], dtype=np.int64)
    g._edge_list = None
    return g


@pytest.mark.parametrize("method", MIS_METHODS)
def test_mis_methods_reject_asymmetric_graph_under_full_guards(method):
    with pytest.raises(InvalidGraphError):
        maximal_independent_set(_asymmetric_graph(), method=method,
                                guards="full")


@pytest.mark.parametrize("method", MM_METHODS)
def test_mm_methods_reject_asymmetric_graph_under_full_guards(method):
    with pytest.raises(InvalidGraphError):
        maximal_matching(_asymmetric_graph(), method=method, guards="full")


@pytest.mark.parametrize(
    "method", [m for m in MIS_METHODS if m != "luby"] + ["parallel-vec"]
)
def test_mis_methods_reject_bad_ranks(method):
    bad = corrupt_ranks(random_priorities(G.num_vertices, seed=1), "rank-dup")
    with pytest.raises(InvalidOrderingError):
        _solver("mis", method)(G, bad)


@pytest.mark.parametrize("method", [*MM_METHODS, "parallel-vec"])
def test_mm_methods_reject_bad_ranks(method):
    el = G.edge_list()
    bad = corrupt_ranks(random_priorities(el.num_edges, seed=1), "rank-short")
    with pytest.raises(InvalidOrderingError):
        _solver("matching", method)(el, bad)


def test_luby_rank_corruption_still_detected_before_luby_check():
    # Even for luby (which forbids ranks entirely) a corrupted array is
    # reported as an ordering problem, not hidden behind the luby error.
    bad = corrupt_ranks(random_priorities(G.num_vertices, seed=1), "rank-nan")
    with pytest.raises(InvalidOrderingError):
        maximal_independent_set(G, bad, method="luby")


def test_mm_rejects_noncanonical_edge_list():
    el = G.edge_list()
    swapped = EdgeList.__new__(EdgeList)  # bypass constructor validation
    swapped.u = el.v.copy()  # u > v breaks the canonical form
    swapped.v = el.u.copy()
    swapped.num_vertices = el.num_vertices
    swapped._inc_offsets = None
    swapped._inc_edges = None
    with pytest.raises(InvalidGraphError):
        maximal_matching(swapped, method="rootset-vec")


def test_front_doors_reject_wrong_container_types():
    with pytest.raises((EngineError, AttributeError, TypeError)):
        maximal_matching([(0, 1), (1, 2)])
    with pytest.raises((EngineError, AttributeError, TypeError)):
        maximal_independent_set(np.zeros((3, 3)))


@pytest.mark.parametrize("problem", ["mis", "matching"])
@pytest.mark.parametrize("kind", ["array", "view", "memmap"])
def test_results_own_their_pi(problem, kind, tmp_path):
    """A contiguous int64 π passes the rank check uncopied (a view or a
    memory map as the very memory the caller holds); the result must
    still not alias it, or mutating π after the solve rewrites the
    result.  Both front doors and ``repro.solve`` share this path."""
    from repro import solve

    payload = G if problem == "mis" else G.edge_list()
    size = G.num_vertices if problem == "mis" else G.num_edges
    front_door = (maximal_independent_set if problem == "mis"
                  else maximal_matching)
    pi = np.random.default_rng(3).permutation(size)
    if kind == "view":
        pi = np.concatenate([pi, [size]])[:size]
    elif kind == "memmap":
        mapped = np.memmap(tmp_path / "pi.bin", dtype=np.int64, mode="w+",
                           shape=(size,))
        mapped[:] = pi
        pi = mapped
    for entry in (front_door, lambda p, r: solve(problem, p, r)):
        result = entry(payload, pi)
        ranks, status = result.ranks.copy(), result.status.copy()
        assert result.ranks is not pi
        assert not np.shares_memory(result.ranks, pi)
        pi[:] = pi[::-1]
        assert np.array_equal(result.ranks, ranks)
        assert np.array_equal(result.status, status)


def _count_rank_checks(monkeypatch):
    """Route every module-level binding of the rank check, and of the
    checked scatter that runs it, through a counter; returns the list it
    appends each checked size to."""
    import sys

    from repro.core import engines, orderings

    for problem in engines.PROBLEMS:
        for spec in engines.engine_specs(problem):
            spec.resolve()  # engine modules load lazily
    calls = []

    def counter(original):
        def counted(ranks, n, *args):
            calls.append(n)
            return original(ranks, n, *args)
        return counted

    checks = {
        orderings.validate_priorities: ("validate_priorities", "check_ranks"),
        orderings.scatter_by_priority: ("scatter_by_priority",),
    }
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for original, attrs in checks.items():
            for attr in attrs:
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counter(original))
    return calls


@pytest.mark.parametrize(
    "problem, method",
    [("mis", m) for m in [*MIS_METHODS, "parallel-vec"]]
    + [("matching", m) for m in [*MM_METHODS, "parallel-vec"]],
)
def test_one_rank_check_per_solve(problem, method, monkeypatch):
    """A front-door solve checks a caller's π once (at the engine's
    boundary) and a π the engine draws from a seed not at all."""
    payload = G if problem == "mis" else G.edge_list()
    size = G.num_vertices if problem == "mis" else G.num_edges
    run = _solver(problem, method)
    calls = _count_rank_checks(monkeypatch)
    run(payload, seed=1)
    assert calls == []
    if method == "luby":
        with pytest.raises(EngineError, match="ignores ranks"):
            run(payload, random_priorities(size, seed=1))
    else:
        run(payload, random_priorities(size, seed=1))
    assert calls == [size]
