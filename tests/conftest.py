"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.core.orderings import ranks_from_permutation
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    rmat_graph,
    star_graph,
    uniform_random_graph,
)

# A profile tuned for this suite: the engine properties run whole
# algorithms per example, so cap examples rather than time out.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def graph_strategy(draw, max_vertices: int = 24, max_extra_edges: int = 60):
    """A small simple undirected graph (possibly disconnected or empty)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    k = draw(st.integers(min_value=0, max_value=max_extra_edges))
    if k and n >= 2:
        u = draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k).map(np.array)
        )
        v = draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k).map(np.array)
        )
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    return from_edges(n, np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))


@st.composite
def graph_with_ranks(draw, max_vertices: int = 24, max_extra_edges: int = 60):
    """A graph plus a priority permutation over its vertices."""
    g = draw(graph_strategy(max_vertices, max_extra_edges))
    perm = draw(st.permutations(range(g.num_vertices)))
    return g, ranks_from_permutation(np.asarray(perm, dtype=np.int64))


@st.composite
def edgelist_with_ranks(draw, max_vertices: int = 16, max_extra_edges: int = 40):
    """An edge list plus a priority permutation over its edges."""
    g = draw(graph_strategy(max_vertices, max_extra_edges))
    el = g.edge_list()
    perm = draw(st.permutations(range(el.num_edges)))
    return el, ranks_from_permutation(np.asarray(perm, dtype=np.int64))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def medium_random_graph() -> CSRGraph:
    """A 3000-vertex, 15000-edge uniform graph shared across modules."""
    return uniform_random_graph(3000, 15000, seed=42)


@pytest.fixture(scope="session")
def medium_rmat_graph() -> CSRGraph:
    """A 2^12-vertex rMat graph with power-law degrees."""
    return rmat_graph(12, 15000, seed=42)


@pytest.fixture(
    params=[
        "path", "cycle", "grid", "star", "complete", "random", "rmat",
        "hypercube", "bipartite",
    ],
    scope="session",
)
def family_graph(request) -> CSRGraph:
    """One representative per structured family (session-cached)."""
    return {
        "path": lambda: path_graph(64),
        "cycle": lambda: cycle_graph(65),
        "grid": lambda: grid_graph(8, 9),
        "star": lambda: star_graph(64),
        "complete": lambda: complete_graph(24),
        "random": lambda: uniform_random_graph(128, 512, seed=7),
        "rmat": lambda: rmat_graph(7, 512, seed=7),
        "hypercube": lambda: hypercube_graph(6),
        "bipartite": lambda: complete_bipartite_graph(12, 20),
    }[request.param]()


def race_the_next_solve(service, monkeypatch) -> None:
    """Arrange the one path that serves ``stale``: the next cache miss
    solves, a concurrent request stores the same content's answer
    meanwhile, and the solve itself fails with ``CircuitOpenError``.

    The answers resident now are taken out of the cache and stored back
    by the patched ``solve``, so the next ``solve_cached`` of one of
    them misses and then re-reads the stored entry.
    """
    from repro.errors import CircuitOpenError

    resident = {key: service.cache.get(key) for key in service.cache.keys()}
    service.cache.clear()

    def racing_solve(request, timeout=None):
        key = service.request_cache_key(request)
        service.cache.put(key, resident[key])
        raise CircuitOpenError("all engines unavailable")

    monkeypatch.setattr(service, "solve", racing_solve)
