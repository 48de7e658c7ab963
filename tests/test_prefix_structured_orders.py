"""Prefix engines equal sequential greedy under structured priority orders.

The prefix engines walk π in order and map positions back to vertex and
edge ids.  Under the identity order a position *is* an id, so a slip in
that mapping is invisible there, and under random orders most windows
settle in one step; the reversed order and the long dependence chains
that paths, grids and stars form under identity and reversed orders are
what expose it.  Every prefix size that changes the window shape is
covered: one slot, two, the default, the whole order, past its end, and
the adaptive Theorem 4.5 schedule.  The default windows grow while the
order thins and stop at t undecided items; the hub-first star (a window
of knocked-out leaves after another) and the star-then-path order (grown
windows that then meet a dependence chain) drive both.
"""

import re

import numpy as np
import pytest

from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.matching.sequential import sequential_greedy_matching
from repro.core.mis.prefix import (
    prefix_greedy_mis,
    theorem45_prefix_mis,
    theorem45_prefix_sizes,
)
from repro.core.mis.sequential import sequential_greedy_mis
from repro.core.orderings import random_priorities
from repro.errors import InvariantViolationError
from repro.graphs.builders import from_edges
from repro.graphs.generators import (
    empty_graph,
    grid_graph,
    path_graph,
    star_graph,
    uniform_random_graph,
)
from repro.robustness import ChaosInjector, FaultSpec

GRAPHS = {
    "path": path_graph(37),
    "grid": grid_graph(6, 7),
    "star": star_graph(12),
    # A path over the odd vertices; the even ones are isolated.
    "isolated": from_edges(
        20, np.arange(1, 17, 2, dtype=np.int64), np.arange(3, 19, 2, dtype=np.int64)
    ),
    "edgeless": empty_graph(5),
    "empty": empty_graph(0),
    # Under identity: the hub, then its leaves.
    "hub-first-star": star_graph(400),
    # Under identity: hub 0, its 150 leaves, then a 150-vertex path.
    "star-then-path": from_edges(
        301,
        np.concatenate([np.zeros(150, dtype=np.int64),
                        np.arange(151, 300, dtype=np.int64)]),
        np.concatenate([np.arange(1, 151, dtype=np.int64),
                        np.arange(152, 301, dtype=np.int64)]),
    ),
}

ORDERS = {
    "identity": lambda size: np.arange(size, dtype=np.int64),
    "reversed": lambda size: np.arange(size, dtype=np.int64)[::-1].copy(),
    "random": lambda size: random_priorities(size, seed=size),
}

#: Prefix knobs as a function of the order's length and the max degree.
PREFIXES = {
    "k1": lambda size, deg: {"prefix_size": 1},
    "k2": lambda size, deg: {"prefix_size": 2},
    "default": lambda size, deg: {},
    "whole": lambda size, deg: {"prefix_size": max(size, 1)},
    "beyond": lambda size, deg: {"prefix_size": size + 3},
    "thm45": lambda size, deg: {"prefix_sizes": theorem45_prefix_sizes(size, deg)},
}


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", GRAPHS)
def test_prefix_mis_equals_sequential(name, order, prefix):
    g = GRAPHS[name]
    n = g.num_vertices
    ranks = ORDERS[order](n)
    ref = sequential_greedy_mis(g, ranks)
    res = prefix_greedy_mis(g, ranks, **PREFIXES[prefix](n, g.max_degree()))
    assert np.array_equal(res.status, ref.status)
    assert np.array_equal(res.ranks, ranks)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", GRAPHS)
def test_theorem45_mis_equals_sequential(name, order):
    g = GRAPHS[name]
    ranks = ORDERS[order](g.num_vertices)
    ref = sequential_greedy_mis(g, ranks)
    assert np.array_equal(theorem45_prefix_mis(g, ranks).status, ref.status)


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", GRAPHS)
def test_prefix_mm_equals_sequential(name, order, prefix):
    g = GRAPHS[name]
    el = g.edge_list()
    m = el.num_edges
    ranks = ORDERS[order](m)
    ref = sequential_greedy_matching(el, ranks)
    res = prefix_greedy_matching(el, ranks, **PREFIXES[prefix](m, g.max_degree()))
    assert np.array_equal(res.status, ref.status)
    assert np.array_equal(res.ranks, ranks)
    assert res.edge_u is el.u and res.edge_v is el.v


def test_mm_guard_failure_names_a_pi_position():
    """MM guards watch the engine's relabelled instance, where edge ``p``
    is the edge of rank ``p``; a violation says so, so the edge it names
    is found through π."""
    el = uniform_random_graph(250, 750, seed=11).edge_list()
    ranks = random_priorities(el.num_edges, seed=4)
    with pytest.raises(InvariantViolationError, match="π positions") as info:
        with ChaosInjector(FaultSpec("min-lift", seed=0, after=0)):
            prefix_greedy_matching(el, ranks, guards="full")
    p = int(re.search(r"edge (\d+)", str(info.value)).group(1))
    assert np.count_nonzero(ranks == p) == 1
