"""The default prefix windows follow the order's undecided share.

With no prefix knob set, both prefix engines size each window from the
one before it (:func:`repro.core.mis.prefix.default_window`): windows
grow as the remaining order thins, at most doubling from one window to
the next, and a window that meets more than t undecided items (t =
``n // 50``, ``m // 50`` for MM) ends just after its t-th one.  Explicit
knobs keep the fixed windows that Figures 1–4 sweep.  The windows are
read from the run itself: every window charges one ``"scan"`` step of
its slot count, and the tracer's first ``round`` event after it is the
window's first inner step.
"""

import math

import numpy as np
import pytest

from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.mis.prefix import (
    default_window,
    prefix_greedy_mis,
    resolve_prefix_size,
    theorem45_prefix_mis,
    theorem45_prefix_sizes,
)
from repro.core.orderings import random_priorities
from repro.graphs.builders import from_edges
from repro.graphs.generators import cycle_graph, uniform_random_graph
from repro.observability import MemorySink, Tracer


def star_then_path(leaves: int, path: int):
    """Hub 0 and its leaves ``1..leaves``, then a path on the next *path*
    vertices: under the identity order, windows grow through the knocked
    out leaves and then meet a dependence chain."""
    hub = np.zeros(leaves, dtype=np.int64)
    tips = np.arange(1, leaves + 1, dtype=np.int64)
    a = np.arange(leaves + 1, leaves + path, dtype=np.int64)
    return from_edges(leaves + 1 + path, np.concatenate([hub, a]),
                      np.concatenate([tips, a + 1]))


STAR_THEN_PATH = star_then_path(600, 600)
SPARSE = uniform_random_graph(4000, 12000, seed=5)
# Hub 0 with leaves 1..1400, and 100 disjoint edges on the next 200 vertices.
STAR_AND_PAIRS = from_edges(
    1601,
    np.concatenate([np.zeros(1400, dtype=np.int64),
                    np.arange(1401, 1601, 2, dtype=np.int64)]),
    np.concatenate([np.arange(1, 1401, dtype=np.int64),
                    np.arange(1402, 1602, 2, dtype=np.int64)]),
)


def thinning_order(problem):
    """An order on :data:`STAR_AND_PAIRS` whose undecided share drops to
    about 1/8 at once: the hub (or its first edge) first, then the leaves
    (star edges) with one pair vertex (pair edge) after every seven."""
    if problem == "mis":
        hub, star, pairs = [0], np.arange(1, 1401), np.arange(1401, 1601)
    else:
        hub, star, pairs = [0], np.arange(1, 1400), np.arange(1400, 1500)
    head = np.column_stack([star[:7 * pairs.size].reshape(-1, 7), pairs]).ravel()
    order = np.concatenate([hub, head, star[7 * pairs.size:]])
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    return ranks


def _solve(problem, graph, ranks=None, **knobs):
    """Run one prefix engine traced; return (result, windows), one
    ``(slots, first_frontier)`` pair per window (``None`` when the window
    held no undecided item)."""
    sink = MemorySink()
    tracer = Tracer(sink, charges=True)
    if problem == "mis":
        if ranks is None:
            ranks = np.arange(graph.num_vertices, dtype=np.int64)
        res = prefix_greedy_mis(graph, ranks, tracer=tracer, **knobs)
    else:
        el = graph.edge_list()
        if ranks is None:
            ranks = np.arange(el.num_edges, dtype=np.int64)
        res = prefix_greedy_matching(el, ranks, tracer=tracer, **knobs)
    windows = []
    for event in sink.events:
        if event["event"] == "charge" and event["tag"] == "scan":
            windows.append([event["work"], None])
        elif event["event"] == "round" and windows[-1][1] is None:
            windows[-1][1] = event["frontier"]
    return res, windows


def _size(problem, graph):
    return graph.num_vertices if problem == "mis" else graph.num_edges


@pytest.mark.parametrize("problem", ["mis", "mm"])
@pytest.mark.parametrize("order", ["star-then-path", "random"])
def test_default_window_holds_at_most_t_undecided(problem, order):
    """The first inner step of every window sees at most t undecided
    items, even after the windows have grown through the star's leaves
    and meet the path's chain."""
    graph = STAR_THEN_PATH if order == "star-then-path" else SPARSE
    size = _size(problem, graph)
    ranks = None if order == "star-then-path" else random_priorities(size, seed=3)
    res, windows = _solve(problem, graph, ranks)
    t = resolve_prefix_size(size, None, None)
    assert res.stats.prefix_size == t
    assert sum(slots for slots, _ in windows) == size
    assert max(first for _, first in windows if first is not None) <= t
    if order == "star-then-path":
        # The windows did grow: the cap, not the slot count, bounds them.
        assert max(slots for slots, _ in windows) > 2 * t


@pytest.mark.parametrize("problem", ["mis", "mm"])
@pytest.mark.parametrize("order", ["thinning", "star-then-path", "random"])
def test_default_window_at_most_doubles(problem, order):
    graph = {"thinning": STAR_AND_PAIRS, "star-then-path": STAR_THEN_PATH,
             "random": SPARSE}[order]
    size = _size(problem, graph)
    ranks = {"thinning": thinning_order(problem), "star-then-path": None,
             "random": random_priorities(size, seed=4)}[order]
    res, windows = _solve(problem, graph, ranks)
    slots = np.array([s for s, _ in windows])
    assert slots[0] == resolve_prefix_size(size, None, None)
    assert (slots[1:] <= 2 * slots[:-1]).all()
    assert res.stats.aux["slot_scans"] == size


@pytest.mark.parametrize("problem", ["mis", "mm"])
@pytest.mark.parametrize("knob", ["prefix_size", "prefix_frac", "prefix_sizes"])
def test_explicit_knobs_keep_fixed_windows(problem, knob):
    """The Figure 1b/2b lines: rounds == ceil(size / k)."""
    size = _size(problem, SPARSE)
    frac = 0.02
    k = resolve_prefix_size(size, None, frac)
    knobs = {"prefix_size": {"prefix_size": k},
             "prefix_frac": {"prefix_frac": frac},
             "prefix_sizes": {"prefix_sizes": [k]}}[knob]
    res, windows = _solve(problem, SPARSE, random_priorities(size, seed=6), **knobs)
    assert res.stats.rounds == math.ceil(size / k)
    assert [s for s, _ in windows[:-1]] == [k] * (len(windows) - 1)
    assert res.stats.prefix_size == k


@pytest.mark.parametrize("problem", ["mis", "mm"])
def test_default_runs_fewer_rounds_on_a_random_order(problem):
    size = _size(problem, SPARSE)
    res, _ = _solve(problem, SPARSE, random_priorities(size, seed=7))
    t = resolve_prefix_size(size, None, None)
    assert res.stats.rounds < math.ceil(size / t)
    assert res.stats.aux["slot_scans"] == size


class TestDefaultWindowRule:
    def test_cap_ends_window_after_t_th_undecided(self):
        size, kept, nxt = default_window(3, 10, np.array([1, 2, 5, 7, 9]))
        assert size == 6 and kept.tolist() == [1, 2, 5]
        assert nxt == 6  # t * size / u = 6, within 2 * size

    def test_thin_window_grows_at_most_twice(self):
        assert default_window(4, 10, np.array([3]))[2] == 20
        assert default_window(4, 10, np.array([], dtype=np.int64))[2] == 20

    def test_dense_window_keeps_target(self):
        assert default_window(4, 4, np.arange(4))[2] == 4
        assert default_window(4, 8, np.arange(0, 8, 2))[2] == 8
        assert default_window(4, 8, np.arange(0, 8, 4))[2] == 16


class TestReportedPrefixSize:
    """``RunStats.prefix_size`` is the first window, clamped to the input."""

    def test_schedule_reports_its_first_window(self):
        g = cycle_graph(10)
        assert prefix_greedy_mis(g, seed=0, prefix_sizes=[3, 1000]).stats.prefix_size == 3
        assert prefix_greedy_matching(
            g.edge_list(), seed=0, prefix_sizes=[3, 1000]
        ).stats.prefix_size == 3

    def test_schedule_first_window_is_clamped(self):
        g = cycle_graph(10)
        assert prefix_greedy_mis(g, seed=0, prefix_sizes=[1000, 3]).stats.prefix_size == 10
        assert prefix_greedy_matching(
            g.edge_list(), seed=0, prefix_sizes=[1000, 3]
        ).stats.prefix_size == 10

    def test_fixed_size_is_clamped(self):
        g = cycle_graph(10)
        assert prefix_greedy_mis(g, seed=0, prefix_size=1000).stats.prefix_size == 10
        assert prefix_greedy_matching(
            g.edge_list(), seed=0, prefix_size=1000
        ).stats.prefix_size == 10

    def test_theorem45_reports_its_first_window(self):
        g = STAR_THEN_PATH
        sizes = theorem45_prefix_sizes(g.num_vertices, g.max_degree())
        assert len(sizes) > 1
        res = theorem45_prefix_mis(g, seed=0)
        assert res.stats.prefix_size == sizes[0]

    def test_default_reports_the_target(self):
        assert prefix_greedy_mis(SPARSE, seed=0).stats.prefix_size == 80
        el = SPARSE.edge_list()
        assert prefix_greedy_matching(el, seed=0).stats.prefix_size == el.num_edges // 50
