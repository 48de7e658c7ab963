"""Randomized mutation-parity suite for :mod:`repro.dynamic`.

The incremental maintainers promise **bit-identical** answers to a
from-scratch run of the sequential greedy on the mutated graph — the
whole point of re-peeling only the affected priority-DAG region.  This
suite drives both maintainers through seeded random mutation batches
with ``guards="full"`` (every batch ends in a verified fixpoint) and
checks the maintained status vector against the ``rootset-vec`` and
``parallel-vec`` reference engines after every batch, plus the
state-dict round trip, the streaming front end, and the batch
validation contract (a rejected batch must leave the session intact).
"""

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.orderings import random_priorities
from repro.dynamic import (
    IncrementalMatching,
    IncrementalMIS,
    edge_priority,
    stream_edges,
)
from repro.dynamic.incremental import result_from_state
from repro.errors import InvalidGraphError
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.graphs.generators import (
    powerlaw_cluster_graph,
    triangular_grid_graph,
    uniform_random_graph,
)

pytestmark = pytest.mark.sessions

BATCHES = 6
REFERENCE_METHODS = ("rootset-vec", "parallel-vec")


def _random_batch(rng, n, live, size):
    """One mutation batch: half deletions from *live*, half fresh inserts."""
    pool = sorted(live)
    k_del = min(size // 2, len(pool))
    idx = rng.choice(len(pool), size=k_del, replace=False) if k_del else []
    deletions = [pool[i] for i in sorted(int(i) for i in np.atleast_1d(idx))]
    insertions = []
    taken = set(live)
    attempts = 0
    while len(insertions) < size - k_del and attempts < 50 * size:
        attempts += 1
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in taken or key in set(deletions):
            continue
        taken.add(key)
        insertions.append(key)
    return insertions, deletions


def _apply(live, insertions, deletions):
    return (set(live) - set(deletions)) | set(insertions)


def _live_edges(graph):
    el = graph.edge_list()
    return {(min(a, b), max(a, b)) for a, b in zip(el.u.tolist(), el.v.tolist())}


@pytest.mark.parametrize("seed", [3, 17, 20120215])
@pytest.mark.parametrize("make_graph", [
    lambda: uniform_random_graph(120, 420, seed=5),
    lambda: triangular_grid_graph(9, 9),
    lambda: powerlaw_cluster_graph(100, 4, 0.5, seed=5),
], ids=["uniform", "tri_grid", "powerlaw_cluster"])
def test_mis_mutation_parity(make_graph, seed):
    """After every batch the maintainer equals from-scratch greedy, bit for bit."""
    graph = make_graph()
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    ranks = random_priorities(n, seed=seed)
    inc = IncrementalMIS(graph, ranks)
    live = _live_edges(graph)
    for _ in range(BATCHES):
        ins, dels = _random_batch(rng, n, live, size=8)
        stats = inc.apply_batch(insertions=ins, deletions=dels)
        live = _apply(live, ins, dels)
        inc.verify()  # guards="full" equivalent: full fixpoint check
        assert stats["inserted"] == len(ins) and stats["deleted"] == len(dels)
        edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
        mutated = from_edges(n, edges[:, 0], edges[:, 1])
        for method in REFERENCE_METHODS:
            ref = maximal_independent_set(mutated, ranks, method=method)
            assert np.array_equal(inc.status, ref.status), (
                f"divergence from {method} after mutation batch"
            )


@pytest.mark.parametrize("seed", [3, 17, 20120215])
def test_matching_mutation_parity(seed):
    """Matching maintainer equals from-scratch greedy on its own (edges, π)."""
    graph = uniform_random_graph(90, 300, seed=7)
    rng = np.random.default_rng(seed)
    inc = IncrementalMatching(graph.edge_list(), seed=seed)
    live = _live_edges(graph)
    for _ in range(BATCHES):
        ins, dels = _random_batch(rng, graph.num_vertices, live, size=8)
        inc.apply_batch(insertions=ins, deletions=dels)
        live = _apply(live, ins, dels)
        inc.verify()
        for method in REFERENCE_METHODS:
            ref = maximal_matching(
                inc.edge_list(), inc.current_ranks(), method=method,
            )
            assert np.array_equal(inc.result().status, ref.status), (
                f"divergence from {method} after mutation batch"
            )


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_state_round_trip_preserves_answer_and_counters(problem):
    graph = uniform_random_graph(80, 260, seed=11)
    if problem == "mis":
        inc = IncrementalMIS(graph, random_priorities(80, seed=11))
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=11)
    live = _live_edges(graph)
    rng = np.random.default_rng(11)
    ins, dels = _random_batch(rng, 80, live, size=6)
    inc.apply_batch(insertions=ins, deletions=dels)

    clone = type(inc).from_state(inc.to_state())
    clone.verify()
    assert np.array_equal(clone.result().status, inc.result().status)
    assert clone.counters.aux() == inc.counters.aux()
    # And the clone keeps evolving identically.
    ins2, dels2 = _random_batch(rng, 80, _apply(live, ins, dels), size=6)
    a = inc.apply_batch(insertions=ins2, deletions=dels2)
    b = clone.apply_batch(insertions=ins2, deletions=dels2)
    assert a == b
    assert np.array_equal(clone.result().status, inc.result().status)


def test_rejected_batch_leaves_maintainer_intact():
    """Validation happens before any structural change."""
    graph = triangular_grid_graph(5, 5)
    inc = IncrementalMIS(graph, random_priorities(25, seed=1))
    before_status = inc.status.copy()
    before_m = inc.m
    for bad_ins, bad_del in [
        ([(0, 0)], []),                 # self-loop
        ([(0, 1)], []),                 # already present
        ([(0, 7), (7, 0)], []),         # in-batch duplicate
        ([], [(0, 24)]),                # absent edge deletion
        ([(0, 99)], []),                # out of range
    ]:
        with pytest.raises(InvalidGraphError):
            inc.apply_batch(insertions=bad_ins, deletions=bad_del)
        assert inc.m == before_m
        assert np.array_equal(inc.status, before_status)


def test_stream_edges_matches_batch_ingestion():
    """Streaming arrival order is just batching: same fixpoint, same answer."""
    graph = uniform_random_graph(60, 0, seed=0)
    target = uniform_random_graph(60, 200, seed=3)
    el = target.edge_list()
    arrivals = list(zip(el.u.tolist(), el.v.tolist()))
    ranks = random_priorities(60, seed=9)
    inc = IncrementalMIS(graph, ranks)
    stats = list(stream_edges(inc, arrivals, batch_size=16))
    assert sum(s["inserted"] for s in stats) == len(arrivals)
    assert len(stats) == -(-len(arrivals) // 16)
    ref = maximal_independent_set(target, ranks, method="rootset-vec")
    assert np.array_equal(inc.status, ref.status)
    # The densifying stream's work accounting feeds aux["dynamic"].
    aux = inc.result().stats.aux["dynamic"]
    assert aux["batches"] == len(stats)
    assert aux["total_work_ratio"] > 0


def test_localized_mutations_repeel_sublinearly():
    """The paper-flavored claim behind BENCH_9: toggling one edge of a
    grid perturbs a region much smaller than the graph."""
    graph = triangular_grid_graph(24, 24)
    inc = IncrementalMIS(graph, random_priorities(graph.num_vertices, seed=2))
    live = sorted(_live_edges(graph))
    rng = np.random.default_rng(2)
    for _ in range(20):
        edge = live[int(rng.integers(len(live)))]
        inc.apply_batch(deletions=[edge])
        inc.apply_batch(insertions=[edge])
    aux = inc.counters.aux()
    assert aux["total_work_ratio"] < 0.25
    assert aux["last_batch"]["affected"] < graph.num_vertices // 4


# -- array state -------------------------------------------------------------


def _tolist(state):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in state.items()}


def _states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


def _scratch(problem, n, live, ranks, seed):
    """Sequential greedy on the mutated graph: the reference answer.

    MM ranks come from a Python sort of ``(priority, u, v)`` — the loop
    the array path replaced.
    """
    edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
    if problem == "mis":
        graph = from_edges(n, edges[:, 0], edges[:, 1])
        return maximal_independent_set(graph, ranks, method="sequential")
    keys = [(edge_priority(seed, a, b), a, b) for a, b in edges.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    mm_ranks = np.empty(len(keys), dtype=np.int64)
    mm_ranks[order] = np.arange(len(keys))
    return maximal_matching(EdgeList(n, edges[:, 0], edges[:, 1]), mm_ranks,
                            method="sequential")


def _toggle_batches(rng, n, live, count):
    """Seeded batches, then one that deletes every edge, then a refill."""
    for _ in range(count):
        ins, dels = _random_batch(rng, n, live, size=6)
        yield ins, dels
        live = _apply(live, ins, dels)
    yield [], sorted(live)
    ins, _ = _random_batch(rng, n, set(), size=2 * min(n * (n - 1) // 2, 4))
    yield ins, []


@pytest.mark.parametrize("problem", ["mis", "matching"])
@pytest.mark.parametrize("n, m, seed", [(1, 0, 1), (2, 1, 2), (40, 110, 3), (70, 260, 4)])
def test_array_state_parity_under_toggle_batches(problem, n, m, seed):
    graph = uniform_random_graph(n, m, seed=seed)
    ranks = random_priorities(n, seed=seed)
    if problem == "mis":
        inc = IncrementalMIS(graph, ranks)
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=seed)
    live = _live_edges(graph)
    rng = np.random.default_rng(seed)
    for ins, dels in _toggle_batches(rng, n, live, count=5):
        state = inc.to_state()
        arr_twin = type(inc).from_state(state)
        list_twin = type(inc).from_state(_tolist(state))
        stats = [twin.apply_batch(insertions=ins, deletions=dels)
                 for twin in (inc, arr_twin, list_twin)]
        assert stats[0] == stats[1] == stats[2]
        live = _apply(live, ins, dels)
        state = inc.to_state()
        _states_equal(arr_twin.to_state(), list_twin.to_state())
        _states_equal(state, arr_twin.to_state())
        edges = state["edges"]
        assert edges.dtype == np.int64 and edges.shape == (len(live), 2 if problem == "mis" else 4)
        assert edges[:, :2].tolist() == [list(e) for e in sorted(live)]
        inc.verify()

        got = result_from_state(state)
        ref = _scratch(problem, n, live, ranks, seed)
        assert np.array_equal(got.status, ref.status)
        assert np.array_equal(got.ranks, ref.ranks)
        if problem == "matching":
            assert np.array_equal(got.edge_u, ref.edge_u)
            assert np.array_equal(got.edge_v, ref.edge_v)
        assert (got.stats.n, got.stats.m) == (n, len(live))
        assert got.stats.aux == inc.result().stats.aux


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_rejected_batch_leaves_state_unchanged(problem):
    graph = triangular_grid_graph(5, 5)
    if problem == "mis":
        inc = IncrementalMIS(graph, random_priorities(25, seed=1))
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=1)
    before = inc.to_state()
    for bad_ins, bad_del in [
        ([(0, 1)], [(0, 5)]),           # present insert after a valid delete
        ([(0, 7)], [(0, 24)]),          # absent deletion after a valid insert
        ([(3, 3)], []),                 # self-loop
        ([(0, 7), (7, 0)], []),         # in-batch duplicate
    ]:
        with pytest.raises(InvalidGraphError):
            inc.apply_batch(insertions=bad_ins, deletions=bad_del)
        _states_equal(inc.to_state(), before)


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_results_never_alias_state(problem):
    graph = uniform_random_graph(30, 70, seed=5)
    if problem == "mis":
        inc = IncrementalMIS(graph, random_priorities(30, seed=5))
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=5)
    fields = ("status", "ranks") + (("edge_u", "edge_v") if problem == "matching" else ())
    state = inc.to_state()
    first = result_from_state(state)
    expected = {f: getattr(first, f).copy() for f in fields}
    for result in (first, inc.result()):
        for f in fields:
            getattr(result, f)[:] = 0
    for again in (result_from_state(state), inc.result()):
        for f in fields:
            assert np.array_equal(getattr(again, f), expected[f]), f
    for value in state.values():  # the state is a copy, too
        if isinstance(value, np.ndarray):
            value[:] = 0
    again = inc.result()
    for f in fields:
        assert np.array_equal(getattr(again, f), expected[f]), f


@pytest.mark.parametrize("bad, match", [
    ({"edges": [[1, 0]]}, "u < v"),
    ({"edges": [[0, 2], [0, 1]]}, "sorted and distinct"),
    ({"edges": [[0, 1], [0, 1]]}, "sorted and distinct"),
    ({"edges": [[0, 9]]}, "u < v"),
    ({"edges": [[0.5, 1.0]]}, "integers"),
    ({"edges": [[0, 1, 2]]}, "shape"),
    ({"status": [1, 2]}, "length"),
    ({"status": [1, 2, 0]}, "IN_SET"),
])
def test_from_state_rejects_malformed_mis_state(bad, match):
    state = dict(IncrementalMIS(from_edges(3, np.array([0]), np.array([1])),
                                np.arange(3)).to_state(), **bad)
    with pytest.raises(InvalidGraphError, match=match):
        IncrementalMIS.from_state(state)


def test_from_state_rejects_a_non_flag_matched_column():
    state = IncrementalMatching(uniform_random_graph(6, 5, seed=1).edge_list()).to_state()
    state["edges"][0, 3] = 2
    with pytest.raises(InvalidGraphError, match="0 or 1"):
        IncrementalMatching.from_state(state)
