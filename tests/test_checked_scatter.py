"""The checked scatter: π is checked in the scatter that lays it out.

:func:`repro.core.orderings.scatter_by_priority` runs
:func:`~repro.core.orderings.validate_priorities`' checks inside the
scatter an engine needs anyway (the permutation for prefix MIS and both
sequential engines, the packed endpoint pairs for prefix MM).  These
tests pin that it raises exactly what ``validate_priorities`` raises, and
that prefix MM, which now writes only its matches when unguarded, keeps
its answers and its charges on every path.
"""

import numpy as np
import pytest

from repro.core.matching.api import maximal_matching
from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.matching.sequential import sequential_greedy_matching
from repro.core.mis.prefix import prefix_greedy_mis
from repro.core.mis.sequential import sequential_greedy_mis
from repro.core.orderings import (
    permutation_from_ranks,
    random_priorities,
    scatter_by_priority,
    validate_priorities,
)
from repro.errors import InvalidOrderingError
from repro.graphs.csr import EdgeList
from repro.graphs.generators import uniform_random_graph
from repro.observability import MemorySink, Tracer
from repro.robustness import Budget

G = uniform_random_graph(400, 1600, seed=21)
EL = G.edge_list()
PI = random_priorities(EL.num_edges, seed=22)


def _bad_pis(size):
    """Every way a π can be bad, each with the size it is checked at."""
    good = random_priorities(size, seed=3)
    below, above, nan = good.copy(), good.copy(), good.astype(np.float64)
    below[7], above[7], nan[7] = -1, size, np.nan
    # Rank 2 three times and rank 9 twice: the smallest repeat is named.
    repeat = np.arange(size, dtype=np.int64)
    repeat[[5, 6]] = 2
    repeat[10] = 9
    return {
        "short": good[:-1],
        "2-D": good.reshape(2, -1),
        "float": good.astype(np.float64),
        "nan": nan,
        "below-0": below,
        "at-n": above,
        "repeat": repeat,
    }


def _message(ranks, size):
    with pytest.raises(InvalidOrderingError) as exc:
        validate_priorities(ranks, size)
    return str(exc.value)


class TestScatterByPriority:
    def test_lays_values_out_in_priority_order(self):
        ranks, laid = scatter_by_priority(PI, PI.size, EL.u)
        assert ranks.dtype == np.int64 and np.array_equal(ranks, PI)
        assert np.array_equal(laid[PI], EL.u)

    def test_default_values_give_the_permutation(self):
        _, perm = scatter_by_priority(PI.astype(np.int32), PI.size)
        assert np.array_equal(perm, permutation_from_ranks(PI))

    def test_empty(self):
        ranks, laid = scatter_by_priority(np.empty(0, dtype=np.int64), 0)
        assert ranks.size == 0 and laid.size == 0

    @pytest.mark.parametrize("kind", list(_bad_pis(40)))
    def test_raises_validate_priorities_message(self, kind):
        bad = _bad_pis(40)[kind]
        with pytest.raises(InvalidOrderingError) as exc:
            scatter_by_priority(bad, 40)
        assert str(exc.value) == _message(bad, 40)

    def test_repeat_names_the_smallest_rank_and_its_count(self):
        assert _message(_bad_pis(40)["repeat"], 40) == (
            "priorities are not a permutation: rank 2 appears 3 times"
        )


_ENGINES = {
    "mis/prefix": (prefix_greedy_mis, G, G.num_vertices),
    "mis/sequential": (sequential_greedy_mis, G, G.num_vertices),
    "mm/prefix": (prefix_greedy_matching, EL, EL.num_edges),
    "mm/sequential": (sequential_greedy_matching, EL, EL.num_edges),
}


@pytest.mark.parametrize("engine", list(_ENGINES))
@pytest.mark.parametrize("kind", list(_bad_pis(40)))
def test_engines_raise_validate_priorities_message(engine, kind):
    run, payload, size = _ENGINES[engine]
    bad = _bad_pis(size)[kind]
    with pytest.raises(InvalidOrderingError) as exc:
        run(payload, bad)
    assert str(exc.value) == _message(bad, size)


def test_vertex_ids_past_two_to_the_31_match_sequential():
    """Endpoints past 2³¹ do not pack into one int64; prefix MM relabels
    them and still returns sequential's answer (and allocates nothing of
    the vertex count's size: an int64 array of 2³¹ + 5 would be 16 GiB)."""
    n = 2**31 + 5
    u = np.array([0, 0, 1, 3, 2**31 - 1, 2**31, 2**31 + 1, 5], dtype=np.int64)
    v = np.array([1, 2**31 + 4, 3, 2**31, 2**31 + 4, 2**31 + 1, 2**31 + 4, 2**31],
                 dtype=np.int64)
    edges = EdgeList(n, u, v)
    for seed in range(6):
        pi = random_priorities(edges.num_edges, seed=seed)
        ref = sequential_greedy_matching(edges, pi)
        for guards in (None, "full"):
            got = prefix_greedy_matching(edges, pi, guards=guards)
            assert np.array_equal(got.status, ref.status)
            assert got.stats.n == n
        assert np.array_equal(maximal_matching(edges, pi).status, ref.status)


@pytest.mark.parametrize(
    "n, u, v",
    [
        (2**31, [0, 3], [2**31 - 1, 2**31 - 2]),
        (2**29 + 7, [0, 5, 2**29], [2**29 + 6, 2**29 + 6, 2**29 + 1]),
    ],
    ids=["2-edges-on-2^31", "3-edges-on-2^29+7"],
)
def test_sparse_graphs_relabel_instead_of_filling_vertex_scratch(n, u, v):
    """A graph with more than 16 vertices per edge is relabelled before
    the layout, so prefix MM never fills its n-sized scratch (16 GiB of
    int64 at 2³¹ vertices, which used to raise a bare MemoryError): every
    π gives sequential's answer under both guard modes and through the
    front door, allocates a few KiB, and reports the caller's n."""
    import itertools
    import tracemalloc

    edges = EdgeList(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
    for order in itertools.permutations(range(edges.num_edges)):
        pi = np.array(order, dtype=np.int64)
        ref = sequential_greedy_matching(edges, pi)
        for guards in (None, "full"):
            tracemalloc.start()
            try:
                got = prefix_greedy_matching(edges, pi, guards=guards)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got.status, ref.status)
            assert got.stats.n == n
            assert peak < 2**20, peak
        res = maximal_matching(edges, pi)
        assert np.array_equal(res.status, ref.status)
        assert res.stats.n == n


# Charges of prefix MM on (EL, PI) before it wrote only its matches:
# (work, depth, steps, rounds, prefix_size, slot_scans, item_examinations).
_DEFAULT_CHARGES = (4059, 202, 11, 11, 32, 1600, 228)
_CHARGES = {
    "default": ({}, _DEFAULT_CHARGES),
    "guards-cheap": ({"guards": "cheap"}, _DEFAULT_CHARGES),
    "guards-full": ({"guards": "full"}, _DEFAULT_CHARGES),
    "prefix_size": ({"prefix_size": 40}, (3960, 544, 29, 40, 40, 1600, 195)),
    "prefix_frac": ({"prefix_frac": 0.05}, (4062, 331, 18, 20, 80, 1600, 229)),
    "prefix_sizes": ({"prefix_sizes": [8, 64]},
                     (3999, 364, 23, 26, 8, 1600, 208)),
}


def _charges(stats):
    return (stats.work, stats.depth, stats.steps, stats.rounds,
            stats.prefix_size, stats.aux["slot_scans"],
            stats.aux["item_examinations"])


@pytest.mark.parametrize("config", list(_CHARGES))
def test_mm_answer_and_charges_hold_on_every_path(config):
    kwargs, charges = _CHARGES[config]
    ref = sequential_greedy_matching(EL, PI)
    got = prefix_greedy_matching(EL, PI, **kwargs)
    assert np.array_equal(got.status, ref.status)
    assert _charges(got.stats) == charges


def test_mm_tracer_decided_per_step():
    tracer = Tracer(MemorySink())
    got = prefix_greedy_matching(EL, PI, tracer=tracer)
    rounds = [e for e in tracer.sink.events if e["event"] == "round"]
    assert [e["decided"] for e in rounds] == [
        32, 25, 21, 29, 27, 14, 21, 19, 24, 5, 6]
    assert [e["frontier"] for e in rounds] == [
        32, 25, 21, 29, 27, 14, 21, 19, 29, 5, 6]
    assert _charges(got.stats) == _DEFAULT_CHARGES
    assert np.array_equal(got.status, sequential_greedy_matching(EL, PI).status)


def test_mm_budget_spends_one_step_per_inner_step():
    budget = Budget(max_steps=10**6)
    got = prefix_greedy_matching(EL, PI, budget=budget)
    assert budget.steps_used == got.stats.steps == _DEFAULT_CHARGES[2]
    assert _charges(got.stats) == _DEFAULT_CHARGES
    assert np.array_equal(got.status, sequential_greedy_matching(EL, PI).status)
