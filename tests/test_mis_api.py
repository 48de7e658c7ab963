"""Tests for the maximal_independent_set front door."""

import numpy as np
import pytest

from repro.core.mis import MIS_METHODS, maximal_independent_set
from repro.core.orderings import random_priorities
from repro.errors import EngineError
from repro.graphs.generators import cycle_graph, uniform_random_graph


class TestDispatch:
    @pytest.mark.parametrize("method", ["sequential", "parallel", "prefix", "rootset"])
    def test_deterministic_methods_agree(self, method):
        g = uniform_random_graph(200, 800, seed=0)
        ranks = random_priorities(200, seed=1)
        ref = maximal_independent_set(g, ranks, method="sequential")
        res = maximal_independent_set(g, ranks, method=method)
        assert np.array_equal(res.in_set, ref.in_set)
        assert res.stats.algorithm == f"mis/{method}"

    def test_luby_dispatch(self):
        g = cycle_graph(20)
        res = maximal_independent_set(g, method="luby", seed=0)
        assert res.stats.algorithm == "mis/luby"

    def test_default_method_is_prefix(self):
        res = maximal_independent_set(cycle_graph(10), seed=0)
        assert res.stats.algorithm == "mis/prefix"

    def test_unknown_method(self):
        with pytest.raises(EngineError, match="unknown MIS method"):
            maximal_independent_set(cycle_graph(5), method="magic")

    def test_prefix_knob_rejected_elsewhere(self):
        with pytest.raises(EngineError, match="only apply"):
            maximal_independent_set(
                cycle_graph(5), method="parallel", prefix_size=2, seed=0
            )

    def test_luby_rejects_ranks(self):
        with pytest.raises(EngineError, match="ignores ranks"):
            maximal_independent_set(
                cycle_graph(5), random_priorities(5, seed=0), method="luby"
            )

    def test_prefix_knobs_forwarded(self):
        res = maximal_independent_set(
            cycle_graph(12), method="prefix", prefix_size=4, seed=0
        )
        assert res.stats.prefix_size == 4
        assert res.stats.rounds == 3

    def test_methods_tuple_complete(self):
        assert set(MIS_METHODS) == {
            "sequential", "parallel", "prefix", "theorem45", "rootset",
            "rootset-vec", "luby",
        }

    def test_theorem45_method(self):
        g = uniform_random_graph(500, 2500, seed=2)
        ranks = random_priorities(500, seed=3)
        ref = maximal_independent_set(g, ranks, method="sequential")
        res = maximal_independent_set(g, ranks, method="theorem45")
        assert np.array_equal(res.in_set, ref.in_set)
        # The adaptive schedule uses few (polylog) rounds.
        assert res.stats.rounds <= 4 * np.log2(500)

    def test_theorem45_rejects_prefix_knobs(self):
        with pytest.raises(EngineError, match="only apply"):
            maximal_independent_set(
                cycle_graph(10), method="theorem45", prefix_size=3, seed=0
            )

    def test_result_repr_mentions_algorithm(self):
        res = maximal_independent_set(cycle_graph(6), method="sequential", seed=0)
        assert "mis/sequential" in repr(res)
