"""The engine registry: honest capability flags, derived chains, solve().

Both front doors dispatch exclusively through :mod:`repro.core.engines`;
these tests pin the registry's contract — the flags must match what each
engine callable actually accepts, and every registry-derived surface
(method views, fallback chain, error messages) must stay consistent.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import repro
from repro.core import engines
from repro.core.engines import (
    EngineSpec,
    MethodsView,
    engine_methods,
    engine_specs,
    fallback_chain,
    get_engine,
    register_engine,
    solve,
    unsupported_knobs,
)
from repro.core.matching.api import MM_METHODS, maximal_matching
from repro.core.mis.api import MIS_METHODS, maximal_independent_set
from repro.core.options import SolveOptions
from repro.core.orderings import random_priorities
from repro.errors import EngineError
from repro.graphs.generators import uniform_random_graph

ALL_SPECS = [
    pytest.param(spec, id=f"{spec.problem}-{spec.method}")
    for problem in engines.PROBLEMS
    for spec in engine_specs(problem)
]

#: An accepted value for every gated knob.
KNOB_VALUES = {"prefix_size": 8, "prefix_frac": 0.5}

#: Knobs of the retired ``parallel-vec`` tier (process fan-out): no
#: registered engine takes them, and no front door accepts them.
RETIRED_KNOBS = {"workers": 1, "min_fanout": 0}


def _assert_front_doors_gate(graph, flag):
    """Every registered (problem, method) x knob gated by *flag*: the front
    door raises EngineError exactly when the knob is unsupported."""
    for problem in engines.PROBLEMS:
        for spec in engine_specs(problem):
            unsupported = unsupported_knobs(problem, spec.method)
            for knob in engines._GATED_KNOBS[flag]:
                case = f"{problem}/{spec.method} {knob}="
                assert (knob in unsupported) == (not getattr(spec, flag)), case
                kwargs = {knob: KNOB_VALUES[knob], "method": spec.method}
                if knob in unsupported:
                    with pytest.raises(EngineError, match=f"{knob}.* only apply to"):
                        solve(problem, graph, seed=1, **kwargs)
                else:
                    res = solve(problem, graph, seed=1, **kwargs)
                    assert res.stats.algorithm == spec.algorithm, case


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(120, 360, seed=2)


class TestRegistryShape:
    def test_methods_views_are_the_registry(self):
        assert tuple(MIS_METHODS) == engine_methods("mis")
        assert tuple(MM_METHODS) == engine_methods("matching")
        assert MIS_METHODS == (
            "sequential", "parallel", "prefix", "theorem45", "rootset",
            "rootset-vec", "luby",
        )
        assert MM_METHODS == (
            "sequential", "parallel", "prefix", "rootset", "rootset-vec",
        )
        assert "rootset-vec" in MIS_METHODS
        assert "parallel-vec" not in MIS_METHODS
        assert "parallel-vec" not in MM_METHODS
        assert repr(MIS_METHODS) == repr(tuple(MIS_METHODS))

    def test_option_and_flag_surfaces_are_pinned(self):
        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "method", "seed", "guards", "budget", "fallback", "tracer",
            "machine", "prefix_size", "prefix_frac",
        ]
        flags = [
            f.name for f in dataclasses.fields(EngineSpec)
            if f.type in (bool, "bool")
        ]
        assert flags == [
            "supports_guards", "supports_prefix_knobs", "supports_ranks",
            "deterministic", "fallback",
        ]
        assert engines._GATED_KNOBS == {
            "supports_prefix_knobs": ("prefix_size", "prefix_frac"),
        }

    def test_top_level_reexports(self):
        assert repro.MIS_METHODS is MIS_METHODS
        assert repro.MM_METHODS is MM_METHODS
        assert repro.solve is solve
        assert repro.maximal_independent_set is maximal_independent_set
        assert repro.maximal_matching is maximal_matching

    def test_fallback_chain_is_reversed_registration_order(self):
        for problem in engines.PROBLEMS:
            expected = tuple(
                s.method for s in reversed(engine_specs(problem)) if s.fallback
            )
            assert fallback_chain(problem) == expected
            assert fallback_chain(problem) == ("rootset-vec", "sequential")

    def test_unknown_method_error_lists_registered_names(self, graph):
        with pytest.raises(EngineError, match="unknown MIS method 'bogus'"):
            maximal_independent_set(graph, method="bogus")
        with pytest.raises(EngineError, match="rootset-vec"):
            get_engine("mis", "bogus")
        with pytest.raises(EngineError, match="unknown matching method"):
            maximal_matching(graph, method="bogus")

    @pytest.mark.parametrize("problem", engines.PROBLEMS)
    def test_parallel_vec_is_refused_naming_the_registered_methods(
        self, graph, problem
    ):
        front = (maximal_independent_set if problem == "mis"
                 else maximal_matching)
        for call in (front, lambda g, **kw: solve(problem, g, **kw)):
            with pytest.raises(EngineError) as exc:
                call(graph, method="parallel-vec", seed=1)
            assert "'parallel-vec'" in str(exc.value)
            assert repr(engine_methods(problem)) in str(exc.value)

    def test_unknown_problem_rejected(self):
        with pytest.raises(EngineError, match="unknown problem"):
            engine_methods("vertex-cover")
        with pytest.raises(EngineError, match="unknown problem"):
            MethodsView("vertex-cover")

    def test_duplicate_registration_rejected(self):
        spec = get_engine("mis", "sequential")
        with pytest.raises(EngineError, match="duplicate"):
            register_engine(spec)

    def test_specs_document_themselves(self):
        for problem in engines.PROBLEMS:
            for spec in engine_specs(problem):
                assert spec.summary, f"{spec.method} lacks a summary"
                assert spec.algorithm.startswith(
                    "mis/" if problem == "mis" else "mm/"
                )


class TestFlagsAreHonest:
    """Every capability flag must match the resolved callable's signature."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_resolves_to_a_callable(self, spec):
        fn = spec.resolve()
        assert callable(fn)
        assert fn.__name__ == spec.func

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_guards_flag(self, spec):
        params = inspect.signature(spec.resolve()).parameters
        assert ("guards" in params) == spec.supports_guards, spec.method

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_prefix_knob_flag(self, spec):
        params = inspect.signature(spec.resolve()).parameters
        assert ("prefix_size" in params) == spec.supports_prefix_knobs, (
            spec.method
        )

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_ranks_flag(self, spec):
        # Ranks-consuming engines take it as the second positional.
        params = list(inspect.signature(spec.resolve()).parameters)
        takes_ranks = len(params) > 1 and params[1] == "ranks"
        assert takes_ranks == spec.supports_ranks, spec.method

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_backend_flag(self, spec):
        # The kernel-backend knob is retired: no engine takes it.
        params = inspect.signature(spec.resolve()).parameters
        assert "backend" not in params, spec.method
        assert not hasattr(spec, "supports_backend")

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_workers_flag(self, spec):
        # The parallel-vec tier is retired from the registry: no engine
        # takes its knobs, and the flag that gated them is gone.
        params = inspect.signature(spec.resolve()).parameters
        assert not set(RETIRED_KNOBS) & set(params), spec.method
        assert not hasattr(spec, "supports_workers")

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_tracer_accepted_everywhere(self, spec):
        params = inspect.signature(spec.resolve()).parameters
        assert "tracer" in params, spec.method

    def test_prefix_knob_rejected_by_non_prefix_engines(self, graph):
        _assert_front_doors_gate(graph, "supports_prefix_knobs")

    def test_parallel_knobs_rejected_by_other_engines(self, graph):
        # Retired with parallel-vec: every engine's front door refuses them.
        for problem in engines.PROBLEMS:
            front = (maximal_independent_set if problem == "mis"
                     else maximal_matching)
            for method in engine_methods(problem):
                for knob, value in RETIRED_KNOBS.items():
                    with pytest.raises(TypeError, match=knob):
                        front(graph, seed=1, method=method, **{knob: value})
                    with pytest.raises(TypeError, match=knob):
                        solve(problem, graph, seed=1, method=method,
                              **{knob: value})
        for knob, value in RETIRED_KNOBS.items():
            with pytest.raises(TypeError, match=knob):
                SolveOptions(**{knob: value})
            with pytest.raises(EngineError, match=knob):
                SolveOptions.from_wire({knob: value})

    def test_ranks_rejected_by_luby(self, graph):
        ranks = random_priorities(graph.num_vertices, seed=0)
        with pytest.raises(EngineError, match="ignores ranks"):
            maximal_independent_set(graph, ranks, method="luby")

    def test_deterministic_flag(self, graph):
        # Deterministic engines: same input → same output; luby is flagged
        # non-deterministic because it re-randomizes from its seed.
        ranks = random_priorities(graph.num_vertices, seed=4)
        for spec in engine_specs("mis"):
            if not spec.deterministic:
                assert spec.method == "luby"
                continue
            if not spec.supports_ranks:
                continue
            a = solve("mis", graph, ranks, method=spec.method)
            b = solve("mis", graph, ranks, method=spec.method)
            assert np.array_equal(a.status, b.status), spec.method


class TestSolve:
    def test_solve_mis_matches_front_door(self, graph):
        ranks = random_priorities(graph.num_vertices, seed=7)
        direct = maximal_independent_set(graph, ranks, method="rootset-vec")
        via = solve("mis", graph, ranks, method="rootset-vec")
        assert np.array_equal(direct.status, via.status)

    def test_solve_matching_and_mm_alias(self, graph):
        ranks = random_priorities(graph.edge_list().num_edges, seed=8)
        direct = maximal_matching(graph, ranks, method="rootset")
        for problem in ("matching", "mm"):
            via = solve(problem, graph, ranks, method="rootset")
            assert np.array_equal(direct.status, via.status)

    def test_solve_unknown_problem(self, graph):
        with pytest.raises(EngineError, match="unknown problem"):
            solve("coloring", graph)

    def test_solve_forwards_validation(self, graph):
        with pytest.raises(EngineError, match="unknown MIS method"):
            solve("mis", graph, method="nope")

    def test_every_registered_mis_method_runs(self, graph):
        ranks = random_priorities(graph.num_vertices, seed=9)
        for method in MIS_METHODS:
            res = solve(
                "mis", graph,
                None if method == "luby" else ranks,
                method=method, seed=13,
            )
            assert res.stats.algorithm == get_engine("mis", method).algorithm

    def test_every_registered_mm_method_runs(self, graph):
        ranks = random_priorities(graph.edge_list().num_edges, seed=10)
        for method in MM_METHODS:
            res = solve("mm", graph, ranks, method=method)
            assert res.stats.algorithm == get_engine("matching", method).algorithm


class TestNoLiteralDispatchChains:
    def test_front_doors_have_no_method_equality_chains(self):
        import pathlib

        import repro.core.matching.api as mm_api
        import repro.core.mis.api as mis_api

        for mod in (mis_api, mm_api):
            text = pathlib.Path(mod.__file__).read_text()
            assert "if method ==" not in text, mod.__name__
