"""Observability layer: round events, sinks, replay, kernel counters.

The load-bearing invariant: with a tracer attached, every engine emits
exactly ``RunStats.steps`` round events, and the per-round frontier
series replays bit-identically across re-runs (and across the two
root-set engines, which share a step structure).
"""

import json

import numpy as np
import pytest

from repro.core.matching.api import maximal_matching
from repro.core.matching.parallel_vectorized import parallel_matching_vectorized
from repro.core.mis.api import maximal_independent_set
from repro.core.mis.parallel_vectorized import parallel_mis_vectorized
from repro.core.orderings import random_priorities
from repro.core.status import IN_SET
from repro.graphs.generators import rmat_graph, uniform_random_graph
from repro.observability import (
    JSONLSink,
    KernelCounters,
    MemorySink,
    NullSink,
    Tracer,
    frontier_series,
    read_trace,
    round_records,
    trace_summary,
)
from repro.observability.counters import KERNEL_NAMES
from repro.pram.machine import Machine

MIS_ENGINES = ("sequential", "parallel", "prefix", "theorem45",
               "rootset", "rootset-vec", "luby")
MM_ENGINES = ("sequential", "parallel", "prefix", "rootset", "rootset-vec")


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(300, 900, seed=3)


@pytest.fixture(scope="module")
def vranks(graph):
    return random_priorities(graph.num_vertices, seed=5)


@pytest.fixture(scope="module")
def eranks(graph):
    return random_priorities(graph.edge_list().num_edges, seed=6)


class TestRoundCountEqualsSteps:
    @pytest.mark.parametrize("method", MIS_ENGINES)
    def test_mis(self, graph, vranks, method):
        tracer = Tracer(MemorySink())
        ranks = None if method == "luby" else vranks
        res = maximal_independent_set(
            graph, ranks, method=method, seed=9, tracer=tracer
        )
        rounds = [e for e in tracer.sink.events if e["event"] == "round"]
        assert len(rounds) == res.stats.steps
        assert tracer.rounds == res.stats.steps
        assert [e["index"] for e in rounds] == list(range(len(rounds)))

    @pytest.mark.parametrize("method", MM_ENGINES)
    def test_mm(self, graph, eranks, method):
        tracer = Tracer(MemorySink())
        res = maximal_matching(graph, eranks, method=method, tracer=tracer)
        rounds = [e for e in tracer.sink.events if e["event"] == "round"]
        assert len(rounds) == res.stats.steps

    def test_run_begin_and_end_bracket_the_rounds(self, graph, vranks):
        tracer = Tracer(MemorySink())
        res = maximal_independent_set(
            graph, vranks, method="rootset-vec", tracer=tracer
        )
        events = tracer.sink.events
        assert events[0]["event"] == "run-begin"
        assert events[0]["algorithm"] == "mis/rootset-vec"
        assert events[0]["n"] == graph.num_vertices
        assert events[-1]["event"] == "run-end"
        assert events[-1]["steps"] == res.stats.steps
        assert events[-1]["work"] == res.stats.work

    def test_decided_totals_cover_the_graph(self, graph, vranks):
        # Every vertex is decided exactly once across the rootset rounds.
        tracer = Tracer(MemorySink())
        maximal_independent_set(graph, vranks, method="rootset-vec",
                                tracer=tracer)
        records = round_records(tracer.sink.events)
        assert sum(r.decided for r in records) == graph.num_vertices


class TestReplay:
    @pytest.mark.parametrize("method", ("sequential", "rootset", "rootset-vec"))
    def test_frontier_series_reproduces_across_reruns(self, graph, vranks,
                                                      method, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(str(path)) as sink:
            maximal_independent_set(graph, vranks, method=method,
                                    tracer=Tracer(sink))
        first = frontier_series(read_trace(str(path)))
        rerun = Tracer(MemorySink())
        maximal_independent_set(graph, vranks, method=method, tracer=rerun)
        assert frontier_series(rerun.sink.events) == first
        assert len(first) > 0

    def test_rootset_twins_share_the_step_structure(self, graph, vranks):
        series = {}
        for method in ("rootset", "rootset-vec"):
            tracer = Tracer(MemorySink())
            maximal_independent_set(graph, vranks, method=method,
                                    tracer=tracer)
            series[method] = frontier_series(tracer.sink.events)
        assert series["rootset"] == series["rootset-vec"]

    def test_jsonl_round_trips_the_memory_events(self, graph, eranks, tmp_path):
        path = tmp_path / "mm.jsonl"
        mem = Tracer(MemorySink())
        with JSONLSink(str(path)) as sink:
            maximal_matching(graph, eranks, method="rootset-vec",
                             tracer=Tracer(sink))
        maximal_matching(graph, eranks, method="rootset-vec", tracer=mem)
        loaded = read_trace(str(path))
        assert len(loaded) == len(mem.sink.events)
        for got, want in zip(round_records(loaded),
                             round_records(mem.sink.events)):
            assert (got.frontier, got.decided, got.selected) == \
                   (want.frontier, want.decided, want.selected)

    def test_jsonl_lines_are_valid_json(self, graph, vranks, tmp_path):
        path = tmp_path / "t.jsonl"
        with JSONLSink(str(path)) as sink:
            maximal_independent_set(graph, vranks, method="parallel",
                                    tracer=Tracer(sink))
        for line in path.read_text().splitlines():
            assert json.loads(line)["event"] in ("run-begin", "round", "run-end")


class TestSinksAndSummary:
    def test_null_sink_stores_nothing(self, graph, vranks):
        sink = NullSink()
        assert sink.__slots__ == ()
        assert not hasattr(sink, "__dict__")
        tracer = Tracer(sink)
        res = maximal_independent_set(graph, vranks, method="rootset-vec",
                                      tracer=tracer)
        # Rounds were counted but no event object was retained anywhere.
        assert tracer.rounds == res.stats.steps

    def test_traced_result_identical_to_untraced(self, graph, vranks):
        plain = maximal_independent_set(graph, vranks, method="rootset-vec")
        traced = maximal_independent_set(graph, vranks, method="rootset-vec",
                                         tracer=Tracer(NullSink()))
        assert np.array_equal(plain.status, traced.status)
        assert plain.stats.work == traced.stats.work
        assert plain.stats.steps == traced.stats.steps

    def test_charges_mode_mirrors_machine_charges(self, graph, vranks):
        tracer = Tracer(MemorySink(), charges=True)
        res = maximal_independent_set(graph, vranks, method="rootset-vec",
                                      tracer=tracer)
        charges = [e for e in tracer.sink.events if e["event"] == "charge"]
        assert charges
        assert sum(c["work"] for c in charges) == res.stats.work

    def test_one_tracer_observes_consecutive_runs(self, graph, vranks):
        tracer = Tracer(MemorySink())
        maximal_independent_set(graph, vranks, method="rootset", tracer=tracer)
        maximal_independent_set(graph, vranks, method="rootset-vec",
                                tracer=tracer)
        begins = [e for e in tracer.sink.events if e["event"] == "run-begin"]
        assert len(begins) == 2
        assert tracer.runs == 2

    def test_trace_summary_renders_head_and_tail(self, graph, vranks):
        tracer = Tracer(MemorySink())
        maximal_independent_set(graph, vranks, method="sequential",
                                tracer=tracer)
        text = trace_summary(tracer.sink.events, max_rounds=10)
        assert "frontier" in text
        assert "..." in text  # 300 sequential rounds > 10 shown
        assert f"{graph.num_vertices} rounds" in text

    def test_trace_summary_empty(self):
        assert "(no round events)" in trace_summary([])


class TestKernelCounters:
    def test_counts_are_monotone_across_runs(self, graph, vranks, eranks):
        """Every kernel-composed engine is counted, MIS and MM; parallel-vec
        (unregistered, so called directly) runs on one worker so its
        kernels execute in this process."""
        el = graph.edge_list()
        direct = {maximal_independent_set: parallel_mis_vectorized,
                  maximal_matching: parallel_matching_vectorized}
        for method in ("rootset-vec", "parallel-vec", "prefix"):
            for solve, payload, ranks in (
                (maximal_independent_set, graph, vranks),
                (maximal_matching, el, eranks),
            ):
                if method == "parallel-vec":
                    run = lambda: direct[solve](payload, ranks, workers=1)
                else:
                    run = lambda: solve(payload, ranks, method=method)
                with KernelCounters() as kc:
                    run()
                    first = kc.snapshot()
                    run()
                    second = kc.snapshot()
                for name in KERNEL_NAMES:
                    assert second[name]["calls"] >= first[name]["calls"]
                    assert second[name]["elements"] >= first[name]["elements"]
                    assert second[name]["seconds"] >= first[name]["seconds"]
                label = f"{solve.__name__} method={method}"
                assert kc.total_calls > 0, label
                assert kc.total_elements > 0, label

    def test_parallel_vec_on_one_worker_counts_like_rootset_vec(
        self, graph, vranks, eranks
    ):
        """On one worker parallel-vec (called directly: it is not
        registered) runs rootset-vec's kernels in this process, so every
        kernel's call count must match; a kernel binding the counters
        miss shows up as a shortfall."""
        for solve, direct, payload, ranks in (
            (maximal_independent_set, parallel_mis_vectorized, graph, vranks),
            (maximal_matching, parallel_matching_vectorized,
             graph.edge_list(), eranks),
        ):
            calls = {}
            for label, run in (
                ("rootset-vec",
                 lambda: solve(payload, ranks, method="rootset-vec")),
                ("parallel-vec", lambda: direct(payload, ranks, workers=1)),
            ):
                with KernelCounters() as kc:
                    run()
                calls[label] = {n: c.calls for n, c in kc.counters.items()}
            assert calls["parallel-vec"] == calls["rootset-vec"], solve.__name__

    @pytest.mark.parametrize("prefix_frac", [None, 0.2])
    def test_prefix_counts_one_scatter_min_per_endpoint_per_step(
        self, graph, vranks, eranks, prefix_frac
    ):
        """The prefix engines' inner step is fully counted: MIS runs one
        ``scatter_min`` per step and one prefix gather per round that has
        an undecided slot (exactly the rounds holding a set member), whose
        arcs also serve every step's knock-out; MM runs one
        ``scatter_min`` per endpoint per step and gathers nothing.

        A fixed ``prefix_frac`` cuts windows of k slots, so a member of
        rank r sits in window ``r // k``.  The default windows follow the
        run's undecided share, so their slot boundaries are read from the
        run itself: each window charges one ``"scan"`` step of its slot
        count."""
        machine = Machine()
        with KernelCounters() as kc:
            res = maximal_independent_set(graph, vranks, method="prefix",
                                          prefix_frac=prefix_frac,
                                          machine=machine)
        steps, k = res.stats.steps, res.stats.prefix_size
        member_ranks = vranks[res.status == IN_SET]
        if prefix_frac is None:
            bounds = np.cumsum([s.work for s in machine.steps if s.tag == "scan"])
            assert bounds[-1] == graph.num_vertices
            windows = np.searchsorted(bounds, member_ranks, side="right")
        else:
            windows = member_ranks // k
        member_rounds = np.unique(windows).size
        assert kc.counters["scatter_min"].calls == steps
        assert kc.counters["frontier_gather"].calls == member_rounds
        assert kc.total_calls == steps + member_rounds

        with KernelCounters() as kc:
            res = maximal_matching(graph.edge_list(), eranks, method="prefix",
                                   prefix_frac=prefix_frac)
        assert kc.counters["scatter_min"].calls == 2 * res.stats.steps
        assert kc.total_calls == 2 * res.stats.steps

    def test_patch_list_covers_every_kernel_import(self):
        """A module that imports a frontier kernel by name at module level
        and is missing from ``repro.kernels.PATCH_MODULES`` runs its
        kernels uncounted and out of the chaos injector's reach.  (An
        import inside a function reads the patched package attribute.)"""
        import ast
        import pathlib

        import repro
        from repro.kernels import PATCH_MODULES

        root = pathlib.Path(repro.__file__).parent
        binders = set()
        for py in root.rglob("*.py"):
            for node in ast.parse(py.read_text()).body:
                if (isinstance(node, ast.ImportFrom)
                        and node.module in ("repro.kernels", "repro.kernels.frontier")
                        and any(a.name in KERNEL_NAMES for a in node.names)):
                    parts = py.relative_to(root.parent).with_suffix("").parts
                    binders.add(".".join(parts).removesuffix(".__init__"))
        # Shard workers run only in child processes, which no patch reaches.
        binders.discard("repro.backends.shard_worker")
        assert binders and binders <= set(PATCH_MODULES)

    def test_restores_kernels_on_exit(self):
        import repro.core.mis.rootset_vectorized as vec
        import repro.kernels.frontier as frontier

        before = frontier.frontier_gather
        before_vec = vec.frontier_gather
        with KernelCounters():
            assert frontier.frontier_gather is not before
        assert frontier.frontier_gather is before
        assert vec.frontier_gather is before_vec

    def test_not_reentrant(self):
        kc = KernelCounters()
        with kc:
            with pytest.raises(RuntimeError):
                kc.__enter__()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelCounters(["not_a_kernel"])

    def test_format_lists_fired_kernels(self, graph, vranks):
        with KernelCounters() as kc:
            maximal_independent_set(graph, vranks, method="rootset-vec")
        table = kc.format()
        assert "frontier_gather" in table
        assert "calls" in table

    def test_scalar_engine_fires_nothing(self, graph, vranks):
        with KernelCounters() as kc:
            maximal_independent_set(graph, vranks, method="sequential")
        assert kc.total_calls == 0


class TestReportTraceSection:
    def test_make_report_with_trace_renders_round_table(self, tmp_path):
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).resolve().parent.parent
                  / "scripts" / "make_report.py")
        spec = importlib.util.spec_from_file_location("make_report", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main(["--with-trace", str(tmp_path)]) == 0
        html = (tmp_path / "report.html").read_text()
        assert "Per-round telemetry" in html
        assert html.count("<tr><td>") >= 3  # several rounds rendered
        # Without the flag the section is absent.
        assert mod.main([str(tmp_path)]) == 0
        assert "Per-round telemetry" not in (tmp_path / "report.html").read_text()


class TestTracedEnginesStayCorrect:
    """Tracing must not perturb results, on a skewed input too."""

    def test_rmat_all_mis_engines_agree_under_tracing(self):
        g = rmat_graph(8, 700, seed=11)
        ranks = random_priorities(g.num_vertices, seed=12)
        results = {}
        for method in ("sequential", "parallel", "prefix", "rootset",
                       "rootset-vec"):
            results[method] = maximal_independent_set(
                g, ranks, method=method, tracer=Tracer(MemorySink())
            )
        ref = results["sequential"].status
        for method, res in results.items():
            assert np.array_equal(ref, res.status), method
