"""Tests for the benchmark harness: workloads, sweeps, figures, reporting."""

import json

import numpy as np
import pytest

from repro.bench.figures import (
    FigureData,
    figure1_panels,
    figure2_panels,
    figure3,
    figure4,
    luby_work_comparison,
)
from repro.bench.reporting import format_table, render_figure, save_figure_json
from repro.bench.sweeps import (
    default_prefix_sizes,
    prefix_sweep_mis,
    prefix_sweep_mm,
    thread_sweep_mis,
    thread_sweep_mm,
)
from repro.bench.workloads import (
    bench_scale,
    paper_random_graph,
    paper_rmat_graph,
    workload_pair,
)
from repro.core.orderings import random_priorities
from repro.graphs.generators import uniform_random_graph


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(1500, 7500, seed=0)


class TestWorkloads:
    def test_tiny_scale_counts(self):
        g = paper_random_graph("tiny")
        assert g.num_vertices == 2_000
        assert g.num_edges == 10_000

    def test_rmat_tiny(self):
        g = paper_rmat_graph("tiny")
        assert g.num_vertices == 2**11

    def test_ratio_preserved(self):
        g = paper_random_graph("tiny")
        assert g.num_edges == 5 * g.num_vertices

    def test_workload_pair_keys(self):
        pair = workload_pair("tiny")
        assert set(pair) == {"random", "rmat"}

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert bench_scale() == "tiny"

    def test_env_scale_paper(self, monkeypatch):
        # Only the tier's name and sizes: building it takes several GB.
        from repro.bench.workloads import _SCALES

        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale() == "paper"
        assert _SCALES["paper"] == (10_000_000, 50_000_000, 24, 50_000_000)

    def test_env_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            bench_scale()

    def test_deterministic(self):
        assert paper_random_graph("tiny") == paper_random_graph("tiny")


class TestPrefixSizes:
    def test_endpoints(self):
        sizes = default_prefix_sizes(1000)
        assert sizes[0] == 1
        assert sizes[-1] == 1000

    def test_sorted_unique(self):
        sizes = default_prefix_sizes(5000, points=9)
        assert sizes == sorted(set(sizes))

    def test_total_one(self):
        assert default_prefix_sizes(1) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            default_prefix_sizes(0)
        with pytest.raises(ValueError):
            default_prefix_sizes(10, points=1)


class TestSweeps:
    def test_mis_sweep_shape_properties(self, graph):
        n = graph.num_vertices
        ranks = random_priorities(n, seed=1)
        pts = prefix_sweep_mis(graph, ranks, [1, 50, n], processors=(1, 32))
        # Same MIS at every point.
        assert len({p.set_size for p in pts}) == 1
        # Work monotone in prefix size; rounds anti-monotone.
        assert pts[0].work <= pts[-1].work
        assert pts[0].rounds == n and pts[-1].rounds == 1
        # Normalized work starts near 1 (sequential-like).
        assert pts[0].norm_work < 1.3
        assert all(32 in p.sim_times and 1 in p.sim_times for p in pts)

    def test_mm_sweep_shape_properties(self, graph):
        el = graph.edge_list()
        m = el.num_edges
        ranks = random_priorities(m, seed=1)
        pts = prefix_sweep_mm(el, ranks, [1, 100, m], processors=(32,))
        assert len({p.set_size for p in pts}) == 1
        assert pts[0].rounds == m and pts[-1].rounds == 1
        assert pts[0].norm_work < 1.3

    def test_thread_sweep_mis_structure(self, graph):
        curves = thread_sweep_mis(graph, threads=(1, 8, 32), prefix_size=64)
        assert set(curves) == {"prefix", "luby", "serial"}
        # Serial flat; parallel engines decrease.
        serial = curves["serial"]
        assert serial[1] == serial[32]
        assert curves["prefix"][32] < curves["prefix"][1]
        assert curves["luby"][32] < curves["luby"][1]

    def test_thread_sweep_mm_structure(self, graph):
        curves = thread_sweep_mm(graph.edge_list(), threads=(1, 32), prefix_size=128)
        assert set(curves) == {"prefix", "serial"}
        assert curves["prefix"][32] < curves["prefix"][1]


class TestFigures:
    def test_figure1_panels(self, graph):
        panels = figure1_panels(graph, "random", prefix_sizes=[1, 64, graph.num_vertices])
        assert set(panels) == {"work", "rounds", "time"}
        xs, ys = panels["work"].series["work_ratio"]
        assert len(xs) == 3
        assert ys[0] <= ys[-1]

    def test_figure2_panels(self, graph):
        el = graph.edge_list()
        panels = figure2_panels(el, "random", prefix_sizes=[1, 64, el.num_edges])
        xs, ys = panels["rounds"].series["rounds_frac"]
        assert ys[0] == 1.0  # prefix 1 -> rounds == m

    def test_figure3_series(self, graph):
        fig = figure3(graph, "random", threads=(1, 32))
        assert set(fig.series) == {"prefix-based MIS", "Luby", "serial MIS"}
        assert fig.figure_id == "fig3a"

    def test_figure4_series(self, graph):
        fig = figure4(graph.edge_list(), "rmat", threads=(1, 32))
        assert fig.figure_id == "fig4b"
        assert set(fig.series) == {"prefix-based MM", "serial MM"}

    def test_luby_comparison_favors_prefix(self, graph):
        cmp = luby_work_comparison(graph, seed=0)
        assert cmp["work_ratio"] > 1.5


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")

    def test_format_table_bad_row(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["a"], [[1, 2]])

    def test_render_figure(self):
        fig = FigureData(
            figure_id="t",
            title="demo",
            x_label="x",
            y_label="y",
            series={"s": ([1.0, 2.0], [3.0, 4.0])},
            notes="note!",
        )
        out = render_figure(fig)
        assert "demo" in out and "note!" in out and "s" in out

    def test_save_figure_json(self, tmp_path):
        fig = FigureData(
            figure_id="t", title="demo", x_label="x", y_label="y",
            series={"s": ([1.0], [2.0])},
        )
        p = tmp_path / "fig.json"
        save_figure_json(fig, p)
        data = json.loads(p.read_text())
        assert data["figure_id"] == "t"
        assert data["series"]["s"] == {"x": [1.0], "y": [2.0]}
