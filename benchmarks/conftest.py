"""Shared fixtures for the figure-regeneration benchmarks.

Scale is controlled by ``REPRO_BENCH_SCALE`` (tiny/small/default/large/
paper, default ``small``); every figure's data table is written to ``results/``
next to this directory so EXPERIMENTS.md can reference concrete runs.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.reporting import render_figure, save_figure_json
from repro.bench.workloads import paper_random_graph, paper_rmat_graph

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def random_graph():
    """The paper's sparse uniform graph at the configured scale."""
    return paper_random_graph()


@pytest.fixture(scope="session")
def rmat_graph_fx():
    """The paper's rMat graph at the configured scale."""
    return paper_rmat_graph()


@pytest.fixture(scope="session")
def record_figure(results_dir):
    """Write a FigureData's table (.txt) and series (.json) to results/."""

    def _record(figure) -> str:
        text = render_figure(figure)
        (results_dir / f"{figure.figure_id}.txt").write_text(text + "\n")
        save_figure_json(figure, results_dir / f"{figure.figure_id}.json")
        return text

    return _record
