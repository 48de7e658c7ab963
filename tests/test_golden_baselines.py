"""Golden-baseline regression: fresh figure runs must match committed data.

The whole pipeline — graph generation, priority draws, every engine, the
cost model — is deterministic given seeds, so regenerating the tiny-scale
figures must reproduce the committed JSON *exactly* (tolerance 1e-12, to
absorb only floating-point serialization).  Any intentional change to an
engine's accounting or to the cost-model constants must regenerate these
files (see the header of each), which makes such changes visible in review.

Baselines are regenerated with::

    python - <<'PY'
    from repro.bench.figures import figure1_panels, figure2_panels, figure3, figure4
    from repro.bench.reporting import save_figure_json
    from repro.bench.workloads import paper_random_graph
    g = paper_random_graph("tiny")
    el = g.edge_list()
    for fig in [*figure1_panels(g, "random", seed=1).values(),
                *figure2_panels(el, "random", seed=1).values()]:
        save_figure_json(fig, f"tests/baselines/{fig.figure_id}.json")
    save_figure_json(figure3(g, "random", seed=1), "tests/baselines/fig3a.json")
    save_figure_json(figure4(el, "random", seed=1), "tests/baselines/fig4a.json")
    PY

Figures 1 and 3a pin the MIS engines' charges; Figures 2 and 4a pin the
MM engines' (work, rounds and simulated time of ``prefix``, and the
serial matching's).
"""

import json
import pathlib

import pytest

from repro.bench.figures import figure1_panels, figure2_panels, figure3, figure4
from repro.bench.regression import compare_payloads
from repro.bench.workloads import paper_random_graph

BASELINES = pathlib.Path(__file__).resolve().parent / "baselines"


def _payload(fig):
    return {
        "figure_id": fig.figure_id,
        "series": {
            name: {"x": list(map(float, xs)), "y": list(map(float, ys))}
            for name, (xs, ys) in fig.series.items()
        },
    }


@pytest.fixture(scope="module")
def tiny_graph():
    return paper_random_graph("tiny")


@pytest.fixture(scope="module")
def fresh_fig1(tiny_graph):
    return figure1_panels(tiny_graph, "random", seed=1)


@pytest.fixture(scope="module")
def fresh_fig2(tiny_graph):
    return figure2_panels(tiny_graph.edge_list(), "random", seed=1)


def _assert_matches_baseline(fig):
    baseline = json.loads((BASELINES / f"{fig.figure_id}.json").read_text())
    report = compare_payloads(baseline, _payload(fig), tolerance=1e-12)
    assert report.matched, report.summary()


class TestGoldenBaselines:
    @pytest.mark.parametrize("panel", ["work", "rounds", "time"])
    def test_figure1_panels_match(self, fresh_fig1, panel):
        _assert_matches_baseline(fresh_fig1[panel])

    @pytest.mark.parametrize("panel", ["work", "rounds", "time"])
    def test_figure2_panels_match(self, fresh_fig2, panel):
        _assert_matches_baseline(fresh_fig2[panel])

    def test_figure3_matches(self, tiny_graph):
        _assert_matches_baseline(figure3(tiny_graph, "random", seed=1))

    def test_figure4_matches(self, tiny_graph):
        _assert_matches_baseline(figure4(tiny_graph.edge_list(), "random", seed=1))

    def test_baselines_carry_expected_series(self):
        data = json.loads((BASELINES / "fig3a.json").read_text())
        assert set(data["series"]) == {"prefix-based MIS", "Luby", "serial MIS"}
        data = json.loads((BASELINES / "fig4a.json").read_text())
        assert set(data["series"]) == {"prefix-based MM", "serial MM"}
