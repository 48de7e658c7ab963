"""A bad solve option fails with a typed error where it enters.

``SolveOptions`` checks the prefix knobs by the engines' own rule
(``resolve_prefix_size``: an integer ``>= 1`` or a fraction in ``(0, 1]``,
at most one of them), and ``SolveRequest`` runs a
solver problem's options dict through ``SolveOptions.from_wire``.  So no
entry point — library, fallback chain, service, HTTP, CLI — turns a
caller's mistake into a degraded answer, a burned retry or a worker-side
``TypeError``.  Direct engine calls keep their ``ValueError``
(``tests/test_mis_engines.py::TestPrefixValidation``).
"""

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.mis.prefix import prefix_greedy_mis
from repro.core.options import SolveOptions
from repro.core.orderings import random_priorities
from repro.errors import EngineError
from repro.graphs.generators import uniform_random_graph
from repro.graphs.io import write_adjacency_graph
from repro.service import ServiceConfig, SolverService, SolveRequest
from repro.service.http import GatewayConfig, HTTPGateway, request_json

G = uniform_random_graph(60, 180, seed=3)

BAD = [
    {"prefix_size": -1},
    {"prefix_size": 0},
    {"prefix_size": True},
    {"prefix_size": 2.5},
    {"prefix_size": "8"},
    {"prefix_frac": 0},
    {"prefix_frac": 1.5},
    {"prefix_frac": float("nan")},
    {"prefix_frac": False},
    {"prefix_size": 4, "prefix_frac": 0.5},
]
IDS = ["size-1", "size0", "size-bool", "size-float", "size-str", "frac0",
       "frac1.5", "frac-nan", "frac-bool", "both"]


@pytest.mark.parametrize("bad", BAD, ids=IDS)
def test_solve_options_reject_bad_prefix_knobs(bad):
    with pytest.raises(EngineError, match="prefix"):
        SolveOptions(**bad)
    with pytest.raises(EngineError, match="prefix"):
        SolveOptions.from_wire(bad)


@pytest.mark.parametrize("good", [
    {"prefix_size": 1}, {"prefix_size": np.int64(7)}, {"prefix_size": 8.0},
    {"prefix_frac": 1}, {"prefix_frac": 0.02}, {"prefix_frac": np.float64(0.5)},
])
def test_good_prefix_knobs_still_pass(good):
    assert SolveOptions(**good).to_wire() == good


@pytest.mark.parametrize("knobs, same_as", [
    ({"prefix_size": 8.0}, {"prefix_size": 8}),
    ({"prefix_frac": True}, {"prefix_frac": 1.0}),
], ids=["size-integral-float", "frac-true"])
def test_front_door_takes_what_the_engine_takes(knobs, same_as):
    """One rule for both: an integral float (what a JSON client may send
    for 8) is a prefix size at the front door as in a direct call."""
    pi = random_priorities(G.num_vertices, seed=1)
    ref = repro.solve("mis", G, pi, **same_as)
    for got in (prefix_greedy_mis(G, pi, **knobs), repro.solve("mis", G, pi, **knobs)):
        assert np.array_equal(got.status, ref.status)
        assert got.stats.rounds == ref.stats.rounds


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("problem", ["mis", "matching"])
@pytest.mark.parametrize("bad", BAD, ids=IDS)
def test_library_solve_raises_instead_of_degrading(problem, bad, fallback):
    payload = G if problem == "mis" else G.edge_list()
    with pytest.raises(EngineError):
        repro.solve(problem, payload, seed=1, fallback=fallback, **bad)


@pytest.mark.parametrize("options", BAD + [{"workers": 2}, {"budget": 1.0}],
                         ids=IDS + ["unknown", "local-only"])
def test_solve_request_rejects_bad_options(options):
    with pytest.raises(EngineError):
        SolveRequest("mis", G, options=dict(options, seed=1))
    with pytest.raises(EngineError):
        SolveRequest("mm", G.edge_list(), options=dict(options), method="prefix")


def test_call_requests_keep_their_options_unchecked():
    request = SolveRequest("call", {"module": "math", "func": "sqrt"}, options={"x": 1})
    assert request.options == {"x": 1}


@pytest.mark.service
def test_service_runs_no_attempt_for_a_bad_option():
    svc = SolverService(ServiceConfig(workers=1)).start()
    try:
        for bad in ({"prefix_size": -1}, {"workers": 2}):
            with pytest.raises(EngineError):
                svc.submit(SolveRequest("mis", G, options=dict(bad, seed=1)))
        stats = svc.stats()
        assert (stats.submitted, stats.retries, stats.degraded) == (0, 0, 0)
        breaker = svc.breaker("mis", "prefix")
        assert breaker.state == "closed" and breaker._failures == 0
        good = svc.solve(SolveRequest("mis", G, options={"seed": 1, "prefix_size": 8}))
        assert "degraded" not in good.stats.aux
    finally:
        svc.shutdown()


@pytest.mark.http
@pytest.mark.service
def test_http_answers_400():
    with HTTPGateway(config=GatewayConfig(port=0), workers=1) as gw:
        gw.add_graph("g", G)
        for bad in ({"prefix_size": 0}, {"prefix_frac": 2}, {"prefix_size": 3, "prefix_frac": 0.5}):
            status, _, body = request_json(
                gw.address, "POST", "/v1/solve", {"graph": "g", "seed": 1, "options": bad})
            assert status == 400, body
            assert "prefix" in body["message"]
        status, _, body = request_json(
            gw.address, "POST", "/v1/solve", {"graph": "g", "seed": 1, "options": {"prefix_size": 8.0}})
        assert status == 200, body


def test_cli_exits_2(tmp_path, capsys):
    path = tmp_path / "g.adj"
    write_adjacency_graph(G, str(path))
    assert main(["mis", str(path), "--prefix-size", "0"]) == 2
    assert "prefix_size" in capsys.readouterr().err
    assert main(["mm", str(path), "--prefix-size", "-3", "--fallback"]) == 2
