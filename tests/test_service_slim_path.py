"""The slim solve path: the worker ships answers, the parent re-joins inputs.

A solve reply carries ``status``, the run stats, and ``ranks`` only when
the worker drew π from a seed; the parent re-joins π (as a private int64
copy) and a matching's edge arrays from the request.  A registered graph
crosses the pipe as its segment name for both problems, and the gateway
writes each registered graph's ``edge_u``/``edge_v`` bytes once.  None of
this may change a result or a body: the tests here pin
:class:`SolverService` results to in-process :func:`solve` field for
field, and every HTTP body to ``json.dumps(encode_result(...))``.
"""

import http.client
import json

import numpy as np
import pytest

from repro.backends.sharedmem import SharedCSR
from repro.core.engines import engine_methods, solve
from repro.core.options import SolveOptions
from repro.errors import GraphFormatError
from repro.graphs.csr import EdgeList
from repro.graphs.generators import uniform_random_graph
from repro.service import SolveRequest, SolverService
from repro.service.http import GatewayConfig, HTTPGateway
from repro.service.schema import decode_solve, encode_result
from repro.service.service import _Ticket
from repro.service.shared import detach_shared
from repro.service.worker import encode_payload, execute_job

from conftest import race_the_next_solve

pytestmark = pytest.mark.service

STAT_FIELDS = ("algorithm", "n", "m", "work", "depth", "steps", "rounds", "prefix_size")
SERVICE_AUX = ("service", "degraded", "fallback_engine")


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(300, 1200, seed=4)


@pytest.fixture(scope="module")
def service():
    with SolverService(workers=1, tick=0.005, cache_entries=16) as svc:
        yield svc


def _assert_same_result(got, ref):
    """Field for field, in values and dtype; aux minus the service's own keys."""
    fields = ["status", "ranks"] + (["edge_u", "edge_v"] if hasattr(ref, "edge_u") else [])
    for name in fields:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in STAT_FIELDS:
        assert getattr(got.stats, name) == getattr(ref.stats, name), name
    aux = {k: v for k, v in got.stats.aux.items() if k not in SERVICE_AUX}
    assert aux == ref.stats.aux


# -- the worker's reply -------------------------------------------------------


def _job(problem, payload, ranks=None, **extra):
    return dict({
        "id": 0, "problem": problem, "payload": encode_payload(payload),
        "ranks": ranks, "method": "prefix", "options": {"seed": 5},
    }, **extra)


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_reply_ships_ranks_only_when_the_job_carried_none(graph, problem):
    payload = graph if problem == "mis" else graph.edge_list()
    size = graph.num_vertices if problem == "mis" else graph.num_edges
    drawn = execute_job(_job(problem, payload))
    assert set(drawn) == {"id", "ok", "kind", "status", "stats", "ranks"}
    ref = solve(problem, payload, method="prefix", seed=5)
    assert np.array_equal(drawn["ranks"], ref.ranks)
    pi = np.random.default_rng(1).permutation(size)
    given = execute_job(_job(problem, payload, pi))
    assert set(given) == {"id", "ok", "kind", "status", "stats"}


def test_reply_for_a_registered_pi_ships_no_ranks(graph):
    pi = np.random.default_rng(2).permutation(graph.num_vertices)
    shared = SharedCSR.create(graph, pi)
    try:
        job = _job("mis", graph, None, ranks_shared=True)
        job["payload"] = {"kind": "shared", "name": shared.name,
                          "fingerprint": shared.fingerprint}
        reply = execute_job(job)
        assert "ranks" not in reply
        ref = solve("mis", graph, pi, method="prefix")
        assert np.array_equal(reply["status"], ref.status)
    finally:
        detach_shared(shared.name)
        shared.close()
        shared.unlink()


def test_gateway_mm_job_for_a_registered_graph_is_the_segment_name(graph):
    gw = HTTPGateway(workers=1)
    record = gw.add_graph("g", graph)
    gw._register_record(record)
    try:
        request, _ = decode_solve(
            {"problem": "mm", "graph": "g", "seed": 3},
            graph_resolver=gw._registered_payload,
        )
        assert request.payload is record.graph
        job = gw.service._build_job(_Ticket(0, request, 0.0), "prefix", 0.0)
        assert job["payload"] == {"kind": "shared", "name": record.segment,
                                  "fingerprint": record.fingerprint}
        assert job["ranks"] is None
        assert not any(isinstance(v, np.ndarray) for v in job.values())
    finally:
        gw.service.release_graph(record.graph)


# -- SolverService results against in-process solve ----------------------------


def test_seed_drawn_pi_matches_in_process(service, graph):
    el = graph.edge_list()
    for problem, payload in (("mis", graph), ("matching", el), ("matching", graph)):
        got = service.solve(SolveRequest(problem, payload, options={"seed": 9}), timeout=60)
        _assert_same_result(got, solve(problem, payload, seed=9))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_explicit_pi_matches_in_process(service, graph, dtype):
    el = graph.edge_list()
    rng = np.random.default_rng(3)
    for problem, payload in (("mis", graph), ("matching", el), ("matching", graph)):
        size = graph.num_vertices if problem == "mis" else graph.num_edges
        pi = rng.permutation(size).astype(dtype)
        got = service.solve(SolveRequest(problem, payload, ranks=pi), timeout=60)
        _assert_same_result(got, solve(problem, payload, pi))
        assert got.ranks is not pi and not np.shares_memory(got.ranks, pi)


def test_registered_pi_matches_in_process(service, graph):
    el = graph.edge_list()
    rng = np.random.default_rng(4)
    for problem, payload, size in (("mis", graph, graph.num_vertices),
                                   ("matching", el, graph.num_edges)):
        pi = rng.permutation(size)
        service.register_graph(payload, pi)
        try:
            got = service.solve(SolveRequest(problem, payload, ranks=pi), timeout=60)
            assert got.stats.aux["service"]["shared_payload"]
            _assert_same_result(got, solve(problem, payload, pi))
        finally:
            service.release_graph(payload)


def test_degraded_attempt_matches_the_served_engine(graph):
    el = graph.edge_list()
    with SolverService(workers=1, tick=0.005, breaker_reset_seconds=60.0) as svc:
        breaker = svc.breaker("matching", SolveOptions().method)
        for _ in range(svc.config.breaker_threshold):
            breaker.record_failure()
        pi = np.random.default_rng(5).permutation(graph.num_edges)
        for ranks, options in ((None, {"seed": 2}), (pi, {})):
            got = svc.solve(SolveRequest("matching", el, ranks=ranks, options=options),
                            timeout=60)
            served = got.stats.aux["fallback_engine"]
            assert got.stats.aux["degraded"] and served != SolveOptions().method
            _assert_same_result(got, solve("matching", el, ranks, method=served, **options))


@pytest.mark.parametrize("registered", [False, True])
def test_mutating_pi_after_the_solve_changes_no_result(service, graph, registered):
    el = graph.edge_list()
    rng = np.random.default_rng(6 + registered)  # distinct π per case: no hits
    for problem, payload, size in (("mis", graph, graph.num_vertices),
                                   ("matching", el, graph.num_edges)):
        pi = rng.permutation(size)
        if registered:
            service.register_graph(payload, pi)
        try:
            request = SolveRequest(problem, payload, ranks=pi)
            key = service.request_cache_key(request)
            result, source = service.solve_cached(request, timeout=60)
            assert source == "miss"
            before = result.ranks.copy()
            pi[0], pi[1] = pi[1], pi[0]
            assert np.array_equal(result.ranks, before)
            assert np.array_equal(service.cache.get(key).ranks, before)
        finally:
            if registered:
                service.release_graph(payload)


def test_status_length_mismatch_is_a_typed_error(service, graph):
    el = graph.edge_list()
    el = EdgeList(el.num_vertices, el.u.copy(), el.v.copy())
    service.register_graph(el)
    try:
        # The segment holds the registered edges; the parent's object now
        # names fewer, so the re-joined arrays cannot match the answer.
        el.u, el.v = el.u[:-1], el.v[:-1]
        with pytest.raises(GraphFormatError, match="edges"):
            service.solve(SolveRequest("matching", el, options={"seed": 1}), timeout=60)
    finally:
        service.release_graph(el)


def test_explicit_pi_counter_counts_requests_that_carry_ranks(service, graph):
    pi = np.random.default_rng(7).permutation(graph.num_vertices)
    before = service.stats()
    requests = [
        SolveRequest("mis", graph, ranks=pi),
        SolveRequest("mis", graph, options={"seed": 1}),
        SolveRequest("matching", graph, options={"seed": 2}),
        SolveRequest("mis", graph, ranks=pi[::-1].copy()),
        SolveRequest("matching", graph,
                     ranks=np.random.default_rng(8).permutation(graph.num_edges)),
    ]
    service.solve_many(requests)
    after = service.stats()
    assert after.submitted - before.submitted == 5
    assert after.explicit_ranks - before.explicit_ranks == 3
    assert after.as_dict()["explicit_ranks"] == after.explicit_ranks


# -- HTTP bodies --------------------------------------------------------------


def _call(address, method, path, obj=None):
    conn = http.client.HTTPConnection(address[0], address[1], timeout=60)
    try:
        body = None if obj is None else json.dumps(obj).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.getheader("X-Repro-Cache"), response.read()
    finally:
        conn.close()


def _reference_body(result, **extra):
    return json.dumps(
        dict(encode_result("matching", result), **extra),
        separators=(",", ":"), sort_keys=True,
    ).encode()


def test_mm_bodies_equal_the_reference_dump(graph, monkeypatch):
    other = uniform_random_graph(200, 700, seed=5)
    el = other.edge_list()
    ref = {(name, seed): solve("matching", g, seed=seed)
           for name, g in (("g", graph), ("h", other)) for seed in (1, 2, 3)}

    def mm(name, seed):
        return {"problem": "mm", "graph": name, "seed": seed}

    gw = HTTPGateway(config=GatewayConfig(port=0), workers=1, cache_entries=8)
    gw.add_graph("g", graph)
    gw.add_graph("h", other)
    with gw:
        addr = gw.address
        # Two cold bodies of one graph: the second splices the edge bytes
        # the first wrote.
        for seed in (1, 2):
            assert _call(addr, "POST", "/v1/solve", mm("g", seed)) == (
                200, "miss", _reference_body(ref["g", seed]))
        assert _call(addr, "POST", "/v1/solve", mm("g", 2)) == (
            200, "hit", _reference_body(ref["g", 2]))
        assert _call(addr, "POST", "/v1/solve", mm("h", 1)) == (
            200, "miss", _reference_body(ref["h", 1]))

        items = [
            mm("g", 2),
            mm("h", 3),
            mm({"n": other.num_vertices,
                "edges": np.stack([el.u, el.v], axis=1).tolist()}, 3),
        ]
        status, _, raw = _call(addr, "POST", "/v1/batch", {"requests": items})
        assert status == 200
        assert raw == b'{"results":[' + b",".join([
            _reference_body(ref["g", 2], ok=True, cache="hit"),
            _reference_body(ref["h", 3], ok=True, cache="miss"),
            _reference_body(ref["h", 3], ok=True, cache="miss"),
        ]) + b"]}"

        # Two registered graphs never share edge bytes.
        g_fields, h_fields = gw._graphs["g"].edge_fields, gw._graphs["h"].edge_fields
        assert g_fields[0] != h_fields[0]
        assert g_fields[1]["edge_u"] != h_fields[1]["edge_u"]

        # /v1/metrics counts the solves that carry their own π.
        def explicit():
            return json.loads(_call(addr, "GET", "/v1/metrics")[2])["service"]["explicit_ranks"]

        before = explicit()
        rng = np.random.default_rng(9)
        status, _, _ = _call(addr, "POST", "/v1/batch", {"requests": [
            mm("g", 7),
            {"problem": "mm", "graph": "g",
             "ranks": rng.permutation(graph.num_edges).tolist()},
            {"problem": "mis", "graph": "g", "seed": 4},
            {"problem": "mis", "graph": "g",
             "ranks": rng.permutation(graph.num_vertices).tolist()},
        ]})
        assert status == 200
        assert explicit() - before == 2

        for method in engine_methods("matching"):
            breaker = gw.service.breaker("matching", method)
            for _ in range(gw.service.config.breaker_threshold):
                breaker.record_failure()
        # Every engine is open, but the entry never expires: a hit.
        assert _call(addr, "POST", "/v1/solve", mm("g", 2)) == (
            200, "hit", _reference_body(ref["g", 2]))
        # The solve fails after a racing request stored the answer:
        # stale, encoded afresh around the graph's kept edge bytes.
        race_the_next_solve(gw.service, monkeypatch)
        gw._body_cache.clear()
        assert _call(addr, "POST", "/v1/solve", mm("g", 2)) == (
            200, "stale", _reference_body(ref["g", 2]))

        released = gw._graphs["h"]
        assert _call(addr, "DELETE", "/v1/graphs/h")[0] == 200
        assert released.edge_fields is None
