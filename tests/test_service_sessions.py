"""Stateful session lifecycle: service front door, crash replay, HTTP.

A session's contract is that every committed version equals a
from-scratch greedy solve of the current graph — including when workers
are hard-killed mid-mutation (the parent replays from committed state),
when the session is snapshotted and restored into a fresh service, and
when it is driven over the HTTP front door.  This suite pins each leg.
"""

import copy
import http.client
import json

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.options import SolveOptions
from repro.dynamic import IncrementalMatching, IncrementalMIS
from repro.errors import EngineError, InvalidGraphError, UnknownSessionError
from repro.graphs.builders import from_edges
from repro.graphs.generators import uniform_random_graph
from repro.service import ServiceConfig, SolverService
from repro.service.schema import encode_result

pytestmark = [pytest.mark.sessions, pytest.mark.service]


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(80, 240, seed=6)


@pytest.fixture(scope="module")
def pi(graph):
    return np.random.default_rng(8).permutation(graph.num_vertices)


@pytest.fixture(scope="module")
def svc():
    service = SolverService(ServiceConfig(workers=1)).start()
    yield service
    service.shutdown()


def _live(graph):
    el = graph.edge_list()
    return {(min(a, b), max(a, b)) for a, b in zip(el.u.tolist(), el.v.tolist())}


def _rebuild(n, live):
    edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
    return from_edges(n, edges[:, 0], edges[:, 1])


class TestServiceLifecycle:
    def test_mis_create_mutate_result_parity(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        assert info.version == 0 and info.problem == "mis"
        live = _live(graph)
        rng = np.random.default_rng(1)
        for version in (1, 2, 3):
            pool = sorted(live)
            dels = [pool[int(rng.integers(len(pool)))]]
            ins = [(0, 79)] if (0, 79) not in live else []
            stats = svc.mutate_session(info.session_id, ins, dels)
            live = (live - set(dels)) | set(ins)
            assert stats["version"] == version
            assert stats["work_ratio"] < 1.0
            result = svc.session_result(info.session_id)
            ref = maximal_independent_set(
                _rebuild(graph.num_vertices, live), pi, method="rootset-vec",
            )
            assert np.array_equal(result.status, ref.status)
        assert result.stats.aux["dynamic"]["batches"] == 3
        svc.close_session(info.session_id)

    def test_matching_session_parity(self, svc, graph):
        info = svc.create_session("matching", graph, seed=5)
        pool = sorted(_live(graph))
        svc.mutate_session(info.session_id, [], [pool[0], pool[1]])
        snap = svc.session_snapshot(info.session_id)
        maintainer = IncrementalMatching.from_state(snap["state"])
        ref = maximal_matching(
            maintainer.edge_list(), maintainer.current_ranks(),
            method="parallel-vec",
        )
        result = svc.session_result(info.session_id)
        assert np.array_equal(result.status, ref.status)
        svc.close_session(info.session_id)

    def test_info_list_and_close_taxonomy(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi, session_id="alpha")
        assert "alpha" in [i.session_id for i in svc.list_sessions()]
        assert svc.session_info("alpha").n == graph.num_vertices
        with pytest.raises(InvalidGraphError, match="already exists"):
            svc.create_session("mis", graph, pi, session_id="alpha")
        svc.close_session("alpha")
        with pytest.raises(UnknownSessionError):
            svc.session_info("alpha")
        with pytest.raises(UnknownSessionError):
            svc.mutate_session("alpha", [(0, 1)], [])

    def test_options_front_door(self, svc, graph):
        info = svc.create_session(
            "mis", graph, options=SolveOptions(seed=3, guards="full"),
        )
        ref = svc.create_session("mis", graph, seed=3, guards="full")
        a = svc.session_result(info.session_id)
        b = svc.session_result(ref.session_id)
        assert np.array_equal(a.status, b.status)
        with pytest.raises(EngineError, match="not both"):
            svc.create_session(
                "mis", graph, seed=4, options=SolveOptions(seed=3),
            )
        svc.close_session(info.session_id)
        svc.close_session(ref.session_id)

    def test_snapshot_restores_into_fresh_service(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        pool = sorted(_live(graph))
        svc.mutate_session(info.session_id, [], [pool[3]])
        snap = svc.session_snapshot(info.session_id)
        expected = svc.session_result(info.session_id)
        svc.close_session(info.session_id)

        other = SolverService(ServiceConfig(workers=1)).start()
        try:
            restored = other.restore_session(snap)
            assert restored.version == 1
            result = other.session_result(restored.session_id)
            assert np.array_equal(result.status, expected.status)
            # And the restored session keeps evolving.
            stats = other.mutate_session(restored.session_id, [], [pool[5]])
            assert stats["version"] == 2
        finally:
            other.shutdown()


class TestTimelineIsolation:
    def test_worker_cache_never_serves_an_abandoned_timeline(self, graph, pi):
        """A maintainer cached at (epoch, version) on one timeline must
        not be popped by a same-version mutation on a diverged timeline
        (closed-and-recreated id, or restore from an older snapshot)."""
        from repro.dynamic import jobs

        jobs._CACHE.clear()
        pool = sorted(_live(graph))
        base = jobs.create_session_state("mis", graph, pi)
        # Timeline A: v0 -> v1 deleting pool[0]; leaves a warm
        # maintainer cached for version 1 of epoch "a".
        jobs.mutate_session_state(
            copy.deepcopy(base["state"]), deletions=[pool[0]],
            epoch="a", version=0,
        )
        assert ("a", 1) in jobs._CACHE
        # Timeline B diverged at v1 on *another worker* (no cache write
        # here): its committed v1 state deletes pool[1] instead.
        b1 = jobs.mutate_session_state(
            copy.deepcopy(base["state"]), deletions=[pool[1]], version=0,
        )
        # B's next mutation ships version 1 under its own epoch — it
        # must rebuild from the shipped committed state, never pop
        # timeline A's warm maintainer for the same version.
        out = jobs.mutate_session_state(
            copy.deepcopy(b1["state"]), deletions=[pool[2]],
            epoch="b", version=1,
        )
        live = _live(graph) - {pool[1], pool[2]}
        ref = maximal_independent_set(
            _rebuild(graph.num_vertices, live), pi, method="rootset-vec",
        )
        got = IncrementalMIS.from_state(out["state"]).result()
        assert np.array_equal(got.status, ref.status)
        jobs._CACHE.clear()

    def test_commit_mints_a_fresh_epoch_per_timeline(self, svc, graph, pi):
        svc.create_session("mis", graph, pi, session_id="reborn")
        first = svc.sessions._sessions["reborn"].epoch
        snap = svc.session_snapshot("reborn")
        svc.close_session("reborn")
        svc.restore_session(snap)
        second = svc.sessions._sessions["reborn"].epoch
        assert first and second and first != second
        svc.close_session("reborn")

    def test_restore_refuses_live_session(self, svc, graph, pi):
        svc.create_session("mis", graph, pi, session_id="livewire")
        snap = svc.session_snapshot("livewire")
        with pytest.raises(InvalidGraphError, match="close it before restoring"):
            svc.restore_session(snap)
        svc.close_session("livewire")
        restored = svc.restore_session(snap)
        assert restored.session_id == "livewire"
        svc.close_session("livewire")

    def test_result_with_version_pairs_atomically(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        result, version = svc.session_result(info.session_id, with_version=True)
        assert version == 0 and result.status is not None
        svc.mutate_session(info.session_id, [], [sorted(_live(graph))[0]])
        result, version = svc.session_result(info.session_id, with_version=True)
        assert version == 1
        svc.close_session(info.session_id)


class TestCrashReplay:
    def test_sessions_survive_worker_kills(self, graph, pi):
        """Chaos-killed mutations are replayed from committed state and
        end bit-identical to an uninterrupted from-scratch solve."""
        svc = SolverService(ServiceConfig(
            workers=1, kill_probability=0.5, max_retries=10,
        )).start()
        try:
            info = svc.create_session("mis", graph, pi)
            live = _live(graph)
            rng = np.random.default_rng(13)
            for _ in range(6):
                pool = sorted(live)
                dels = [pool[int(rng.integers(len(pool)))]]
                svc.mutate_session(info.session_id, [], dels)
                live -= set(dels)
            crashes = svc.stats().as_dict()["worker_crashes"]
            result = svc.session_result(info.session_id)
        finally:
            svc.shutdown()
        assert crashes >= 1, "chaos produced no kills at p=0.5 over 7 jobs"
        ref = maximal_independent_set(
            _rebuild(graph.num_vertices, live), pi, method="rootset-vec",
        )
        assert np.array_equal(result.status, ref.status)

    def test_durable_store_restores_after_close(self, tmp_path, graph, pi):
        svc = SolverService(ServiceConfig(
            workers=1, session_dir=str(tmp_path),
        )).start()
        try:
            info = svc.create_session("mis", graph, pi, session_id="durable")
            pool = sorted(_live(graph))
            svc.mutate_session("durable", [], [pool[0]])
            expected = svc.session_result("durable")
            svc.close_session("durable")
            restored = svc.restore_session(session_id="durable")
            assert restored.version == 1
            assert np.array_equal(
                svc.session_result("durable").status, expected.status,
            )
        finally:
            svc.shutdown()


@pytest.mark.http
class TestHTTPSessions:
    @pytest.fixture(scope="class")
    def gateway(self, graph, pi):
        from repro.service.http import GatewayConfig, HTTPGateway

        gw = HTTPGateway(config=GatewayConfig(port=0), workers=1)
        gw.add_graph("g", graph, pi)
        with gw:
            yield gw

    @staticmethod
    def _raw_get(address, path):
        """(status, raw body bytes) — for byte-identity assertions."""
        conn = http.client.HTTPConnection(address[0], address[1], timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _inline(self, graph):
        el = graph.edge_list()
        return {
            "n": graph.num_vertices,
            "edges": np.stack([el.u, el.v], axis=1).tolist(),
        }

    def test_full_lifecycle_over_http(self, gateway, graph, pi):
        from repro.service.http import request_json

        addr = gateway.address
        status, _, created = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "session_id": "h1"},
        )
        assert status == 200 and created["version"] == 0

        pool = sorted(_live(graph))
        status, _, stats = request_json(
            addr, "POST", "/v1/sessions/h1/mutate",
            {"deletions": [list(pool[2])]},
        )
        assert status == 200
        assert stats["version"] == 1 and stats["work_ratio"] < 1.0

        status, raw = self._raw_get(addr, "/v1/sessions/h1/result")
        body = json.loads(raw)
        assert status == 200
        assert body["session_id"] == "h1" and body["version"] == 1
        live = _live(graph) - {pool[2]}
        ref = maximal_independent_set(
            _rebuild(graph.num_vertices, live), pi, method="rootset-vec",
        )
        assert body["status"] == ref.status.tolist()
        assert body["dynamic"]["batches"] == 1
        # The raw body is the reference dump of the committed result.
        committed = gateway.service.session_result("h1")
        assert raw == json.dumps(
            dict(encode_result("mis", committed), session_id="h1", version=1),
            separators=(",", ":"), sort_keys=True,
        ).encode()

        status, _, listing = request_json(addr, "GET", "/v1/sessions")
        assert status == 200
        assert "h1" in [s["session_id"] for s in listing["sessions"]]

        status, _, closed = request_json(addr, "DELETE", "/v1/sessions/h1")
        assert status == 200 and closed["closed"] is True
        status, _, err = request_json(addr, "GET", "/v1/sessions/h1")
        assert status == 404 and err["error"] == "UnknownSessionError"

    def test_create_accepts_inline_graph_and_options(self, gateway, graph):
        from repro.service.http import request_json

        addr = gateway.address
        status, _, created = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "matching", "graph": self._inline(graph),
             "options": {"seed": 5, "guards": "full"}},
        )
        assert status == 200
        sid = created["session_id"]
        status, _, body = request_json(addr, "GET", f"/v1/sessions/{sid}/result")
        assert status == 200 and body["problem"] == "matching"
        request_json(addr, "DELETE", f"/v1/sessions/{sid}")

    def test_http_validation_taxonomy(self, gateway):
        from repro.service.http import request_json

        addr = gateway.address
        status, _, err = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "color": "red"},
        )
        assert status == 400 and "color" in err["message"]
        status, _, err = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "nope"},
        )
        assert status == 404 and err["error"] == "UnknownGraphError"
        status, _, err = request_json(
            addr, "POST", "/v1/sessions/ghost/mutate", {"insertions": [[0, 1]]},
        )
        assert status == 404 and err["error"] == "UnknownSessionError"
        status, _, err = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "options": {"bogus": 1}},
        )
        assert status == 400 and "bogus" in err["message"]
        # The retired kernel-backend knob is an unknown option too.
        status, _, err = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "options": {"backend": "numpy"}},
        )
        assert status == 400 and "backend" in err["message"]
        # A non-dict options value is a 400, not an AttributeError 500.
        status, _, err = request_json(
            addr, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "options": [1, 2]},
        )
        assert status == 400 and err["error"] == "BadRequestError"
