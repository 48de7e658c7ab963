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
import time

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.options import SolveOptions
from repro.dynamic import IncrementalMatching, IncrementalMIS, result_from_state
from repro.errors import (
    EngineError,
    InvalidGraphError,
    InvariantViolationError,
    UnknownSessionError,
)
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
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
            method="prefix",
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
        base = IncrementalMIS(graph, pi).to_state()
        # Timeline A: v0 -> v1 deleting pool[0]; leaves a warm
        # maintainer cached for version 1 of epoch "a".
        jobs.mutate_session_state(
            copy.deepcopy(base), deletions=[pool[0]],
            epoch="a", version=0,
        )
        assert ("a", 1) in jobs._CACHE
        # Timeline B diverged at v1 on *another worker* (no cache write
        # here): its committed v1 state deletes pool[1] instead.
        b1 = jobs.mutate_session_state(
            copy.deepcopy(base), deletions=[pool[1]], version=0,
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


def _same_arrays(a, b):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype and np.array_equal(value, b[key]), key
        else:
            assert value == b[key], key


class TestSlimMutate:
    """A mutate ships the batch; the committed state crosses the pipe only
    when the worker lacks the maintainer and answers ``state_needed``."""

    @staticmethod
    def _spy(svc, monkeypatch):
        """Per worker call: (state shipped, reply was state_needed)."""
        calls = []
        real = svc.sessions._call

        def spy(func, kwargs, timeout_s):
            reply = real(func, kwargs, timeout_s)
            calls.append(("state" in kwargs, bool(reply.get("state_needed"))))
            return reply

        monkeypatch.setattr(svc.sessions, "_call", spy)
        return calls

    @pytest.mark.parametrize("problem", ["mis", "matching"])
    @pytest.mark.parametrize("lose", ["respawn", "evict"])
    def test_a_lost_maintainer_asks_for_the_state_once(
        self, graph, pi, problem, lose, monkeypatch
    ):
        from repro.dynamic import jobs

        pool = sorted(_live(graph))
        svc = SolverService(ServiceConfig(workers=1)).start()
        try:
            sid = svc.create_session(problem, graph, pi if problem == "mis" else None,
                                     seed=7).session_id
            calls = self._spy(svc, monkeypatch)
            svc.mutate_session(sid, [], [pool[0]])   # a fresh epoch: cold
            svc.mutate_session(sid, [(0, 79)] if (0, 79) not in pool else [], [pool[1]])
            assert calls == [(False, True), (True, False), (False, False)]
            if lose == "respawn":
                worker = svc._pool.workers()[0]
                worker.process.kill()
                worker.process.join(10)
                deadline = time.monotonic() + 10
                while svc.stats().worker_restarts < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
            else:  # more sessions than the worker's cache holds
                for _ in range(jobs._CACHE_MAX):
                    other = svc.create_session("mis", graph, pi).session_id
                    svc.mutate_session(other, [], [pool[2]])
            committed = copy.deepcopy(svc.sessions._sessions[sid].state)
            del calls[:]
            stats = svc.mutate_session(sid, [], [pool[2]])
            assert calls == [(False, True), (True, False)]
            assert stats["version"] == 3
            expected = jobs.mutate_session_state(committed, [], [pool[2]])
            _same_arrays(svc.sessions._sessions[sid].state, expected["state"])
            assert (stats["size"], stats["m"]) == (expected["size"], expected["m"])
        finally:
            svc.shutdown()

    def test_a_rejected_batch_keeps_the_worker_warm(self, svc, graph, pi, monkeypatch):
        sid = svc.create_session("mis", graph, pi).session_id
        pool = sorted(_live(graph))
        svc.mutate_session(sid, [], [pool[0]])
        calls = self._spy(svc, monkeypatch)
        with pytest.raises(InvalidGraphError, match="already present"):
            svc.mutate_session(sid, [pool[1]], [])
        assert svc.mutate_session(sid, [], [pool[1]])["version"] == 2
        # Neither call shipped the state: the rejected batch changed
        # nothing, so its maintainer stayed cached for version 1.
        assert calls == [(False, False)]
        svc.close_session(sid)

    @pytest.mark.parametrize("problem", ["mis", "matching"])
    def test_full_guards_compare_the_worker_arrays(self, svc, graph, pi, problem):
        sid = svc.create_session(problem, graph, pi if problem == "mis" else None,
                                 seed=7, guards="full").session_id
        pool = sorted(_live(graph))
        svc.mutate_session(sid, [], [pool[0]])
        record = svc.sessions._sessions[sid]
        epoch = record.epoch
        # The parent's arrays drift from the worker's maintainer.
        if problem == "mis":
            record.state["status"][0] = 3 - record.state["status"][0]
        else:
            record.state["edges"][-1, 3] = 1 - record.state["edges"][-1, 3]
        with pytest.raises(InvariantViolationError, match="differ from the worker"):
            svc.mutate_session(sid, [], [pool[1]])
        assert svc.session_info(sid).version == 1
        # The worker holds a version 2 the parent never committed: the
        # timeline moves on to a fresh epoch, so no mutate can find it.
        assert record.epoch != epoch
        svc.close_session(sid)


class TestVersionZero:
    """Version 0 is one solve: the in-process constructors and the
    service build the same state arrays, and the answer they hold is
    sequential greedy's under the session's order."""

    @pytest.mark.parametrize("problem, payload_kind, order", [
        ("mis", "graph", "pi"),
        ("mis", "graph", "seed"),
        ("matching", "graph", "pi"),
        ("matching", "graph", "seed"),
        ("matching", "edges", "pi"),
        ("matching", "shuffled", "seed"),
    ])
    def test_state_is_sequential_greedy(self, svc, graph, problem, payload_kind, order):
        el = graph.edge_list()
        if payload_kind == "graph":
            payload = graph
        elif payload_kind == "edges":
            payload = el
        else:
            p = np.random.default_rng(2).permutation(el.num_edges)
            payload = EdgeList(el.num_vertices, el.u[p], el.v[p])
        size = graph.num_vertices if problem == "mis" else el.num_edges
        ranks = np.random.default_rng(4).permutation(size) if order == "pi" else None
        cls = IncrementalMIS if problem == "mis" else IncrementalMatching
        local = cls(payload, ranks, seed=11).to_state()
        info = svc.create_session(problem, payload, ranks, seed=11)
        served = svc.sessions._sessions[info.session_id].state
        svc.close_session(info.session_id)
        assert local.keys() == served.keys()
        for key, value in local.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == served[key].dtype, key
                assert np.array_equal(value, served[key]), key
            else:
                assert value == served[key], key
        answer = result_from_state(served)
        if problem == "mis":
            ref = maximal_independent_set(graph, answer.ranks, method="sequential")
        else:
            ref = maximal_matching(
                EdgeList(graph.num_vertices, answer.edge_u, answer.edge_v),
                answer.ranks, method="sequential",
            )
        assert np.array_equal(answer.status, ref.status)
        assert info.size == ref.size and info.m == el.num_edges

    def test_duplicate_edge_fails_before_any_job(self, svc):
        before = svc.stats().submitted
        dup = EdgeList(4, np.array([0, 1, 0]), np.array([1, 2, 1]))
        with pytest.raises(InvalidGraphError, match="duplicate edge"):
            svc.create_session("matching", dup, seed=1)
        assert svc.stats().submitted == before


class TestRestoreChecks:
    """A restore checks the state in the parent; only ``guards="full"``
    re-solves, through the service."""

    def test_restore_without_guards_submits_no_job(self, svc, graph, pi):
        info = svc.create_session("matching", graph, seed=2)
        snap = svc.session_snapshot(info.session_id)
        svc.close_session(info.session_id)
        before = svc.stats().submitted
        restored = svc.restore_session(snap)
        assert svc.stats().submitted == before
        assert restored.as_dict() == info.as_dict()
        svc.close_session(info.session_id)

    @pytest.mark.parametrize("problem, corrupt, match", [
        ("mis", lambda st: st["edges"].reverse(), "sorted and distinct"),
        ("mis", lambda st: st["status"].__setitem__(0, 7), "IN_SET"),
        ("matching", lambda st: st["edges"].reverse(), "sorted and distinct"),
        ("matching", lambda st: st["edges"][0].__setitem__(3, 5), "0 or 1"),
    ])
    def test_malformed_state_fails_in_the_parent(
        self, svc, graph, pi, problem, corrupt, match
    ):
        info = svc.create_session(
            problem, graph, pi if problem == "mis" else None, seed=2,
        )
        snap = svc.session_snapshot(info.session_id)
        svc.close_session(info.session_id)
        corrupt(snap["state"])
        before = svc.stats().submitted
        with pytest.raises(InvalidGraphError, match=match):
            svc.restore_session(snap)
        assert svc.stats().submitted == before
        assert info.session_id not in [i.session_id for i in svc.list_sessions()]

    @pytest.mark.parametrize("problem", ["mis", "matching"])
    def test_flipped_status_fails_full_guards(self, svc, graph, pi, problem):
        info = svc.create_session(
            problem, graph, pi if problem == "mis" else None, seed=2,
        )
        snap = svc.session_snapshot(info.session_id)
        svc.close_session(info.session_id)
        state = snap["state"]
        if problem == "mis":
            state["status"][0] = 3 - state["status"][0]  # IN_SET <-> KNOCKED_OUT
        else:
            state["edges"][0][3] = 1 - state["edges"][0][3]
        snap["guards"] = "full"
        with pytest.raises(InvariantViolationError):
            svc.restore_session(snap)
        with pytest.raises(UnknownSessionError):
            svc.session_info(info.session_id)
        # The unflipped snapshot passes the same check.
        if problem == "mis":
            state["status"][0] = 3 - state["status"][0]
        else:
            state["edges"][0][3] = 1 - state["edges"][0][3]
        assert svc.restore_session(snap).version == 0
        svc.close_session(info.session_id)


def _greedy(problem, n, live, pi, seed):
    """Sequential greedy on a session's live edge set under its order."""
    edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    if problem == "mis":
        return maximal_independent_set(from_edges(n, u, v), pi, method="sequential")
    from repro.dynamic.incremental import edge_priorities

    ranks = np.empty(u.size, dtype=np.int64)
    ranks[np.lexsort((v, u, edge_priorities(seed, u, v)))] = np.arange(u.size)
    return maximal_matching(EdgeList(n, u, v), ranks, method="sequential")


class TestConcurrentSessions:
    """Sessions that share a pool of more workers than cores, with a
    short switch interval: maintainers move between workers through
    ``state_needed``, logs interleave, and a close races a mutate."""

    @pytest.fixture
    def fast_switching(self):
        import sys

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(old)

    def test_parallel_sessions_end_exact_and_replay(self, tmp_path, graph, pi, fast_switching):
        import threading

        svc = SolverService(ServiceConfig(workers=3, session_dir=str(tmp_path))).start()
        errors, shadows = [], {}
        specs = [(k, problem, f"c{k}") for k, problem in enumerate(("mis", "matching") * 2)]

        def churn(k, sid):
            try:
                rng = np.random.default_rng(k)
                live, prev = _live(graph), []
                for i in range(12):
                    pool = sorted(live)
                    dels = [pool[j] for j in rng.choice(len(pool), 3, replace=False)]
                    svc.mutate_session(sid, prev, dels, mutation_id=f"{sid}-{i}")
                    live, prev = (live - set(dels)) | set(prev), dels
                shadows[sid] = live
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        try:
            for k, problem, sid in specs:
                svc.create_session(problem, graph, pi if problem == "mis" else None,
                                   seed=k, session_id=sid)
            threads = [threading.Thread(target=churn, args=(k, sid)) for k, _, sid in specs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads) and not errors, errors
            for k, problem, sid in specs:
                assert svc.session_info(sid).version == 12
                ref = _greedy(problem, graph.num_vertices, shadows[sid], pi, k)
                assert np.array_equal(svc.session_result(sid).status, ref.status)
            svc.shutdown()  # no close: every session's log stays behind
            svc = SolverService(ServiceConfig(workers=3, session_dir=str(tmp_path))).start()
            for k, problem, sid in specs:
                assert svc.restore_session(session_id=sid).version == 12
                ref = _greedy(problem, graph.num_vertices, shadows[sid], pi, k)
                assert np.array_equal(svc.session_result(sid).status, ref.status)
        finally:
            svc.shutdown()

    def test_a_close_racing_mutates_persists_exactly_the_acknowledged_ones(
        self, tmp_path, graph, pi, fast_switching
    ):
        import threading

        svc = SolverService(ServiceConfig(workers=3, session_dir=str(tmp_path))).start()
        acked, errors = [], []
        try:
            svc.create_session("mis", graph, pi, session_id="r")
            live = _live(graph)
            pool = sorted(live)

            def churn():
                try:
                    for pair in pool[:60]:
                        svc.mutate_session("r", [], [pair])
                        acked.append(pair)
                except UnknownSessionError:
                    pass
                except BaseException as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)

            thread = threading.Thread(target=churn)
            thread.start()
            deadline = time.monotonic() + 30
            while len(acked) < 5 and time.monotonic() < deadline:
                time.sleep(0.001)
            svc.close_session("r")
            thread.join(60)
            assert not thread.is_alive() and not errors, errors
            info = svc.restore_session(session_id="r")
            assert info.version == len(acked)
            ref = _greedy("mis", graph.num_vertices, live - set(acked), pi, 0)
            assert np.array_equal(svc.session_result("r").status, ref.status)
        finally:
            svc.shutdown()


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
