"""Exactly-once session mutations: idempotency, CAS, checksummed durability.

The contract under test: a client that retries a mutation after an
*ambiguous* outcome (lost response, killed service) with the same
``mutation_id`` gets the recorded outcome back — the batch is applied
exactly once, the duplicate never reaches a worker, and the guarantee
survives snapshot/restore and a SIGKILL of the whole service.  Version
preconditions (``if_version``) turn lost-update races into typed
:class:`~repro.errors.VersionConflictError` (HTTP 409, exit 7), and the
durability layer quarantines corrupt files behind the typed
:class:`~repro.errors.SnapshotCorruptError` instead of raw JSON errors.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.errors import (
    InvalidGraphError,
    SnapshotCorruptError,
    VersionConflictError,
)
from repro.graphs.generators import uniform_random_graph
from repro.service import ServiceConfig, SolverService
from repro.service.sessions import DEDUP_WINDOW

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


def _pool(graph):
    el = graph.edge_list()
    return sorted(
        {(min(a, b), max(a, b)) for a, b in zip(el.u.tolist(), el.v.tolist())}
    )


#: Child-process preamble: read the spec line, build the graph, start a
#: service on the spec's session_dir.
_CHILD_HEAD = """
import json, sys, time
import numpy as np
from repro.graphs.builders import from_edges
from repro.service import ServiceConfig, SolverService

spec = json.loads(sys.stdin.readline())
edges = np.asarray(spec["edges"], dtype=np.int64)
g = from_edges(spec["n"], edges[:, 0], edges[:, 1])
pi = np.asarray(spec["pi"], dtype=np.int64)
svc = SolverService(ServiceConfig(
    workers=1, session_dir=spec["session_dir"],
)).start()
"""


def _sigkill_after_commit(body, graph, **spec):
    """Run ``_CHILD_HEAD + body`` in its own process group, wait for its
    ``COMMITTED <version>`` line, SIGKILL the whole group and return the
    version.  The spec line carries the graph, π and *spec*."""
    el = graph.edge_list()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            str((os.path.dirname(__file__) or ".") + "/../src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_HEAD + textwrap.dedent(body)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=env, start_new_session=True, text=True,
    )
    try:
        child.stdin.write(json.dumps(dict(
            spec,
            n=graph.num_vertices,
            edges=np.stack([el.u, el.v], axis=1).tolist(),
            pi=np.random.default_rng(8).permutation(graph.num_vertices).tolist(),
        )) + "\n")
        child.stdin.flush()
        line = child.stdout.readline().strip()
        assert line.startswith("COMMITTED"), f"child said {line!r}"
        # Kill the whole process group: parent *and* its workers,
        # no graceful shutdown hooks run anywhere.
        os.killpg(os.getpgid(child.pid), signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - assertion path
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
    return int(line.split()[1])


class TestIdempotencyWindow:
    def test_duplicate_replays_without_invoking_a_worker(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        pool = _pool(graph)
        first = svc.mutate_session(
            info.session_id, [], [pool[0]], mutation_id="m-0",
        )
        assert first["version"] == 1
        assert "idempotent_replay" not in first
        completed = svc.stats().completed
        replays_before = svc.sessions.counters()["idempotent_replays"]

        dup = svc.mutate_session(
            info.session_id, [], [pool[0]], mutation_id="m-0",
        )
        assert dup["idempotent_replay"] is True
        assert dup["version"] == first["version"]
        assert dup["size"] == first["size"] and dup["m"] == first["m"]
        # The duplicate was answered from the recorded outcome: no new
        # worker job completed, and the replay counter moved.
        assert svc.stats().completed == completed
        counters = svc.sessions.counters()
        assert counters["idempotent_replays"] == replays_before + 1
        # The session itself did not move.
        assert svc.session_info(info.session_id).version == 1
        svc.close_session(info.session_id)

    def test_replay_wins_over_version_precondition(self, svc, graph, pi):
        """A retried duplicate still carrying its original ``if_version``
        must replay, not 409 — the conflict check runs second."""
        info = svc.create_session("mis", graph, pi)
        pool = _pool(graph)
        svc.mutate_session(
            info.session_id, [], [pool[1]], mutation_id="cas-0", if_version=0,
        )
        dup = svc.mutate_session(
            info.session_id, [], [pool[1]], mutation_id="cas-0", if_version=0,
        )
        assert dup["idempotent_replay"] is True and dup["version"] == 1
        svc.close_session(info.session_id)

    def test_version_conflict_is_typed_and_applies_nothing(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        pool = _pool(graph)
        conflicts = svc.sessions.counters()["version_conflicts"]
        with pytest.raises(VersionConflictError, match="at version 0"):
            svc.mutate_session(info.session_id, [], [pool[2]], if_version=7)
        assert svc.session_info(info.session_id).version == 0
        assert svc.sessions.counters()["version_conflicts"] == conflicts + 1
        # The precondition met → the mutation applies normally.
        stats = svc.mutate_session(
            info.session_id, [], [pool[2]], if_version=0,
        )
        assert stats["version"] == 1
        svc.close_session(info.session_id)

    def test_mutation_knob_validation(self, svc, graph, pi):
        info = svc.create_session("mis", graph, pi)
        with pytest.raises(InvalidGraphError, match="non-empty string"):
            svc.mutate_session(info.session_id, [], [], mutation_id="")
        with pytest.raises(InvalidGraphError, match="200 characters"):
            svc.mutate_session(info.session_id, [], [], mutation_id="x" * 201)
        with pytest.raises(InvalidGraphError, match=">= 0"):
            svc.mutate_session(info.session_id, [], [], if_version=-1)
        with pytest.raises(InvalidGraphError, match="integer"):
            svc.mutate_session(info.session_id, [], [], if_version="later")
        assert svc.session_info(info.session_id).version == 0
        svc.close_session(info.session_id)

    def test_window_is_bounded_and_evicts_oldest_first(
        self, svc, graph, pi, monkeypatch
    ):
        info = svc.create_session("mis", graph, pi)
        record = svc.sessions._sessions[info.session_id]

        # Stub the worker round-trip: filling DEDUP_WINDOW + 1 ids needs
        # the dedup bookkeeping, not 129 real incremental solves.
        def fake_call(func, kwargs, timeout_s):
            return {
                "dynamic": {"batches": record.version + 1},
                "counters": record.state["counters"],
                "flips": [],
            }

        monkeypatch.setattr(svc.sessions, "_call", fake_call)
        for i in range(DEDUP_WINDOW + 1):
            svc.mutate_session(info.session_id, [], [], mutation_id=f"e{i}")
        assert len(record.applied) == DEDUP_WINDOW
        assert "e0" not in record.applied          # evicted, oldest first
        assert f"e{DEDUP_WINDOW}" in record.applied
        # The evicted id is no longer deduplicated: it re-applies fresh.
        again = svc.mutate_session(info.session_id, [], [], mutation_id="e0")
        assert "idempotent_replay" not in again
        monkeypatch.undo()
        svc.close_session(info.session_id)


class TestDurableWindow:
    def test_window_survives_close_and_restore(self, tmp_path, graph, pi):
        svc = SolverService(ServiceConfig(
            workers=1, session_dir=str(tmp_path),
        )).start()
        try:
            info = svc.create_session("mis", graph, pi, session_id="durable")
            pool = _pool(graph)
            first = svc.mutate_session(
                "durable", [], [pool[0]], mutation_id="ambiguous-1",
            )
            svc.close_session("durable")
            restored = svc.restore_session(session_id="durable")
            assert restored.version == 1
            # The retry after the restore replays from the persisted
            # window — the batch is not applied a second time.
            dup = svc.mutate_session(
                "durable", [], [pool[0]], mutation_id="ambiguous-1",
            )
            assert dup["idempotent_replay"] is True
            assert dup["version"] == first["version"] == 1
            assert svc.session_info("durable").version == 1
        finally:
            svc.shutdown()

    @pytest.mark.recovery
    def test_sigkill_whole_service_then_retry_is_exactly_once(
        self, tmp_path, graph
    ):
        """SIGKILL the entire service process group between commit and
        response; a fresh service on the same ``session_dir`` restores
        the session and the retried ``mutation_id`` replays."""
        pool = _pool(graph)
        committed_version = _sigkill_after_commit("""
            svc.create_session("mis", g, pi, session_id="kill-me")
            stats = svc.mutate_session(
                "kill-me", [], [tuple(spec["batch"][0])],
                mutation_id="boom",
            )
            print("COMMITTED", stats["version"], flush=True)
            time.sleep(120)  # the response never reaches the client
        """, graph, session_dir=str(tmp_path), batch=[list(pool[0])])

        from repro.resilience import reap_orphans

        reap_orphans()  # the SIGKILL'd stack could not clean its segments
        svc = SolverService(ServiceConfig(
            workers=1, session_dir=str(tmp_path),
        )).start()
        try:
            restored = svc.restore_session(session_id="kill-me")
            assert restored.version == committed_version == 1
            dup = svc.mutate_session(
                "kill-me", [], [pool[0]], mutation_id="boom",
            )
            assert dup["idempotent_replay"] is True
            assert dup["version"] == committed_version
            assert svc.session_info("kill-me").version == committed_version
            # The recovered state is internally consistent.
            from repro.dynamic.jobs import _maintainer_from_state

            snap = svc.session_snapshot("kill-me")
            _maintainer_from_state(snap["state"]).verify()
        finally:
            svc.shutdown()


    @pytest.mark.recovery
    def test_sigkill_after_logged_mutates_replays_the_log(self, tmp_path, graph):
        """Several mutates commit past the last snapshot (each only as an
        fsync'd log record) before the SIGKILL; the restore replays them,
        and the retried id replays its outcome instead of re-applying."""
        pool = _pool(graph)
        pi = np.random.default_rng(8).permutation(graph.num_vertices)
        batches = [list(pair) for pair in pool[:4]]
        _sigkill_after_commit("""
            for problem in ("mis", "matching"):
                sid = "kill-" + problem
                svc.create_session(problem, g, pi if problem == "mis" else None,
                                   seed=4, session_id=sid)
                for i, pair in enumerate(spec["batches"]):
                    stats = svc.mutate_session(sid, [], [tuple(pair)],
                                               mutation_id=f"m{i}")
            print("COMMITTED", stats["version"], flush=True)
            time.sleep(120)  # the last response never reaches the client
        """, graph, session_dir=str(tmp_path), batches=batches)

        from repro.core.matching import maximal_matching
        from repro.core.mis import maximal_independent_set
        from repro.dynamic.incremental import edge_priorities
        from repro.dynamic.store import SnapshotStore
        from repro.graphs.builders import from_edges
        from repro.graphs.csr import EdgeList
        from repro.resilience import reap_orphans

        reap_orphans()  # the SIGKILL'd stack could not clean its segments
        store = SnapshotStore(tmp_path)
        for problem in ("mis", "matching"):
            assert store.load(f"kill-{problem}")["version"] == 0
            assert len(store.load_log(f"kill-{problem}", 0)) == len(batches)
        svc = SolverService(ServiceConfig(
            workers=1, session_dir=str(tmp_path),
        )).start()
        try:
            for problem in ("mis", "matching"):
                sid = f"kill-{problem}"
                assert svc.restore_session(session_id=sid).version == len(batches)
                dup = svc.mutate_session(sid, [], [pool[3]], mutation_id="m3")
                assert dup["idempotent_replay"] is True
                assert dup["version"] == len(batches)
                assert svc.session_info(sid).version == len(batches)
                result = svc.session_result(sid)
                live = sorted(set(pool) - set(pool[:4]))
                u = np.array([a for a, _ in live]); v = np.array([b for _, b in live])
                if problem == "mis":
                    ref = maximal_independent_set(
                        from_edges(graph.num_vertices, u, v), pi, method="sequential")
                else:
                    assert np.array_equal(result.edge_u, u)
                    assert np.array_equal(result.edge_v, v)
                    ranks = np.empty(u.size, dtype=np.int64)
                    ranks[np.lexsort((v, u, edge_priorities(4, u, v)))] = np.arange(u.size)
                    assert np.array_equal(result.ranks, ranks)
                    ref = maximal_matching(EdgeList(graph.num_vertices, u, v),
                                           ranks, method="sequential")
                assert np.array_equal(result.status, ref.status)
                # The restore folded the log into a fresh snapshot.
                assert store.load(sid)["version"] == len(batches)
                assert not (tmp_path / f"{sid}.log").exists()
        finally:
            svc.shutdown()


    def test_a_failed_append_makes_the_next_commit_a_snapshot(
        self, tmp_path, graph, pi, monkeypatch
    ):
        """The log never skips a version: after an append fails (the
        commit stands in memory), the next mutate writes a full snapshot
        in place of its record."""
        from repro.dynamic.store import SnapshotStore

        pool = _pool(graph)
        svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
        try:
            svc.create_session("mis", graph, pi, session_id="s")
            svc.mutate_session("s", [], [pool[0]])
            store = svc.sessions._store

            def full_disk(session_id, record):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(store, "append", full_disk)
            with pytest.raises(OSError):
                svc.mutate_session("s", [], [pool[1]])
            monkeypatch.undo()
            assert svc.session_info("s").version == 2
            svc.mutate_session("s", [], [pool[2]])
            assert store.load("s")["version"] == 3
            assert not (tmp_path / "s.log").exists()
            svc.mutate_session("s", [], [pool[3]])
            assert [r["version"] for r in SnapshotStore(tmp_path).load_log("s", 3)] == [4]
        finally:
            svc.shutdown()


class TestChecksummedStore:
    def test_stray_tmp_files_swept_on_construction(self, tmp_path):
        from repro.dynamic.store import SnapshotStore

        (tmp_path / "orphan1.tmp").write_text("{torn")
        (tmp_path / "orphan2.tmp").write_text("")
        store = SnapshotStore(tmp_path)
        assert store.tmp_swept == 2
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_snapshot_quarantined_with_typed_error(self, tmp_path):
        from repro.dynamic.store import SnapshotStore

        store = SnapshotStore(tmp_path)
        path = store.save("sess", {"session_id": "sess", "version": 3})
        with open(path, "w") as fh:
            fh.write('{"not": "an envelope"')  # torn mid-write
        with pytest.raises(SnapshotCorruptError, match="not valid JSON"):
            store.load("sess")
        assert store.quarantined == 1
        assert store.corrupt_files() == ["sess.json.corrupt"]
        assert store.list_ids() == []      # quarantine leaves the scan set
        assert store.load("sess") is None  # and retries cannot re-read it
        assert store.sweep_corrupt() == ["sess.json.corrupt"]
        assert store.corrupt_files() == []

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        from repro.dynamic.store import SnapshotStore

        store = SnapshotStore(tmp_path)
        path = store.save("sess", {"session_id": "sess", "version": 3})
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["snapshot"]["version"] = 4  # valid JSON, silently edited
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
            store.load("sess")
        assert store.corrupt_files() == ["sess.json.corrupt"]

    def test_round_trip_still_clean(self, tmp_path):
        from repro.dynamic.store import SnapshotStore

        store = SnapshotStore(tmp_path)
        snap = {"session_id": "ok", "version": 2, "applied": [["a", {"v": 1}]]}
        store.save("ok", snap)
        assert store.load("ok") == snap
        assert store.quarantined == 0

    def test_ledger_record_quarantine_and_legacy_acceptance(self, tmp_path):
        from repro.backends.ledger import SegmentLedger, _record_checksum

        ledger = SegmentLedger(tmp_path)
        ledger.record_create("repro-seg-a", role="graph", nbytes=64)
        # A legacy record (no sha256 field) must still be accepted.
        legacy = {"name": "repro-seg-b", "pid": 1, "role": "graph",
                  "record": "owner", "created": 0.0}
        (tmp_path / "repro-seg-b.json").write_text(json.dumps(legacy))
        # A tampered record fails its embedded checksum.
        tampered = {"name": "repro-seg-c", "pid": 1, "role": "graph",
                    "record": "owner", "created": 0.0}
        tampered["sha256"] = _record_checksum(tampered)
        tampered["pid"] = 999  # edited after checksumming
        (tmp_path / "repro-seg-c.json").write_text(json.dumps(tampered))

        names = {e.name for e in ledger.entries()}
        assert names == {"repro-seg-a", "repro-seg-b"}
        assert ledger.quarantined == 1
        assert ledger.corrupt_files() == ["repro-seg-c.json.corrupt"]
        assert ledger.sweep_corrupt() == ["repro-seg-c.json.corrupt"]

    def test_reaper_reports_durability_counters(self, tmp_path):
        from repro.backends.ledger import SegmentLedger
        from repro.dynamic.store import SnapshotStore
        from repro.resilience import reap_orphans

        session_dir = tmp_path / "sessions"
        session_dir.mkdir()
        (session_dir / "stray.tmp").write_text("")
        store = SnapshotStore(session_dir)  # sweeps the stray
        path = store.save("sess", {"session_id": "sess"})
        with open(path, "w") as fh:
            fh.write("garbage")
        with pytest.raises(SnapshotCorruptError):
            store.load("sess")

        ledger = SegmentLedger(tmp_path / "ledger")
        report = reap_orphans(ledger, snapshot_dir=str(session_dir))
        assert report.quarantined_snapshots == 1
        assert report.quarantine_purged == 0  # held for inspection
        assert (session_dir / "sess.json.corrupt").exists()
        report = reap_orphans(
            ledger, snapshot_dir=str(session_dir), purge_quarantine=True,
        )
        assert report.quarantine_purged == 1
        assert not (session_dir / "sess.json.corrupt").exists()


@pytest.mark.http
class TestHTTPExactlyOnce:
    @pytest.fixture(scope="class")
    def gateway(self, graph, pi):
        from repro.service.http import GatewayConfig, HTTPGateway

        gw = HTTPGateway(config=GatewayConfig(port=0), workers=1)
        gw.add_graph("g", graph, pi)
        with gw:
            yield gw

    def _create(self, gateway, sid):
        from repro.service.http import request_json

        status, _, body = request_json(
            gateway.address, "POST", "/v1/sessions",
            {"problem": "mis", "graph": "g", "session_id": sid},
        )
        assert status == 200
        return body

    def test_idempotency_key_header_and_replay_header(self, gateway, graph):
        from repro.service.http import request_json

        self._create(gateway, "h-key")
        pool = _pool(graph)
        body = {"deletions": [list(pool[0])]}
        headers = {"X-Repro-Idempotency-Key": "req-1"}
        status, hdrs, first = request_json(
            gateway.address, "POST", "/v1/sessions/h-key/mutate",
            body, headers=headers,
        )
        assert status == 200 and first["version"] == 1
        assert "x-repro-idempotent-replay" not in hdrs
        status, hdrs, dup = request_json(
            gateway.address, "POST", "/v1/sessions/h-key/mutate",
            body, headers=headers,
        )
        assert status == 200
        assert dup["idempotent_replay"] is True
        assert dup["version"] == 1
        assert hdrs.get("x-repro-idempotent-replay") == "1"
        request_json(gateway.address, "DELETE", "/v1/sessions/h-key")

    def test_body_key_and_header_disagreement(self, gateway, graph):
        from repro.service.http import request_json

        self._create(gateway, "h-body")
        pool = _pool(graph)
        status, _, first = request_json(
            gateway.address, "POST", "/v1/sessions/h-body/mutate",
            {"deletions": [list(pool[1])], "mutation_id": "body-1"},
        )
        assert status == 200 and first["version"] == 1
        status, _, err = request_json(
            gateway.address, "POST", "/v1/sessions/h-body/mutate",
            {"deletions": [list(pool[1])], "mutation_id": "body-1"},
            headers={"X-Repro-Idempotency-Key": "other"},
        )
        assert status == 400 and err["error"] == "BadRequestError"
        assert "disagrees" in err["message"]
        request_json(gateway.address, "DELETE", "/v1/sessions/h-body")

    def test_stale_if_version_is_409(self, gateway, graph):
        from repro.service.http import request_json

        self._create(gateway, "h-cas")
        pool = _pool(graph)
        status, _, _ = request_json(
            gateway.address, "POST", "/v1/sessions/h-cas/mutate",
            {"deletions": [list(pool[2])], "if_version": 0},
        )
        assert status == 200
        status, _, err = request_json(
            gateway.address, "POST", "/v1/sessions/h-cas/mutate",
            {"deletions": [list(pool[3])], "if_version": 0},
        )
        assert status == 409 and err["error"] == "VersionConflictError"
        status, _, err = request_json(
            gateway.address, "POST", "/v1/sessions/h-cas/mutate",
            {"deletions": [list(pool[3])], "if_version": True},
        )
        assert status == 400
        request_json(gateway.address, "DELETE", "/v1/sessions/h-cas")

    def test_metrics_exposes_session_counters(self, gateway):
        from repro.service.http import request_json

        status, _, metrics = request_json(
            gateway.address, "GET", "/v1/metrics",
        )
        assert status == 200
        sessions = metrics["sessions"]
        for key in (
            "live_sessions", "mutations_applied", "idempotent_replays",
            "version_conflicts", "quarantined_snapshots",
        ):
            assert key in sessions, key
        assert sessions["mutations_applied"] >= 1
        assert sessions["idempotent_replays"] >= 1
        assert sessions["version_conflicts"] >= 1


    def test_quarantined_log_is_counted_and_purged(self, tmp_path, graph, pi):
        """A log that fails its checksum on restore is quarantined as
        ``<id>.log.corrupt``, which health(), the reaper and /v1/metrics
        count beside snapshot quarantine, and the reaper purges."""
        from repro.backends.ledger import SegmentLedger
        from repro.resilience import reap_orphans

        session_dir = tmp_path / "sessions"
        svc = SolverService(ServiceConfig(
            workers=1, session_dir=str(session_dir),
        )).start()
        try:
            svc.create_session("mis", graph, pi, session_id="logged")
            for pair in _pool(graph)[:3]:
                svc.mutate_session("logged", [], [pair])
            # Stop without a close, as a crash would: the log stays.
            svc.sessions._sessions.pop("logged")
            log = session_dir / "logged.log"
            raw = bytearray(log.read_bytes())
            raw[raw.index(b"\n") + 30] ^= 0x01  # inside record 2
            log.write_bytes(bytes(raw))
            with pytest.raises(SnapshotCorruptError, match="corrupt session log"):
                svc.restore_session(session_id="logged")
            assert (session_dir / "logged.log.corrupt").exists()
            assert svc.health().durability["quarantined_snapshots"] == 1
        finally:
            svc.shutdown()
        ledger = SegmentLedger(tmp_path / "ledger")
        report = reap_orphans(ledger, snapshot_dir=str(session_dir))
        assert report.quarantined_snapshots == 1 and report.quarantine_purged == 0
        report = reap_orphans(ledger, snapshot_dir=str(session_dir), purge_quarantine=True)
        assert report.quarantine_purged == 1
        assert not (session_dir / "logged.log.corrupt").exists()


class TestCLI:
    def test_recover_reports_versions_and_exits_5_on_a_corrupt_log(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.dynamic.store import SnapshotStore

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        store = SnapshotStore(tmp_path / "sessions")
        for sid in ("a", "b"):
            store.save(sid, {"session_id": sid, "version": 4})
            for version in (3, 4, 5, 6):  # 3 and 4 are in the snapshot
                store.append(sid, {"version": version, "mutation_id": None,
                                   "insertions": [], "deletions": [], "outcome": {}})
        args = ["recover", "--session-dir", str(tmp_path / "sessions")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sessions:    2 persisted" in out
        assert "a  snapshot version 4, a restore replays 2 log record(s)" in out
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sessions"][1] == {"session_id": "b", "version": 4, "replay": 2}

        log = tmp_path / "sessions" / "b.log"
        raw = bytearray(log.read_bytes())
        raw[raw.index(b"\n") + 20] ^= 0x01  # a middle record
        log.write_bytes(bytes(raw))
        assert main(args) == 5
        captured = capsys.readouterr()
        assert "b  CORRUPT" in captured.out and "b.log.corrupt" in captured.out
        assert "corrupt session log" in captured.err
        assert main(args + ["--purge"]) == 0  # held, listed, then purged
        assert "purged:      1 file(s)" in capsys.readouterr().out
        assert store.corrupt_files() == []

    def test_recover_lists_and_purges(self, tmp_path, capsys):
        from repro.cli import main
        from repro.dynamic.store import SnapshotStore

        ledger_dir = tmp_path / "ledger"
        session_dir = tmp_path / "sessions"
        store = SnapshotStore(session_dir)
        path = store.save("sess", {"session_id": "sess"})
        with open(path, "w") as fh:
            fh.write("garbage")
        with pytest.raises(SnapshotCorruptError):
            store.load("sess")

        env_backup = os.environ.get("REPRO_LEDGER_DIR")
        os.environ["REPRO_LEDGER_DIR"] = str(ledger_dir)
        try:
            assert main(["recover", "--session-dir", str(session_dir)]) == 0
            out = capsys.readouterr().out
            assert "quarantined: 1 file(s)" in out
            assert "sess.json.corrupt" in out
            assert "--purge" in out

            assert main([
                "recover", "--session-dir", str(session_dir), "--purge",
                "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["quarantined_snapshots"] == ["sess.json.corrupt"]
            assert payload["purged"] == ["sess.json.corrupt"]
            assert not (session_dir / "sess.json.corrupt").exists()
        finally:
            if env_backup is None:
                os.environ.pop("REPRO_LEDGER_DIR", None)
            else:
                os.environ["REPRO_LEDGER_DIR"] = env_backup

    def test_version_conflict_maps_to_exit_7(self, monkeypatch, capsys):
        from repro import cli

        def explode(args):
            raise VersionConflictError("session 's' is at version 2")

        monkeypatch.setitem(cli._COMMANDS, "recover", explode)
        assert cli.main(["recover"]) == 7
        assert "version 2" in capsys.readouterr().err

    def test_snapshot_corrupt_maps_to_exit_5(self, monkeypatch, capsys):
        from repro import cli

        def explode(args):
            raise SnapshotCorruptError("corrupt session snapshot")

        monkeypatch.setitem(cli._COMMANDS, "recover", explode)
        assert cli.main(["recover"]) == 5

    def test_session_run_idempotency_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import write_adjacency_graph

        g = uniform_random_graph(40, 90, seed=3)
        graph_path = tmp_path / "g.adj"
        write_adjacency_graph(g, str(graph_path))
        code = main([
            "session", "run", str(graph_path), "--target", "mis",
            "--batches", "2", "--batch-size", "3", "--seed", "1",
            "--mutation-id-prefix", "cli", "--cas", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify:      OK" in out
