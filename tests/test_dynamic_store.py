"""Format-2 session snapshot files fail closed.

A format-2 file is one line of JSON (the checksummed envelope, each array
replaced by an ``{"__array__": [index, dtype, shape]}`` descriptor)
followed by the arrays' raw bytes.  These tests pin the round trip, the
digest, and that every kind of damage — a flipped tail byte, a truncated
tail, a header naming a non-integer dtype — quarantines the file behind
the typed :class:`~repro.errors.SnapshotCorruptError`.  Format-1 files
(one JSON envelope, state as lists) still load and restore.

Between snapshots a session appends checksummed records to its log: a
torn final record is dropped (it was never acknowledged), any other
damage quarantines the log, and records the snapshot already holds are
skipped.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.orderings import random_priorities
from repro.dynamic import IncrementalMatching, IncrementalMIS, edge_priority
from repro.dynamic.store import SnapshotStore, snapshot_checksum
from repro.errors import SnapshotCorruptError
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.graphs.generators import uniform_random_graph
from repro.service import ServiceConfig, SolverService

pytestmark = pytest.mark.sessions


def _snapshot():
    return {
        "session_id": "s",
        "version": 2,
        "guards": None,
        "state": {
            "problem": "mis",
            "n": 3,
            "ranks": np.array([2, 0, 1], dtype=np.int64),
            "status": np.array([1, 2, 1], dtype=np.int8),
            "edges": np.array([[0, 1], [1, 2]], dtype=np.int64),
            "none": np.empty((0, 2), dtype=np.int64),
            "flags": np.array([True, False]),
            "small": np.array([[7, 8, 9]], dtype=np.uint16),
        },
        "applied": [["a", {"v": 1}]],
    }


def _split(path):
    raw = path.read_bytes()
    line, _, tail = raw.partition(b"\n")
    return json.loads(line), tail


def _rewrite(path, envelope, tail):
    line = json.dumps(envelope, separators=(",", ":"), sort_keys=True)
    path.write_bytes(line.encode() + b"\n" + tail)


def test_arrays_round_trip_with_dtype_shape_and_values(tmp_path):
    store = SnapshotStore(tmp_path)
    snap = _snapshot()
    store.save("s", snap)
    back = store.load("s")
    for key, want in snap["state"].items():
        got = back["state"][key]
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.flags.writeable
        else:
            assert got == want
    assert {k: v for k, v in back.items() if k != "state"} == {
        k: v for k, v in snap.items() if k != "state"
    }
    assert store.quarantined == 0


def test_file_is_a_json_line_then_the_array_bytes(tmp_path):
    store = SnapshotStore(tmp_path)
    snap = _snapshot()
    path = store.save("s", snap)
    envelope, tail = _split(tmp_path / "s.json")
    assert path.endswith("s.json")
    assert envelope["format"] == 2
    header = envelope["snapshot"]
    index, dtype, shape = header["state"]["ranks"]["__array__"]
    assert (dtype, shape) == (np.dtype(np.int64).str, [3])
    arrays = [v for v in snap["state"].values() if isinstance(v, np.ndarray)]
    assert len(tail) == sum(a.nbytes for a in arrays)
    canon = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    assert hashlib.sha256(canon + tail).hexdigest() == envelope["sha256"]


def test_without_arrays_the_digest_is_snapshot_checksum(tmp_path):
    store = SnapshotStore(tmp_path)
    snap = {"session_id": "s", "version": 1, "applied": []}
    store.save("s", snap)
    envelope, tail = _split(tmp_path / "s.json")
    assert tail == b""
    assert envelope["sha256"] == snapshot_checksum(snap)


def test_flipped_tail_byte_fails_the_checksum(tmp_path):
    store = SnapshotStore(tmp_path)
    path = tmp_path / "s.json"
    store.save("s", _snapshot())
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
        store.load("s")
    assert store.corrupt_files() == ["s.json.corrupt"]
    assert store.load("s") is None


@pytest.mark.parametrize("keep", [0, 1, 17])
def test_truncated_tail_is_quarantined(tmp_path, keep):
    store = SnapshotStore(tmp_path)
    path = tmp_path / "s.json"
    store.save("s", _snapshot())
    envelope, tail = _split(path)
    _rewrite(path, envelope, tail[:keep])
    with pytest.raises(SnapshotCorruptError):
        store.load("s")
    assert store.corrupt_files() == ["s.json.corrupt"]


@pytest.mark.parametrize("dtype", ["|O", "<f8", "<c16", "garbage"])
def test_non_integer_dtype_is_quarantined_despite_a_valid_checksum(tmp_path, dtype):
    store = SnapshotStore(tmp_path)
    path = tmp_path / "s.json"
    store.save("s", _snapshot())
    envelope, tail = _split(path)
    desc = envelope["snapshot"]["state"]["ranks"]["__array__"]
    desc[1] = dtype  # same byte count for the 8-byte kinds
    canon = json.dumps(envelope["snapshot"], separators=(",", ":"), sort_keys=True)
    envelope["sha256"] = hashlib.sha256(canon.encode() + tail).hexdigest()
    _rewrite(path, envelope, tail)
    with pytest.raises(SnapshotCorruptError, match="bad array section"):
        store.load("s")
    assert store.quarantined == 1
    assert store.corrupt_files() == ["s.json.corrupt"]


def test_saving_a_float_array_is_refused(tmp_path):
    store = SnapshotStore(tmp_path)
    with pytest.raises(TypeError, match="fixed-width integers or bools"):
        store.save("s", {"x": np.zeros(3)})
    assert store.list_ids() == []
    assert not list(tmp_path.glob("*.tmp"))


def _legacy_state(problem, graph, seed):
    """A mutated session's state in format-1 form (lists, bool flags)."""
    if problem == "mis":
        inc = IncrementalMIS(graph, random_priorities(graph.num_vertices, seed=seed))
    else:
        inc = IncrementalMatching(graph.edge_list(), seed=seed)
    el = graph.edge_list()
    live = set(zip(el.u.tolist(), el.v.tolist()))
    absent = next((0, b) for b in range(1, graph.num_vertices) if (0, b) not in live)
    inc.apply_batch(insertions=[absent], deletions=[(int(el.u[3]), int(el.v[3]))])
    state = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in inc.to_state().items()}
    if problem == "matching":
        state["edges"] = [[a, b, p, bool(hit)] for a, b, p, hit in state["edges"]]
    return state


@pytest.mark.service
@pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_format1_file_loads_and_restores_to_a_scratch_answer(tmp_path, problem, indent):
    graph = uniform_random_graph(40, 90, seed=12)
    state = _legacy_state(problem, graph, seed=12)
    snap = {"session_id": f"old-{problem}", "problem": problem, "version": 1,
            "guards": None, "state": state, "dynamic": {}, "applied": []}
    envelope = {"format": 1, "sha256": snapshot_checksum(snap), "snapshot": snap}
    (tmp_path / f"old-{problem}.json").write_text(json.dumps(envelope, indent=indent))
    assert SnapshotStore(tmp_path).load(f"old-{problem}") == snap

    svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    try:
        info = svc.restore_session(session_id=f"old-{problem}")
        result = svc.session_result(f"old-{problem}")
    finally:
        svc.shutdown()
    assert info.version == 1
    if problem == "mis":
        edges = np.array(state["edges"], dtype=np.int64).reshape(-1, 2)
        ref = maximal_independent_set(
            from_edges(40, edges[:, 0], edges[:, 1]),
            np.array(state["ranks"]), method="sequential")
        assert np.array_equal(result.ranks, ref.ranks)
    else:
        keys = sorted((edge_priority(12, a, b), a, b) for a, b, _, _ in state["edges"])
        pos = {(a, b): i for i, (_, a, b) in enumerate(keys)}
        u = np.array([r[0] for r in state["edges"]], dtype=np.int64)
        v = np.array([r[1] for r in state["edges"]], dtype=np.int64)
        ranks = np.array([pos[(a, b)] for a, b in zip(u.tolist(), v.tolist())])
        ref = maximal_matching(EdgeList(40, u, v), ranks, method="sequential")
        assert np.array_equal(result.edge_u, u) and np.array_equal(result.edge_v, v)
        assert np.array_equal(result.ranks, ranks)
    assert np.array_equal(result.status, ref.status)
    assert not SnapshotStore(tmp_path).corrupt_files()


# -- the mutation log --------------------------------------------------------


def _record(version, mid=None):
    return {"version": version, "mutation_id": mid, "insertions": [[0, version]],
            "deletions": [], "outcome": {"version": version, "work_ratio": 0.125}}


def _logged(tmp_path, count=3):
    store = SnapshotStore(tmp_path)
    for version in range(1, count + 1):
        store.append("s", _record(version, f"m{version}"))
    return store, tmp_path / "s.log"


def test_log_records_round_trip_past_the_snapshot_version(tmp_path):
    store, path = _logged(tmp_path)
    assert store.load_log("s", 0) == [_record(v, f"m{v}") for v in (1, 2, 3)]
    assert store.load_log("s", 2) == [_record(3, "m3")]
    assert store.load_log("s", 3) == []
    assert store.load_log("absent", 0) == []
    assert path.read_bytes().count(b"\n") == 3


def test_save_drops_the_log_and_delete_removes_both(tmp_path):
    store, path = _logged(tmp_path)
    store.save("s", _snapshot())
    assert not path.exists() and store.load_log("s", 0) == []
    store.append("s", _record(3))
    assert store.delete("s")
    assert not path.exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("cut", [1, 20, "line"])
def test_torn_final_record_is_dropped_without_quarantine(tmp_path, cut):
    store, path = _logged(tmp_path)
    raw = path.read_bytes()
    last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    # A crash mid-append leaves a prefix of the last record: anything up
    # to (not including) its newline.
    keep = last + 5 if cut == "line" else len(raw) - cut
    path.write_bytes(raw[:keep])
    assert store.load_log("s", 0) == [_record(1, "m1"), _record(2, "m2")]
    assert store.quarantined == 0 and store.corrupt_files() == []


@pytest.mark.parametrize("where", ["digest", "body"])
def test_flipped_byte_in_a_middle_record_quarantines_the_log(tmp_path, where):
    store, path = _logged(tmp_path)
    raw = bytearray(path.read_bytes())
    second = raw.index(b"\n") + 1
    at = raw.index(b'"sha256":"', second) + 12 if where == "digest" else second + 40
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotCorruptError, match="corrupt session log .*record 2"):
        store.load_log("s", 0)
    assert store.corrupt_files() == ["s.log.corrupt"]
    assert not path.exists()
    assert store.load_log("s", 0) == []  # retries cannot re-read the poison


def test_a_version_gap_quarantines_the_log(tmp_path):
    store = SnapshotStore(tmp_path)
    store.append("s", _record(1))
    store.append("s", _record(3))
    with pytest.raises(SnapshotCorruptError, match="version 3, after 1"):
        store.load_log("s", 0)
    store.append("t", _record(5))
    with pytest.raises(SnapshotCorruptError, match="start at version 5"):
        store.load_log("t", 3)
    assert store.corrupt_files() == ["s.log.corrupt", "t.log.corrupt"]


@pytest.mark.service
@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_records_at_or_below_the_snapshot_version_are_skipped(tmp_path, problem):
    """A crash between a compaction's ``os.replace`` and the log's removal
    leaves records the new snapshot already holds: a restore skips them."""
    graph = uniform_random_graph(40, 90, seed=12)
    el = graph.edge_list()
    pairs = list(zip(el.u.tolist(), el.v.tolist()))
    svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    try:
        svc.create_session(problem, graph, seed=3, session_id="c")
        for pair in pairs[:3]:
            svc.mutate_session("c", [], [pair])
        stale = (tmp_path / "c.log").read_bytes()
        expected = svc.session_result("c")
        svc.close_session("c")              # the snapshot folds the log in
        assert not (tmp_path / "c.log").exists()
        (tmp_path / "c.log").write_bytes(stale)  # ... but the unlink was lost
        before = svc.stats().submitted
        info = svc.restore_session(session_id="c")
        assert svc.stats().submitted == before  # nothing replayed
        assert info.version == 3
        assert np.array_equal(svc.session_result("c").status, expected.status)
        assert not (tmp_path / "c.log").exists()
        # The session goes on from version 3, logging afresh.
        assert svc.mutate_session("c", [], [pairs[3]])["version"] == 4
        assert [r["version"] for r in SnapshotStore(tmp_path).load_log("c", 3)] == [4]
    finally:
        svc.shutdown()
