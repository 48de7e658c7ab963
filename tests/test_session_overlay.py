"""A committed session version costs O(batch + affected) array work.

A maintainer and a session's parent each commit every batch onto a
:class:`~repro.dynamic.incremental.StateOverlay` (inserted rows, deleted
keys, flipped values over base arrays that carry their sorted keys) and
fold it into the sorted arrays only when something reads them, or when
it would pass ``_FOLD_SHARE`` of m.  These tests pin:

* the allocation of one 4-edge batch, in the maintainer and in the
  parent's commit, does not grow with m;
* after every batch of each overlay case, the maintainer, the parent's
  overlay, a fold of either and a from-scratch sequential solve agree;
* a commit or fold that raises leaves the overlay, and a session's
  version, as they were; an MIS read folds no edge row;
* the bytes a session writes (snapshot files and log records) for one
  fixed mutation stream, pinned by sha256.
"""

import copy
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import repro.dynamic.incremental as incremental
import repro.service.sessions as sessions_mod
from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.orderings import random_priorities
from repro.dynamic.incremental import (
    IncrementalMatching,
    IncrementalMIS,
    StateOverlay,
    apply_flips,
    edge_priority,
    result_from_state,
)
from repro.dynamic.store import SnapshotStore
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.graphs.generators import powerlaw_cluster_graph
from repro.service import ServiceConfig, SolverService

pytestmark = pytest.mark.sessions


def _same_arrays(a, b):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype and np.array_equal(value, b[key]), key
        else:
            assert value == b[key], key


def _maintainer(problem, graph, seed):
    if problem == "mis":
        return IncrementalMIS(graph, random_priorities(graph.num_vertices, seed=seed))
    return IncrementalMatching(graph.edge_list(), seed=seed)


def _live(graph):
    el = graph.edge_list()
    return sorted(zip(el.u.tolist(), el.v.tolist()))


def _scratch(inc, live):
    """Sequential greedy on the mutated graph under the session's order."""
    n = inc.n
    edges = np.array(sorted(live), dtype=np.int64).reshape(-1, 2)
    if inc.problem == "mis":
        return maximal_independent_set(from_edges(n, edges[:, 0], edges[:, 1]), inc.ranks,
                                       method="sequential")
    keys = [(edge_priority(inc.seed, a, b), a, b) for a, b in edges.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return maximal_matching(EdgeList(n, edges[:, 0], edges[:, 1]), ranks, method="sequential")


# -- the allocation of one batch ---------------------------------------------


def _traced(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_one_batch_allocates_nothing_that_grows_with_m(problem):
    """One 4-edge deletion batch through ``apply_batch``, and the parent's
    commit of it (overlay apply and outcome, no worker hop), at m ≈ 2.5e4
    and m ≈ 2e5: the traced peak stays put.  A batch that copied the
    edge arrays would peak 8x higher at the larger size."""
    peaks = []
    for n in (5_000, 40_000):
        graph = powerlaw_cluster_graph(n, 5, 0.5, seed=1)
        inc = _maintainer(problem, graph, seed=2)
        overlay = StateOverlay(inc.to_state())
        dels = _live(graph)[100:104]
        batch = _traced(lambda: inc.apply_batch([], dels))
        counters = inc.counters.aux()

        def commit():
            overlay.commit([], dels, inc.last_flips, counters)
            return dict(inc.counters.last, version=1, size=overlay.size, m=overlay.m)

        peaks.append((batch, _traced(commit)))
        assert (overlay.m, overlay.size) == (inc.m, inc.size) == (graph.num_edges - 4, inc.result().size)
    (small_batch, small_commit), (big_batch, big_commit) = peaks
    for small, big in ((small_batch, big_batch), (small_commit, big_commit)):
        assert big < 64 * 1024 and big <= 2 * small + 16 * 1024, peaks


# -- the overlay cases --------------------------------------------------------


@pytest.fixture
def lazy(monkeypatch):
    """No fold but the ones a read makes: the overlay cases below must
    keep their touched edges pending across batches."""
    monkeypatch.setattr(incremental, "_FOLD_SHARE", 64.0)


class _Follower:
    """One maintainer and the parent's overlay over its committed arrays,
    checked together after every batch."""

    def __init__(self, problem, graph, seed):
        self.inc = _maintainer(problem, graph, seed)
        self.overlay = StateOverlay(self.inc.to_state())
        self.pure = self.inc.to_state()
        self.live = set(_live(graph))
        self.seen = {"pending_flip": 0, "matched_deleted": 0, "pending_batches": 0}

    def matched(self):
        res = result_from_state(copy.deepcopy(self.overlay).fold())
        return sorted((int(a), int(b)) for a, b in zip(res.edge_u[res.matched], res.edge_v[res.matched]))

    def apply(self, ins, dels):
        inc, overlay = self.inc, self.overlay
        if inc.problem == "matching":
            hit = set(self.matched())
            self.seen["matched_deleted"] += sum(pair in hit for pair in dels)
        pending = {tuple(divmod(key, inc.n)) for key, row in overlay._edges.items() if row is not None}
        inc.apply_batch(ins, dels)
        if inc.problem == "matching":
            self.seen["pending_flip"] += sum((a, b) in pending for a, b, _ in inc.last_flips)
        overlay.commit(ins, dels, inc.last_flips, inc.counters.aux())
        self.pure = apply_flips(self.pure, ins, dels, inc.last_flips)
        self.pure["counters"] = inc.counters.aux()
        self.live = (self.live - set(dels)) | set(ins)
        self.seen["pending_batches"] += bool(inc._overlay._edges) and bool(overlay._edges)
        self.check()

    def check(self):
        inc = self.inc
        worker = copy.deepcopy(inc).to_state()   # folds the copy, not inc
        parent = copy.deepcopy(self.overlay).fold()
        _same_arrays(parent, worker)
        _same_arrays(self.pure, worker)
        ref = _scratch(inc, self.live)
        got = result_from_state(parent)
        assert np.array_equal(got.status, ref.status)
        read = copy.deepcopy(self.overlay).result()
        assert np.array_equal(read.status, got.status) and np.array_equal(read.ranks, got.ranks)
        assert read.stats == got.stats
        assert (inc.m, inc.size) == (self.overlay.m, self.overlay.size) == (len(self.live), ref.size)

    def read(self):
        """A read between batches: both sides fold for real."""
        _same_arrays(self.overlay.fold(), self.inc.to_state())
        assert not self.inc._overlay._edges and not self.overlay._edges
        self.check()


def _toggles(f, rng, count, size=4):
    """perfbench's batches: delete *size* live edges, re-insert the last ones."""
    prev = []
    for _ in range(count):
        pool = sorted(f.live - set(prev))
        dels = [pool[i] for i in sorted(rng.choice(len(pool), size=size, replace=False))]
        f.apply(prev, dels)
        prev = dels


@pytest.mark.parametrize("problem", ["mis", "matching"])
@pytest.mark.parametrize("seed", [1, 7])
def test_toggles_with_reads_between(lazy, problem, seed):
    f = _Follower(problem, powerlaw_cluster_graph(150, 3, 0.5, seed=seed), seed)
    rng = np.random.default_rng(seed)
    for block in range(4):
        _toggles(f, rng, 6)
        if block % 2:
            f.read()
    assert f.seen["pending_batches"] >= 12
    if problem == "matching":
        assert f.seen["matched_deleted"] > 0


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_an_edge_inserted_then_deleted_later(lazy, problem):
    graph = powerlaw_cluster_graph(120, 3, 0.5, seed=3)
    f = _Follower(problem, graph, seed=3)
    absent = [(a, b) for a in range(40) for b in range(a + 1, 40) if (a, b) not in f.live][:6]
    f.apply(absent[:3], [])
    f.apply(absent[3:], [absent[0]])
    f.apply([], absent[1:3])            # both inserted since the last fold
    f.apply([absent[0]], [absent[3]])   # re-inserted: a fresh row, the same priority
    f.read()
    f.apply([], [absent[0], absent[4]])
    assert not {absent[0], absent[1], absent[4]} & f.live


def test_matched_edges_deleted_and_pending_edges_flipped(lazy):
    """MM: deleting matched edges unmatches neighbours (size falls by the
    deleted matched edges, then follows the flips), and edges inserted
    since the last fold flip both ways before any fold."""
    graph = powerlaw_cluster_graph(150, 3, 0.5, seed=5)
    f = _Follower("matching", graph, seed=5)
    rng = np.random.default_rng(5)
    n = graph.num_vertices
    for step in range(16):
        hit = f.matched()
        dels = [hit[i] for i in sorted(rng.choice(len(hit), size=2, replace=False))]
        ins = []
        while len(ins) < 4:
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            if (a, b) not in f.live and (a, b) not in ins:
                ins.append((a, b))
        f.apply(ins, dels)
    assert f.seen["matched_deleted"] == 32
    assert f.seen["pending_flip"] > 0, f.seen


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_the_touched_bound_folds_both_sides(monkeypatch, problem):
    """Past ``_FOLD_SHARE`` of m a batch folds by itself, in the maintainer
    and in the parent's overlay alike, and every answer stays exact."""
    graph = powerlaw_cluster_graph(150, 3, 0.5, seed=2)
    monkeypatch.setattr(incremental, "_FOLD_SHARE", 0.04)   # ~18 of ~440 edges
    f = _Follower(problem, graph, seed=2)
    rng = np.random.default_rng(2)
    folds = {"worker": 0, "parent": 0}
    for _ in range(24):
        sides = {"worker": f.inc._overlay, "parent": f.overlay}
        bases = {side: overlay._state for side, overlay in sides.items()}
        _toggles(f, rng, 1)
        for side, overlay in sides.items():
            folded = overlay._state is not bases[side]
            folds[side] += folded
            pending = len(overlay._edges) + len(overlay._status)
            # A commit folds before it would pass the bound; what it then
            # leaves pending is its own batch.
            assert pending <= (8 + len(f.inc.last_flips) if folded else 0.04 * f.inc.m)
    assert folds["worker"] >= 3 and folds["parent"] >= 3, folds


def test_the_shipped_share_folds_small_graphs_every_batch():
    """At m ~ 440 the shipped share is under one batch: each commit folds
    the one before it, so only the last batch is pending."""
    graph = powerlaw_cluster_graph(150, 3, 0.5, seed=2)
    f = _Follower("matching", graph, seed=2)
    rng = np.random.default_rng(2)
    assert incremental._FOLD_SHARE * f.inc.m < 8
    n, prev = f.inc.n, []
    for _ in range(4):
        pool = sorted(f.live - set(prev))
        dels = [pool[i] for i in sorted(rng.choice(len(pool), size=4, replace=False))]
        f.apply(prev, dels)
        batch = {a * n + b for a, b in prev + dels} | {a * n + b for a, b, _ in f.inc.last_flips}
        for overlay in (f.inc._overlay, f.overlay):
            assert set(overlay._edges) == batch
        prev = dels


# -- failures leave the overlay as it was -------------------------------------


def _no_memory(*args, **kwargs):
    raise MemoryError("fold")


def _view(overlay):
    """Everything a commit or fold writes, copied (or by identity for the
    arrays, which neither step may write)."""
    return (overlay._state, overlay._keys, copy.deepcopy(overlay._edges),
            dict(overlay._status), overlay._counters, overlay.m, overlay.size)


def _same_view(a, b):
    assert a[0] is b[0] and a[1] is b[1] and a[4] is b[4]
    assert a[2:4] == b[2:4] and a[5:] == b[5:]


@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_a_commit_or_fold_that_raises_changes_nothing(lazy, monkeypatch, problem):
    """A commit folds before its first write, and a fold builds its arrays
    before it swaps them in: either one raising (a MemoryError in the
    O(m) copy, say) leaves the overlay holding the version it held."""
    f = _Follower(problem, powerlaw_cluster_graph(120, 3, 0.5, seed=9), seed=9)
    _toggles(f, np.random.default_rng(9), 3)
    overlay = f.overlay
    before = _view(overlay)
    assert overlay._edges
    with monkeypatch.context() as patch:
        patch.setattr(incremental, "_splice", _no_memory)
        with pytest.raises(MemoryError):
            overlay.fold()
        _same_view(_view(overlay), before)
        patch.setattr(incremental, "_FOLD_SHARE", 0.0)   # the commit folds first
        with pytest.raises(MemoryError):
            overlay.commit([], [sorted(f.live)[0]], [], {})
        _same_view(_view(overlay), before)
    if problem == "mis":   # a fold that fails after its splice
        with monkeypatch.context() as patch:
            patch.setattr(StateOverlay, "_status_array", _no_memory)
            with pytest.raises(MemoryError):
                overlay.fold()
            _same_view(_view(overlay), before)
    _same_arrays(overlay.fold(), f.pure)


def test_an_mis_read_folds_no_edge_row(lazy, monkeypatch):
    """An MIS answer reads the status, the ranks and m: the parent's read
    writes the pending flips over a copy of the status and leaves the
    edge rows pending, so it costs O(n), not O(m)."""
    f = _Follower("mis", powerlaw_cluster_graph(120, 3, 0.5, seed=4), seed=4)
    _toggles(f, np.random.default_rng(4), 5)
    before = _view(f.overlay)
    assert f.overlay._edges and f.overlay._status
    expected = result_from_state(copy.deepcopy(f.overlay).fold())
    monkeypatch.setattr(incremental, "_splice", _no_memory)
    got = f.overlay.result()
    _same_view(_view(f.overlay), before)
    assert np.array_equal(got.status, expected.status) and np.array_equal(got.ranks, expected.ranks)
    assert got.stats == expected.stats and got.status is not f.overlay._state["status"]


@pytest.mark.service
@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_a_fold_that_raises_in_a_mutate_commits_nothing(lazy, tmp_path, monkeypatch, problem):
    """The parent's fold raising inside a mutate fails the mutate and
    changes nothing: the version, m, size, dedup window and log stay, the
    state a ``state_needed`` re-send then ships is the old version's, and
    a restart replays to the state the client was told of."""
    graph = powerlaw_cluster_graph(120, 3, 0.5, seed=8)
    live = _live(graph)
    ref = _maintainer(problem, graph, seed=8)
    store = SnapshotStore(str(tmp_path))
    svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    try:
        sid = svc.create_session(problem, graph, seed=8).session_id
        for step in range(3):
            batch = live[4 * step: 4 * step + 4]
            svc.mutate_session(sid, [], batch, mutation_id=f"m{step}")
            ref.apply_batch([], batch)
        manager = svc.sessions
        record = manager._record(sid)
        assert record.overlay._edges   # the batches are still pending
        expected = copy.deepcopy(record.overlay).fold()
        before = svc.session_info(sid)
        with monkeypatch.context() as patch:   # the parent's only: workers forked already
            patch.setattr(incremental, "_FOLD_SHARE", 0.0)
            patch.setattr(incremental, "_splice", _no_memory)
            with pytest.raises(MemoryError):
                svc.mutate_session(sid, [], live[12:16], mutation_id="m3")
        after = svc.session_info(sid)
        assert (after.version, after.m, after.size) == (before.version, before.m, before.size) == (
            3, ref.m, ref.size)
        assert "m3" not in record.applied and len(store.load_log(sid, 0)) == 3
        shipped = []
        call = manager._call

        def spy(func, kwargs, timeout_s):
            if "state" in kwargs:
                shipped.append(kwargs["state"])
            return call(func, kwargs, timeout_s)

        monkeypatch.setattr(manager, "_call", spy)
        out = svc.mutate_session(sid, [], live[12:16], mutation_id="m3")
        ref.apply_batch([], live[12:16])
        assert len(shipped) == 1
        _same_arrays(shipped[0], expected)
        assert (out["version"], out["m"], out["size"]) == (4, ref.m, ref.size)
    finally:
        svc.shutdown()
    svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    try:
        info = svc.restore_session(session_id=sid)
        assert (info.version, info.m, info.size) == (4, ref.m, ref.size)
        assert np.array_equal(svc.session_result(sid).status, ref.result().status)
    finally:
        svc.shutdown()


# -- the service: reads and snapshots between batches ------------------------


@pytest.mark.service
@pytest.mark.parametrize("problem", ["mis", "matching"])
def test_service_reads_and_snapshots_between_batches(lazy, tmp_path, problem):
    """Workers fork after the patch, so neither side folds but for reads:
    every read, portable snapshot and restore equals a scratch solve."""
    graph = powerlaw_cluster_graph(120, 3, 0.5, seed=6)
    ref_inc = _maintainer(problem, graph, seed=6)
    live = set(_live(graph))
    svc = SolverService(ServiceConfig(workers=1, session_dir=str(tmp_path))).start()
    try:
        sid = svc.create_session(problem, graph, ref_inc.ranks if problem == "mis" else None,
                                 seed=6).session_id
        rng = np.random.default_rng(6)
        prev = []
        for step in range(12):
            pool = sorted(live - set(prev))
            dels = [pool[i] for i in sorted(rng.choice(len(pool), size=4, replace=False))]
            out = svc.mutate_session(sid, prev, dels, mutation_id=f"t{step}")
            live = (live - set(dels)) | set(prev)
            prev = dels
            ref = _scratch(ref_inc, live)
            assert (out["m"], out["size"]) == (len(live), ref.size)
            if step % 3 == 1:
                assert np.array_equal(svc.session_result(sid).status, ref.status)
            if step % 4 == 2:
                snap = svc.session_snapshot(sid)
                assert result_from_state(snap["state"]).size == ref.size
            assert svc.session_info(sid).size == ref.size
        svc.close_session(sid)
        info = svc.restore_session(session_id=sid)
        assert (info.version, info.m, info.size) == (12, len(live), ref.size)
        assert np.array_equal(svc.session_result(sid).status, ref.status)
    finally:
        svc.shutdown()


# -- byte pins ----------------------------------------------------------------

#: sha256 of every snapshot file and log line :func:`_pin_stream` leaves.
#: When a fold happens must never show in the bytes a session writes.
PINS = {
    "pin-mis/create/snapshot": "42285be28bebdd1905bad575418b375506f75c7cd66f87423ad59ac1a9eea626",
    "pin-mis/stream/snapshot": "42285be28bebdd1905bad575418b375506f75c7cd66f87423ad59ac1a9eea626",
    "pin-mis/stream/log/0": "60e9ddc52ade76ae094513d763b910614bdb928ac8cb4d554cb35c07439fcc87",
    "pin-mis/stream/log/1": "d2c9bb9b8bdd7d8e65f42e4700cf14b1cd65a68224a1805717386397252f08f2",
    "pin-mis/stream/log/2": "81baaff2a25f6e917e5eadfce90aa5266fdb14691dcf8c677cafe12dfcad2b87",
    "pin-mis/stream/log/3": "34edfe5fff69fa10e9d5024468dd252494f9eb10a0af699383940519279d5ce9",
    "pin-mis/stream/log/4": "5e1a578dcc18729b317ee9b291bd944e602e03bed11f7bf56fca62c020f6d27f",
    "pin-mis/stream/log/5": "0389a2be11f078eb2d9a66234de2bfae3bde45ac0a56a087fc1c3655e19fe988",
    "pin-mis/restore/snapshot": "409f9525ce74fb9eba45ee7975905e2845829651b0c02bd233d3f86fe273d8df",
    "pin-mis/close/snapshot": "90e01ac31e90c9721e4f20b3e7884ca43e5d36ce1d23b3369cb0c7508720de40",
    "pin-mm/create/snapshot": "154f5112472a5bc689a70557eaca69189e90db6a59f2ee02ac3894207e876913",
    "pin-mm/stream/snapshot": "154f5112472a5bc689a70557eaca69189e90db6a59f2ee02ac3894207e876913",
    "pin-mm/stream/log/0": "80b3b7dd35f6c54d6fde65ba5cfad0f4964042243dcf7f5cca70cc4bcdbc99d6",
    "pin-mm/stream/log/1": "b7e9802001390a4655cea0cdceb6e9587dcca08fa6bb49ad0c3354d0cb49bf81",
    "pin-mm/stream/log/2": "6473bd386449432e0960f39716d1da2e7a29a22e34b96cad16535eae38acc2be",
    "pin-mm/stream/log/3": "0191be141c462cca07aa694557ba965e225924783487a5380dbc599ab3657a5e",
    "pin-mm/stream/log/4": "8d8d9837d51f33dd7bd4a903c4e6371722c8ad31d3bc37970fc4641a36a24146",
    "pin-mm/stream/log/5": "9ce34dd0b3aad011df9d9ca2e1b9eb2a22696429bed8be0fb77c49d88a79b3a9",
    "pin-mm/restore/snapshot": "3208e7c4e16231c256827f2a84b19b74dfc646ebb71b24df9313d68d52b041d5",
    "pin-mm/close/snapshot": "171cc76064429ef4ca746f95b1476cf995db8f6a5d65e4be4961ae6d9e0d100d",
    "pin-win/overflow/snapshot": "0f98e1a886ea445354d798e3099228e5eb6f499c886a5520609c20d72d8fab5f",
    "pin-win/after/snapshot": "0f98e1a886ea445354d798e3099228e5eb6f499c886a5520609c20d72d8fab5f",
    "pin-win/after/log/0": "d95796d378d905df96390cd5ef29ee06ea649fe7b3952ea86f7eabe74d80fd1b",
}


def _pin_stream(root, monkeypatch):
    """One fixed mutation stream through durable sessions; the sha256 of
    the files it leaves at each stage.

    MIS and MM sessions are created, take six batches each (toggles, an
    edge inserted and deleted later, a matched MM edge deleted, a read in
    between), survive a service restart through their logs, take one
    more batch and close.  A third session runs with a 3-record window,
    so its 4th mutate writes a snapshot in place of a record.
    """
    graph = powerlaw_cluster_graph(60, 3, 0.5, seed=4)
    el = graph.edge_list()
    n = graph.num_vertices
    live = sorted(zip(el.u.tolist(), el.v.tolist()))
    present = set(live)
    absent = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in present]
    digests = {}

    def files(tag, sid):
        with open(os.path.join(root, f"{sid}.json"), "rb") as fh:
            digests[f"{tag}/snapshot"] = hashlib.sha256(fh.read()).hexdigest()
        log = os.path.join(root, f"{sid}.log")
        if os.path.exists(log):
            with open(log, "rb") as fh:
                for i, line in enumerate(fh.read().splitlines()):
                    digests[f"{tag}/log/{i}"] = hashlib.sha256(line).hexdigest()

    def stream(svc, problem, sid, offset):
        prev = []
        for step in range(6):
            dels = live[offset + 4 * step: offset + 4 * step + 4]
            ins = prev
            if step == 2:
                ins = ins + [absent[offset]]
            if step == 3:
                dels = dels + [absent[offset]]
            if step == 4:
                res = svc.session_result(sid)
                hit = [(int(a), int(b)) for a, b, s in zip(res.edge_u, res.edge_v, res.status)
                       if s == 1] if problem == "matching" else []
                dels = dels + [e for e in hit if e not in dels and e not in ins and e in present][:1]
            svc.mutate_session(sid, ins, dels, mutation_id=f"{sid}-{step}")
            prev = [e for e in dels if e in present]

    svc = SolverService(ServiceConfig(workers=1, session_dir=root)).start()
    try:
        svc.create_session("mis", graph, random_priorities(n, seed=9), session_id="pin-mis")
        svc.create_session("matching", el, seed=5, session_id="pin-mm")
        for problem, sid in (("mis", "pin-mis"), ("matching", "pin-mm")):
            files(f"{sid}/create", sid)
            stream(svc, problem, sid, 0 if problem == "mis" else 3)
            files(f"{sid}/stream", sid)
    finally:
        svc.shutdown()
    svc = SolverService(ServiceConfig(workers=1, session_dir=root)).start()
    try:
        for sid in ("pin-mis", "pin-mm"):
            svc.restore_session(session_id=sid)
            files(f"{sid}/restore", sid)
            svc.mutate_session(sid, [], [live[40]], mutation_id=f"{sid}-after")
            svc.close_session(sid)
            files(f"{sid}/close", sid)
    finally:
        svc.shutdown()
    monkeypatch.setattr(sessions_mod, "DEDUP_WINDOW", 3)
    svc = SolverService(ServiceConfig(workers=1, session_dir=root)).start()
    try:
        svc.create_session("matching", el, seed=6, session_id="pin-win")
        for step in range(5):
            svc.mutate_session("pin-win", live[49 + step: 50 + step] if step else [],
                               [live[50 + step]], mutation_id=f"w{step}")
            if step == 3:
                files("pin-win/overflow", "pin-win")
        files("pin-win/after", "pin-win")
    finally:
        svc.shutdown()
    return digests


@pytest.mark.service
@pytest.mark.parametrize("share", ["shipped", "lazy"])
def test_snapshot_and_log_bytes_are_pinned(tmp_path, monkeypatch, share):
    if share == "lazy":
        monkeypatch.setattr(incremental, "_FOLD_SHARE", 64.0)
    assert _pin_stream(str(tmp_path), monkeypatch) == PINS
