"""Shard executor (repro.backends).

Worker-count resolution and the FrontierExecutor's gather parity with the
single-process kernels plus its barrier/crash/deadline behavior.
"""

import glob
import time

import numpy as np
import pytest

from repro.backends import FrontierExecutor, get_executor, shutdown_executors
from repro.core.fanout import (
    DEFAULT_MIN_FANOUT,
    WORKERS_ENV,
    bundle_digest,
    resolve_workers,
)
from repro.errors import DeadlineExceededError, EngineError, WorkerCrashError
from repro.graphs.generators import uniform_random_graph
from repro.kernels.frontier import frontier_gather

pytestmark = pytest.mark.multicore


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(glob.glob("/dev/shm/repro-*"))
    yield
    shutdown_executors()
    leaked = set(glob.glob("/dev/shm/repro-*")) - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_default_is_bounded_by_cpus(self, monkeypatch):
        import os

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == min(os.cpu_count() or 1, 4)

    def test_nonpositive_rejected(self):
        with pytest.raises(EngineError):
            resolve_workers(0)

    def test_bundle_digest_tracks_content(self):
        a = np.arange(10, dtype=np.int64)
        assert bundle_digest(a) == bundle_digest(a.copy())
        assert bundle_digest(a) != bundle_digest(a + 1)
        assert DEFAULT_MIN_FANOUT > 0


class TestFrontierExecutor:
    def _graph_bundle(self, ex, g):
        return ex.share_bundle(
            "test", bundle_digest(g.offsets, g.neighbors),
            lambda: {"off": g.offsets, "nbr": g.neighbors},
        )

    def test_gather_matches_single_process(self):
        g = uniform_random_graph(500, 2500, seed=1)
        ex = FrontierExecutor(2)
        try:
            ex.reserve({"frontier": 500, "out_v": g.num_arcs, "out_o": g.num_arcs})
            name = self._graph_bundle(ex, g)
            frontier = np.flatnonzero(np.arange(500) % 2 == 0).astype(np.int64)
            degrees = g.offsets[frontier + 1] - g.offsets[frontier]
            owner, values, info = ex.gather(
                graph=name, offsets_key="off", data_key="nbr",
                frontier=frontier, degrees=degrees, need_owner=True,
            )
            ref_owner, ref_values = frontier_gather(
                g.offsets, g.neighbors, frontier, None
            )
            np.testing.assert_array_equal(values, ref_values)
            np.testing.assert_array_equal(owner, ref_owner)
            assert len(info["split"]) == 2
            # split records per-worker gathered-slot counts
            assert sum(info["split"]) == int(degrees.sum())
        finally:
            ex.shutdown()

    def test_worker_death_respawns_pool(self):
        g = uniform_random_graph(200, 800, seed=2)
        ex = FrontierExecutor(2)
        try:
            ex.reserve({"frontier": 200, "out_v": g.num_arcs})
            name = self._graph_bundle(ex, g)
            frontier = np.arange(200, dtype=np.int64)
            degrees = g.offsets[frontier + 1] - g.offsets[frontier]
            ex.arm_kill(0, after=1)
            with pytest.raises(WorkerCrashError, match="respawned"):
                ex.gather(
                    graph=name, offsets_key="off", data_key="nbr",
                    frontier=frontier, degrees=degrees, need_owner=False,
                )
            # The pool must come back usable with the same shared state.
            name = self._graph_bundle(ex, g)
            _, values, _ = ex.gather(
                graph=name, offsets_key="off", data_key="nbr",
                frontier=frontier, degrees=degrees, need_owner=False,
            )
            _, ref = frontier_gather(g.offsets, g.neighbors, frontier, None)
            np.testing.assert_array_equal(values, ref)
        finally:
            ex.shutdown()

    def test_expired_deadline_raises_before_dispatch(self):
        g = uniform_random_graph(100, 300, seed=3)
        ex = FrontierExecutor(2)
        try:
            ex.reserve({"frontier": 100, "out_v": g.num_arcs})
            name = self._graph_bundle(ex, g)
            frontier = np.arange(100, dtype=np.int64)
            degrees = g.offsets[frontier + 1] - g.offsets[frontier]
            with pytest.raises(DeadlineExceededError):
                ex.gather(
                    graph=name, offsets_key="off", data_key="nbr",
                    frontier=frontier, degrees=degrees,
                    deadline=time.monotonic() - 1.0,
                )
        finally:
            ex.shutdown()

    def test_get_executor_caches_per_worker_count(self):
        a = get_executor(2)
        b = get_executor(2)
        c = get_executor(3)
        assert a is b
        assert a is not c
        shutdown_executors()
        assert a.closed and c.closed
