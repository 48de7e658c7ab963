"""parallel-vec engines: bit-identical to the sequential greedy, always.

The paper's determinism property is the contract here: for fixed
priorities, the process-parallel engines must return exactly the
lexicographically-first MIS/matching — same status arrays, same charged
work/depth/steps as their single-process rootset-vec twins — for every
worker count, with guards on, under forced fan-out, and across seeded
shard kills.  The suites are smoke-sized so they run
in the tier-1 wall-clock budget; scale the fuzz corpus via the usual
hypothesis profile if needed.
"""

import glob

import numpy as np
import pytest

from repro.backends import shutdown_executors
from repro.backends.executor import get_executor
from repro.core.fanout import FanoutStats
from repro.core.mis import (
    parallel_mis_vectorized,
    rootset_mis_vectorized,
    sequential_greedy_mis,
)
from repro.core.matching import (
    parallel_matching_vectorized,
    rootset_matching_vectorized,
    sequential_greedy_matching,
)
from repro.core.orderings import random_priorities
from repro.errors import BudgetExceededError, WorkerCrashError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    star_graph,
    uniform_random_graph,
)
from repro.pram.machine import Machine
from repro.robustness.budget import Budget

pytestmark = pytest.mark.multicore

WORKER_COUNTS = (1, 2, 3)

#: Values a deployment may still export as ``REPRO_BACKEND``.  The
#: variable and the numba backend are retired: shard workers run the
#: ``repro.kernels`` gathers whatever the environment says.
STALE_BACKEND_ENV = ("numba", "numpy")

CORPUS = [
    pytest.param(lambda: uniform_random_graph(400, 1600, seed=0), id="gnm-400"),
    pytest.param(lambda: uniform_random_graph(300, 4000, seed=1), id="dense-300"),
    pytest.param(lambda: grid_graph(15, 15), id="grid-15x15"),
    pytest.param(lambda: cycle_graph(257), id="cycle-257"),
    pytest.param(lambda: star_graph(200), id="star-200"),
    pytest.param(lambda: complete_graph(40), id="K40"),
]


@pytest.fixture(autouse=True)
def executors_cleaned_up():
    before = set(glob.glob("/dev/shm/repro-*"))
    yield
    shutdown_executors()
    leaked = set(glob.glob("/dev/shm/repro-*")) - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


class TestMISParity:
    @pytest.mark.parametrize("make_graph", CORPUS)
    @pytest.mark.parametrize("stale_backend", STALE_BACKEND_ENV)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_sequential(
        self, monkeypatch, make_graph, stale_backend, workers
    ):
        monkeypatch.setenv("REPRO_BACKEND", stale_backend)
        g = make_graph()
        ranks = random_priorities(g.num_vertices, seed=42)
        ref = sequential_greedy_mis(g, ranks)
        res = parallel_mis_vectorized(g, ranks, workers=workers, min_fanout=0)
        np.testing.assert_array_equal(res.status, ref.status)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stats_match_rootset_vec(self, workers):
        g = uniform_random_graph(500, 2500, seed=3)
        ranks = random_priorities(500, seed=4)
        ref = rootset_mis_vectorized(g, ranks, machine=Machine())
        res = parallel_mis_vectorized(
            g, ranks, workers=workers, min_fanout=0, machine=Machine()
        )
        np.testing.assert_array_equal(res.status, ref.status)
        assert res.stats.work == ref.stats.work
        assert res.stats.depth == ref.stats.depth
        assert res.stats.steps == ref.stats.steps

    def test_guards_full_parity(self):
        g = uniform_random_graph(300, 1200, seed=5)
        ranks = random_priorities(300, seed=6)
        ref = sequential_greedy_mis(g, ranks)
        res = parallel_mis_vectorized(
            g, ranks, workers=2, min_fanout=0, guards="full"
        )
        np.testing.assert_array_equal(res.status, ref.status)

    def test_aux_records_fanout_shape(self):
        g = uniform_random_graph(400, 2000, seed=7)
        ranks = random_priorities(400, seed=8)
        res = parallel_mis_vectorized(g, ranks, workers=2, min_fanout=0)
        par = res.stats.aux["parallel"]
        assert set(par) == {
            "workers", "split", "worker_busy_s", "barrier_wait_s",
            "fanout_steps", "local_steps",
        }
        assert par["workers"] == 2
        assert par["fanout_steps"] > 0
        assert len(par["split"]) == 2
        assert len(par["worker_busy_s"]) == 2
        assert par["barrier_wait_s"] >= 0.0

    def test_single_worker_never_spawns(self):
        g = uniform_random_graph(200, 800, seed=10)
        ranks = random_priorities(200, seed=11)
        res = parallel_mis_vectorized(g, ranks, workers=1, min_fanout=0)
        par = res.stats.aux["parallel"]
        assert par["fanout_steps"] == 0
        assert par["local_steps"] > 0

    def test_below_min_fanout_runs_locally(self):
        g = cycle_graph(50)
        ranks = random_priorities(50, seed=12)
        res = parallel_mis_vectorized(g, ranks, workers=2, min_fanout=10**9)
        assert res.stats.aux["parallel"]["fanout_steps"] == 0


class TestMatchingParity:
    @pytest.mark.parametrize("make_graph", CORPUS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_to_sequential(self, make_graph, workers):
        el = make_graph().edge_list()
        ranks = random_priorities(el.num_edges, seed=21)
        ref = sequential_greedy_matching(el, ranks)
        res = parallel_matching_vectorized(
            el, ranks, workers=workers, min_fanout=0
        )
        np.testing.assert_array_equal(res.status, ref.status)

    @pytest.mark.parametrize("backend", STALE_BACKEND_ENV)
    def test_backend_parity(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        el = uniform_random_graph(300, 1500, seed=22).edge_list()
        ranks = random_priorities(el.num_edges, seed=23)
        ref = sequential_greedy_matching(el, ranks)
        res = parallel_matching_vectorized(el, ranks, workers=2, min_fanout=0)
        np.testing.assert_array_equal(res.status, ref.status)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stats_match_rootset_vec(self, workers):
        el = uniform_random_graph(400, 2000, seed=24).edge_list()
        ranks = random_priorities(el.num_edges, seed=25)
        ref = rootset_matching_vectorized(el, ranks, machine=Machine())
        res = parallel_matching_vectorized(
            el, ranks, workers=workers, min_fanout=0, machine=Machine()
        )
        np.testing.assert_array_equal(res.status, ref.status)
        assert res.stats.work == ref.stats.work
        assert res.stats.depth == ref.stats.depth
        assert res.stats.steps == ref.stats.steps

    def test_guards_full_parity(self):
        el = uniform_random_graph(250, 1000, seed=26).edge_list()
        ranks = random_priorities(el.num_edges, seed=27)
        ref = sequential_greedy_matching(el, ranks)
        res = parallel_matching_vectorized(
            el, ranks, workers=2, min_fanout=0, guards="full"
        )
        np.testing.assert_array_equal(res.status, ref.status)


class TestChaos:
    def test_mis_shard_kill_mid_step_raises_and_recovers(self):
        g = uniform_random_graph(600, 3000, seed=30)
        ranks = random_priorities(600, seed=31)
        ref = sequential_greedy_mis(g, ranks)
        # Arm the kill on the executor the engine will pick up.
        ex = get_executor(2)
        ex.arm_kill(0, after=1)
        with pytest.raises(WorkerCrashError):
            parallel_mis_vectorized(g, ranks, workers=2, min_fanout=0)
        # The pool respawned: the next run must succeed bit-identically.
        res = parallel_mis_vectorized(g, ranks, workers=2, min_fanout=0)
        np.testing.assert_array_equal(res.status, ref.status)

    def test_matching_shard_kill_mid_step_raises_and_recovers(self):
        el = uniform_random_graph(500, 2500, seed=32).edge_list()
        ranks = random_priorities(el.num_edges, seed=33)
        ref = sequential_greedy_matching(el, ranks)
        ex = get_executor(2)
        ex.arm_kill(1, after=1)
        with pytest.raises(WorkerCrashError):
            parallel_matching_vectorized(el, ranks, workers=2, min_fanout=0)
        res = parallel_matching_vectorized(el, ranks, workers=2, min_fanout=0)
        np.testing.assert_array_equal(res.status, ref.status)

    def test_exhausted_budget_raises_budget_error(self):
        g = uniform_random_graph(500, 2500, seed=34)
        ranks = random_priorities(500, seed=35)
        budget = Budget(max_seconds=1e-9)
        budget.start()
        import time

        time.sleep(0.01)  # guarantee the budget is already spent
        with pytest.raises(BudgetExceededError):
            parallel_mis_vectorized(
                g, ranks, workers=2, min_fanout=0, budget=budget
            )


class TestFanoutStats:
    def test_to_aux_shape(self):
        par = FanoutStats(2)
        par.record_local()
        par.record_fanout({"split": [10, 7], "busy_s": [0.1, 0.2], "wall_s": 0.3})
        aux = par.to_aux()
        assert aux["workers"] == 2
        assert aux["local_steps"] == 1
        assert aux["fanout_steps"] == 1
        assert aux["split"] == [10, 7]
        assert aux["barrier_wait_s"] == pytest.approx(0.1, abs=1e-9)
