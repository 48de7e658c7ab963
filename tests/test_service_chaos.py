"""Service chaos suite: kill storms and fault storms, bit-identical results.

The acceptance bar (ISSUE/ROADMAP robustness track): every injected
worker crash is retried-or-surfaced, sibling requests are untouched, and
the final results of a chaos-laden batch are **bit-identical** to a
clean run — the schedule-independence guarantee extended across process
deaths and breaker-driven engine degradation.
"""

import numpy as np
import pytest

from repro.core.engines import fallback_chain
from repro.core.engines import solve as direct_solve
from repro.errors import ReproError, WorkerCrashError
from repro.graphs.generators import rmat_graph, uniform_random_graph
from repro.service import SolveRequest, SolverService

pytestmark = [pytest.mark.chaos, pytest.mark.service]

#: The kernel faults that reach each engine a default-configured storm
#: serves (prefix, then its fallback chain): the kinds whose kernel the
#: engine's module binds.  ``sequential`` binds none.
FAULT_REACH = {
    ("mis", "prefix"): {"min-lift"},
    ("matching", "prefix"): {"min-lift"},
    ("mis", "rootset-vec"): {
        "drop-frontier", "dup-frontier", "foreign-frontier", "count-extra",
    },
    ("matching", "rootset-vec"): {
        "drop-frontier", "dup-frontier", "foreign-frontier", "cursor-skip",
    },
    ("mis", "sequential"): set(),
    ("matching", "sequential"): set(),
}


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(200, 650, seed=1)


def _storm(graph, n, method=None):
    return [SolveRequest("mis" if i % 2 == 0 else "mm",
                         graph if i % 2 == 0 else graph.edge_list(),
                         method=method, options={"seed": i})
            for i in range(n)]


def _reference(req):
    return direct_solve(req.problem, req.payload, method="sequential",
                        seed=req.options["seed"])


def _assert_bit_identical(requests, results):
    for req, res in zip(requests, results):
        assert not isinstance(res, Exception), res
        ref = _reference(req)
        assert np.array_equal(res.status, ref.status), (
            f"{req.problem} seed={req.options['seed']} diverged: "
            f"{res.stats.aux['service']['attempts']}"
        )


def _faulted_errors(results):
    """The attempts a kernel fault made fail: proof the storm's faults
    reached an engine, not just the kill half of the storm."""
    return [a for res in results
            for a in res.stats.aux["service"]["attempts"]
            if a["outcome"].startswith("error")
            and "fault" in (a["chaos"] or {})]


def _assert_storm_degraded(requests, results, stats, primary):
    """A fault storm's bar: bit-identical answers, some retries, and some
    requests served off *primary* after a failed attempt.  Returns the
    degraded results."""
    _assert_bit_identical(requests, results)
    assert stats.retries > 0, "storm injected no effective faults"
    degraded = [r for r in results
                if r.stats.aux.get("degraded")]
    assert degraded, "no request was served by a fallback engine"
    for res in degraded:
        aux = res.stats.aux["service"]
        assert aux["engine"] != primary
        assert any(a["outcome"].startswith("error")
                   or a["outcome"] == "crash"
                   for a in aux["attempts"][:-1])
    return degraded


class TestKillStorm:
    @pytest.mark.parametrize("kill_point", ["pre", "post"])
    def test_killed_workers_are_retried_to_bit_identical_results(
        self, graph, kill_point
    ):
        """'post' is the sharp case: the worker computes the answer, then
        dies before replying — the retry must reproduce it exactly."""
        requests = _storm(graph, 10)
        with SolverService(workers=2, kill_probability=0.4, max_retries=8,
                           kill_point=kill_point, chaos_seed=42,
                           backoff_base=0.002, tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
            stats = svc.stats()
        _assert_bit_identical(requests, results)
        assert stats.worker_crashes > 0, "storm injected no kills"
        assert stats.worker_restarts == stats.worker_crashes
        assert stats.workers_alive == 2
        # One attempt in flight per request: the log is one ordered
        # sequence of crashes ended by the attempt that answered.
        for res in results:
            aux = res.stats.aux["service"]
            attempts = aux["attempts"]
            assert [a["attempt"] for a in attempts] == list(range(len(attempts)))
            assert all(a["outcome"] == "crash" for a in attempts[:-1])
            assert attempts[-1]["outcome"] == "ok"
            assert aux["retries"] == len(attempts) - 1

    def test_every_crash_is_retried_or_surfaced(self, graph):
        """No lost requests: with retries disabled, every injected kill
        must surface as a typed WorkerCrashError carrying the attempt
        log — never a hang, never a silent drop."""
        requests = _storm(graph, 6)
        with SolverService(workers=2, kill_probability=1.0, max_retries=0,
                           kill_point="pre", chaos_seed=7,
                           tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
        assert all(isinstance(r, ReproError) for r in results)
        crash_errors = [r for r in results if isinstance(r, WorkerCrashError)]
        assert crash_errors, "expected surfaced crashes"
        assert "attempt 0" in str(crash_errors[0])

    def test_crash_log_lands_in_aux_after_recovery(self, graph):
        req = SolveRequest("mis", graph, options={"seed": 0})
        with SolverService(workers=1, kill_probability=1.0, max_retries=3,
                           kill_point="pre", chaos_seed=1,
                           backoff_base=0.002, tick=0.005) as svc:
            # chaos stream: with p=1 the first attempts all die; the
            # retry budget must be what saves the request... unless every
            # attempt dies.  Accept either a recovered result with crash
            # attempts logged, or a typed WorkerCrashError.
            try:
                res = svc.solve(req, timeout=60)
            except WorkerCrashError:
                return
        attempts = res.stats.aux["service"]["attempts"]
        assert any(a["outcome"] == "crash" for a in attempts)


class TestFaultStorm:
    def test_kernel_faults_degrade_and_stay_bit_identical(self, graph):
        requests = _storm(graph, 10, method="rootset-vec")
        with SolverService(workers=2, fault_probability=0.6, max_retries=8,
                           chaos_seed=3, backoff_base=0.002,
                           tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
            stats = svc.stats()
        _assert_storm_degraded(requests, results, stats, "rootset-vec")

    def test_min_lift_storm_degrades_the_served_default(self, graph):
        """Chaos reaches the engine the service serves by default: a
        fault storm on a default-configured service arms min-lift on
        it, its faulted attempts degrade down the chain, and every
        answer is still bit-identical."""
        requests = _storm(graph, 10)
        with SolverService(workers=2, fault_probability=0.6,
                           max_retries=8, chaos_seed=3, backoff_base=0.002,
                           tick=0.005) as svc:
            default = svc.config.default_method
            results = svc.solve_many(requests, return_errors=True)
            stats = svc.stats()
        degraded = _assert_storm_degraded(requests, results, stats, default)
        assert any(
            a["method"] == default and a["chaos"]["fault"]["kind"] == "min-lift"
            for a in _faulted_errors(degraded)
        ), "no min-lift fault landed on the default engine"

    def test_combined_kill_and_fault_storm_on_skewed_graph(self):
        """Pinned to rootset-vec, so the frontier faults are armed: the
        served default binds only min-lift's kernel."""
        g = rmat_graph(8, 900, seed=2)
        requests = _storm(g, 8, method="rootset-vec")
        with SolverService(workers=2, kill_probability=0.25,
                           fault_probability=0.25, max_retries=10,
                           chaos_seed=11, backoff_base=0.002,
                           tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
        _assert_bit_identical(requests, results)
        assert _faulted_errors(results), "no kernel fault landed"

    def test_armed_faults_reach_their_attempts_engine(self, graph):
        """A default-configured storm arms only faults that can strike:
        every armed kind's kernel is bound by the engine its attempt
        ran, min-lift on prefix and the frontier faults once an attempt
        degrades to rootset-vec."""
        requests = _storm(graph, 16)
        with SolverService(workers=2, kill_probability=0.2,
                           fault_probability=0.6, max_retries=8,
                           chaos_seed=5, backoff_base=0.002,
                           tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
        _assert_bit_identical(requests, results)
        armed = [(req.problem, a)
                 for req, res in zip(requests, results)
                 for a in res.stats.aux["service"]["attempts"]
                 if "fault" in (a["chaos"] or {})]
        assert armed, "storm armed no fault"
        for problem, a in armed:
            problem = "matching" if problem == "mm" else problem
            assert a["chaos"]["fault"]["kind"] in FAULT_REACH[
                (problem, a["method"])
            ], a

    def test_stats_count_armed_and_landed_faults_and_degraded(self, graph):
        """ServiceStats counts what the attempt logs show: faults armed,
        faults that ended their attempt in an error, degraded answers."""
        requests = _storm(graph, 16)
        with SolverService(workers=2, kill_probability=0.2,
                           fault_probability=0.6, max_retries=8,
                           chaos_seed=5, backoff_base=0.002,
                           tick=0.005) as svc:
            results = svc.solve_many(requests, return_errors=True)
            stats = svc.stats()
        _assert_bit_identical(requests, results)
        attempts = [a for res in results
                    for a in res.stats.aux["service"]["attempts"]]
        armed = [a for a in attempts if "fault" in (a["chaos"] or {})]
        assert armed, "storm armed no fault"
        assert stats.faults_armed == len(armed)
        assert stats.faults_landed == sum(
            a["outcome"].startswith("error") for a in armed)
        assert stats.degraded == sum(
            bool(res.stats.aux.get("degraded")) for res in results)
        assert stats.as_dict()["faults_landed"] == stats.faults_landed


class TestIsolation:
    def test_sibling_requests_survive_a_poisoned_one(self, graph):
        """One request is hammered (its chaos stream kills every attempt);
        the clean siblings sharing the pool must all complete correctly."""
        clean = _storm(graph, 6)
        with SolverService(workers=2, max_retries=2, tick=0.005,
                           backoff_base=0.002) as svc:
            # Poison pill: a call job that always dies (os._exit outside
            # chaos accounting would be a real crash; use exit through a
            # worker-killing call).
            pill = svc.submit(SolveRequest(
                "call", {"module": "os", "func": "_exit", "args": (13,)}
            ))
            results = svc.solve_many(clean)
            pill_exc = pill.exception(timeout=60)
            stats = svc.stats()
        _assert_bit_identical(clean, results)
        assert isinstance(pill_exc, WorkerCrashError)
        assert stats.worker_crashes >= 1
        assert stats.workers_alive == 2

    def test_chaos_batch_equals_clean_batch_bit_for_bit(self, graph):
        """The headline guarantee: a chaos-laden service run returns the
        exact bytes a chaos-free service run returns.  Pinned to
        rootset-vec, like the combined storm, so frontier faults land."""
        requests = _storm(graph, 8, method="rootset-vec")
        with SolverService(workers=2, tick=0.005) as svc:
            clean = svc.solve_many(requests)
        with SolverService(workers=2, kill_probability=0.3,
                           fault_probability=0.3, max_retries=10,
                           chaos_seed=99, backoff_base=0.002,
                           tick=0.005) as svc:
            chaotic = svc.solve_many(requests)
            stats = svc.stats()
        assert stats.worker_crashes + stats.retries > 0, "storm was a no-op"
        assert _faulted_errors(chaotic), "no kernel fault landed"
        for a, b in zip(clean, chaotic):
            assert np.array_equal(a.status, b.status)
            assert np.array_equal(a.ranks, b.ranks)


class TestBreakerDegradation:
    def test_open_breaker_routes_to_fallback_engine(self, graph):
        """Trip the default engine's breaker by hand; the next requests
        must be served by the next engine in the chain, bit-identically."""
        with SolverService(workers=1, breaker_threshold=2,
                           breaker_reset_seconds=60.0, tick=0.005) as svc:
            default = svc.config.default_method
            b = svc.breaker("mis", default)
            b.record_failure()
            b.record_failure()
            assert b.state == "open"
            res = svc.solve(SolveRequest("mis", graph, options={"seed": 4}),
                            timeout=60)
        ref = direct_solve("mis", graph, method=default, seed=4)
        assert np.array_equal(res.status, ref.status)
        aux = res.stats.aux
        assert aux["degraded"] is True
        assert aux["service"]["engine"] == next(
            m for m in fallback_chain("mis") if m != default
        )
        assert aux["service"]["requested_method"] == default

    def test_degraded_attempt_strips_multicore_knobs(self, graph):
        """Regression: a parallel-vec request carrying engine-specific
        knobs (workers/min_fanout) must degrade cleanly — the chain
        engines reject those keywords, so the scheduler strips every knob
        the registry flags as unsupported for the fallback."""
        with SolverService(workers=1, breaker_threshold=2,
                           breaker_reset_seconds=60.0, tick=0.005) as svc:
            b = svc.breaker("mis", "parallel-vec")
            b.record_failure()
            b.record_failure()
            assert b.state == "open"
            res = svc.solve(
                SolveRequest(
                    "mis", graph, method="parallel-vec",
                    options={"seed": 11, "workers": 2, "min_fanout": 0},
                ),
                timeout=60,
            )
        ref = direct_solve("mis", graph, method="rootset-vec", seed=11)
        assert np.array_equal(res.status, ref.status)
        aux = res.stats.aux
        assert aux["degraded"] is True
        assert aux["service"]["requested_method"] == "parallel-vec"
        assert aux["service"]["engine"] != "parallel-vec"
        # One attempt was enough: the stripped knobs never poisoned it.
        assert aux["service"]["retries"] == 0

    def test_breaker_recovers_after_reset_window(self, graph):
        clock_cheat = 0.05
        with SolverService(workers=1, breaker_threshold=1,
                           breaker_reset_seconds=clock_cheat,
                           tick=0.005) as svc:
            default = svc.config.default_method
            svc.breaker("mis", default).record_failure()
            assert svc.breaker("mis", default).state == "open"
            import time
            time.sleep(clock_cheat * 2)
            res = svc.solve(SolveRequest("mis", graph, options={"seed": 6}),
                            timeout=60)
        # The half-open probe went to the primary engine and succeeded.
        assert res.stats.aux["service"]["engine"] == default
        assert not res.stats.aux.get("degraded")
