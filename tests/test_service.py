"""Solver-service behavior: parity, queueing, deadlines, breakers, stats.

The chaos-mode suites (seeded kill/fault storms) live in
test_service_chaos.py; this file covers the service's clean-path
contract plus the unit state machines (CircuitBreaker, ServiceConfig,
SolveRequest, ServiceFuture).
"""

import dataclasses
import time

import numpy as np
import pytest

import repro
from repro.core.engines import solve as direct_solve
from repro.core.orderings import random_priorities
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    EngineError,
    InvalidOrderingError,
    QueueFullError,
    ServiceError,
)
from repro.graphs.generators import uniform_random_graph
from repro.service import (
    CircuitBreaker,
    ServiceConfig,
    SolveRequest,
    SolverService,
    solve_many,
)

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(250, 800, seed=0)


@pytest.fixture(scope="module")
def service():
    """One shared clean-path service (spawned once per module)."""
    with SolverService(workers=2, tick=0.005) as svc:
        yield svc


def _sleep_request(seconds, **kwargs):
    return SolveRequest(
        "call", {"module": "time", "func": "sleep", "args": (seconds,)},
        **kwargs,
    )


class TestParity:
    def test_mis_bit_identical_to_in_process(self, service, graph):
        res = service.solve(SolveRequest("mis", graph, options={"seed": 3}),
                            timeout=60)
        ref = direct_solve("mis", graph, method=service.config.default_method,
                           seed=3)
        assert np.array_equal(res.status, ref.status)
        assert np.array_equal(res.ranks, ref.ranks)
        assert res.stats.algorithm == ref.stats.algorithm
        assert res.stats.work == ref.stats.work

    def test_matching_bit_identical_and_mm_alias(self, service, graph):
        el = graph.edge_list()
        res = service.solve(SolveRequest("mm", el, options={"seed": 5}),
                            timeout=60)
        ref = direct_solve("matching", el, method="rootset-vec", seed=5)
        assert np.array_equal(res.status, ref.status)
        assert np.array_equal(res.edge_u, ref.edge_u)
        assert np.array_equal(res.edge_v, ref.edge_v)

    def test_explicit_ranks_cross_the_pipe(self, service, graph):
        ranks = random_priorities(graph.num_vertices, seed=9)
        res = service.solve(SolveRequest("mis", graph, ranks=ranks), timeout=60)
        ref = direct_solve("mis", graph, ranks, method="rootset-vec")
        assert np.array_equal(res.status, ref.status)

    def test_explicit_method_is_honored(self, service, graph):
        res = service.solve(
            SolveRequest("mis", graph, method="sequential",
                         options={"seed": 1}),
            timeout=60,
        )
        assert res.stats.algorithm == "mis/sequential"

    def test_aux_service_records_the_attempt(self, service, graph):
        res = service.solve(SolveRequest("mis", graph, options={"seed": 0}),
                            timeout=60)
        aux = res.stats.aux["service"]
        assert aux["engine"] == service.config.default_method
        assert aux["retries"] == 0
        assert len(aux["attempts"]) == 1
        assert aux["attempts"][0]["outcome"] == "ok"

    def test_call_jobs_run_arbitrary_functions(self, service):
        req = SolveRequest("call", {"module": "json", "func": "dumps",
                                    "kwargs": {"obj": [1, 2]}})
        assert service.solve(req, timeout=30) == "[1, 2]"


class TestBatch:
    def test_solve_many_preserves_input_order(self, service, graph):
        reqs = [SolveRequest("mis", graph, options={"seed": s})
                for s in range(6)]
        out = service.solve_many(reqs)
        for s, res in enumerate(out):
            ref = direct_solve("mis", graph, method="rootset-vec", seed=s)
            assert np.array_equal(res.status, ref.status)

    def test_return_errors_maps_failures_in_place(self, service, graph):
        bad = random_priorities(graph.num_vertices, seed=1)[:-1]
        out = service.solve_many(
            [SolveRequest("mis", graph, options={"seed": 0}),
             SolveRequest("mis", graph, ranks=bad)],
            return_errors=True,
        )
        assert not isinstance(out[0], Exception)
        assert isinstance(out[1], InvalidOrderingError)

    def test_module_level_solve_many_spins_up_a_service(self, graph):
        out = solve_many(
            [SolveRequest("mis", graph, options={"seed": s}) for s in (0, 1)],
            workers=1,
        )
        for s, res in zip((0, 1), out):
            ref = direct_solve("mis", graph, method="rootset-vec", seed=s)
            assert np.array_equal(res.status, ref.status)


class TestValidationAndErrors:
    def test_unknown_method_rejected_at_submit(self, service, graph):
        with pytest.raises(EngineError, match="unknown"):
            service.submit(SolveRequest("mis", graph, method="magic"))

    def test_invalid_ranks_surface_without_retry(self, service, graph):
        bad = np.zeros(graph.num_vertices, dtype=np.int64)
        with pytest.raises(InvalidOrderingError):
            service.solve(SolveRequest("mis", graph, ranks=bad), timeout=60)

    def test_step_budget_exhaustion_is_typed(self, service, graph):
        with pytest.raises(BudgetExceededError, match="step budget"):
            service.solve(
                SolveRequest("mis", graph, budget_steps=1,
                             options={"seed": 0}),
                timeout=60,
            )

    def test_submit_on_stopped_service_raises(self, graph):
        svc = SolverService(workers=1)
        with pytest.raises(ServiceError, match="not started"):
            svc.submit(SolveRequest("mis", graph))

    def test_future_timeout_raises_builtin_timeout(self, service):
        fut = service.submit(_sleep_request(0.3))
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        assert fut.result(timeout=30) is None  # then completes fine


class TestQueueAndDeadlines:
    def test_full_queue_sheds_with_queue_full_error(self, graph):
        with SolverService(workers=1, max_queue=2, tick=0.005) as svc:
            futs = [svc.submit(_sleep_request(0.3))]
            shed = 0
            for _ in range(8):
                try:
                    futs.append(svc.submit(
                        SolveRequest("mis", graph, options={"seed": 0})
                    ))
                except QueueFullError:
                    shed += 1
            assert shed > 0
            assert svc.stats().shed == shed
            for f in futs:
                f.result(timeout=60)

    def test_blocking_submit_applies_backpressure_not_shedding(self, graph):
        with SolverService(workers=1, max_queue=1, tick=0.005) as svc:
            futs = [svc.submit(
                SolveRequest("mis", graph, options={"seed": s}), block=True,
            ) for s in range(5)]
            for f in futs:
                f.result(timeout=60)
            assert svc.stats().shed == 0

    def test_deadline_expired_in_queue(self, graph):
        with SolverService(workers=1, tick=0.005) as svc:
            blocker = svc.submit(_sleep_request(0.4))
            doomed = svc.submit(
                SolveRequest("mis", graph, timeout_seconds=0.05,
                             options={"seed": 0})
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            blocker.result(timeout=30)
            assert svc.stats().deadline_failures == 1

    def test_hung_worker_killed_past_deadline_and_replaced(self, graph):
        with SolverService(workers=1, deadline_grace=0.05, tick=0.005) as svc:
            fut = svc.submit(_sleep_request(30, timeout_seconds=0.1))
            with pytest.raises(DeadlineExceededError, match="killed"):
                fut.result(timeout=30)
            # The pool healed: the next request is served normally.
            res = svc.solve(SolveRequest("mis", graph, options={"seed": 1}),
                            timeout=60)
            ref = direct_solve("mis", graph, method="rootset-vec", seed=1)
            assert np.array_equal(res.status, ref.status)
            assert svc.stats().worker_restarts >= 1

    def test_deadline_propagates_as_wall_clock_budget(self, graph):
        # A deadline long enough to dispatch but too short for a 30s sleep
        # burned inside the *solver* budget path: use a big instance and a
        # microscopic deadline so the worker's Budget trips first.
        big = uniform_random_graph(3000, 12000, seed=1)
        with SolverService(workers=1, deadline_grace=5.0, tick=0.005) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.solve(
                    SolveRequest("mis", big, timeout_seconds=1e-3,
                                 options={"seed": 0}),
                    timeout=60,
                )


class TestLifecycle:
    def test_drain_closes_admission_and_completes_inflight(self, graph):
        svc = SolverService(workers=1, tick=0.005).start()
        fut = svc.submit(SolveRequest("mis", graph, options={"seed": 0}))
        assert svc.drain(timeout=30)
        assert fut.done()
        with pytest.raises(ServiceError, match="draining"):
            svc.submit(SolveRequest("mis", graph, options={"seed": 1}))
        svc.shutdown()

    def test_shutdown_without_drain_fails_leftovers(self, graph):
        svc = SolverService(workers=1, tick=0.005).start()
        futs = [svc.submit(_sleep_request(0.2)) for _ in range(3)]
        svc.shutdown(drain=False)
        outcomes = [f.exception(timeout=5) for f in futs]
        # Everything resolved one way or the other — nothing hangs.
        assert all(f.done() for f in futs)
        assert any(isinstance(e, ServiceError) for e in outcomes if e)

    def test_stats_snapshot_shape(self, service, graph):
        service.solve(SolveRequest("mis", graph, options={"seed": 2}),
                      timeout=60)
        st = service.stats()
        assert st.workers_configured == 2
        assert st.completed >= 1
        assert st.latency_p95 >= st.latency_p50 > 0
        d = st.as_dict()
        assert d["completed"] == st.completed
        assert "breaker_states" in d
        assert "requests:" in st.format()


class TestCircuitBreaker:
    def test_trips_after_threshold_and_reopens_from_probe(self):
        clock = {"now": 0.0}
        b = CircuitBreaker(threshold=2, reset_seconds=10.0,
                           clock=lambda: clock["now"])
        assert b.state == "closed" and b.allow()
        assert b.record_failure() is False
        assert b.record_failure() is True  # trip
        assert b.state == "open" and not b.allow()
        clock["now"] = 11.0
        assert b.state == "half-open"
        assert b.allow() is True   # single probe
        assert b.allow() is False  # second caller must wait for the probe
        assert b.record_failure() is True  # probe failed: re-trip
        assert b.trips == 2 and b.state == "open"
        clock["now"] = 22.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_half_open_admits_exactly_one_concurrent_probe(self):
        """N racing callers in half-open state: one probe, N-1 rejections."""
        import threading

        clock = {"now": 0.0}
        b = CircuitBreaker(threshold=1, reset_seconds=5.0,
                           clock=lambda: clock["now"])
        b.record_failure()
        clock["now"] = 6.0
        assert b.state == "half-open"

        racers = 16
        barrier = threading.Barrier(racers)
        admitted = []

        def racer():
            barrier.wait()
            if b.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=racer) for _ in range(racers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        # The probe's outcome decides for everyone: success closes …
        b.record_success()
        assert b.state == "closed"
        assert sum(b.allow() for _ in range(4)) == 4
        # … and a failed probe re-opens for a full window.
        b.record_failure()
        clock["now"] = 12.0
        assert b.allow() is True
        assert b.record_failure() is True
        assert b.state == "open" and not b.allow()

    def test_success_resets_the_failure_count(self):
        b = CircuitBreaker(threshold=3, reset_seconds=1.0)
        b.record_failure()
        b.record_failure()
        b.record_success()
        assert b.record_failure() is False  # count restarted
        assert b.state == "closed"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_seconds=0)


class TestConfigAndRequestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"max_queue": 0},
        {"start_method": "thread"},
        {"max_retries": -1},
        {"backoff_jitter": 1.5},
        {"kill_probability": 2.0},
        {"kill_point": "mid"},
        {"fault_probability": 1.5},
        {"hang_timeout": 0.0},
        {"supervise_interval_s": 0.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_config_knob_surface_is_pinned(self):
        """The service's 29 knobs, pinned like SolveOptions' 11: a new
        knob must be added here on purpose, and the retired hedging,
        limiter and fault-kind knobs are unknown keywords."""
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "workers", "max_queue", "start_method", "default_method",
            "default_guards", "degrade", "max_retries", "backoff_base",
            "backoff_factor", "backoff_max", "backoff_jitter", "retry_seed",
            "breaker_threshold", "breaker_reset_seconds", "deadline_grace",
            "hang_timeout", "kill_probability", "kill_point",
            "fault_probability", "chaos_seed",
            "worker_sys_path", "tick", "latency_window", "cache_entries",
            "cache_ttl_s", "reap_on_start", "supervise_interval_s",
            "reap_interval_s", "session_dir",
        ]
        with pytest.raises(TypeError):
            ServiceConfig(hedge_delay_s=0.1)
        with pytest.raises(TypeError):
            ServiceConfig(backpressure=True)
        with pytest.raises(TypeError):
            ServiceConfig(fault_kinds=("min-lift",))

    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            SolverService(ServiceConfig(), workers=3)

    @pytest.mark.parametrize("kwargs", [
        {"problem": "tsp", "payload": None},
        {"problem": "mis", "payload": None, "timeout_seconds": 0},
        {"problem": "mis", "payload": None, "budget_steps": 0},
        {"problem": "call", "payload": {"module": "json"}},
    ])
    def test_bad_request_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveRequest(**kwargs)

    def test_service_default_method_is_the_library_default(self):
        """One default engine for every front door: the service serves
        what the library front doors run, the paper's Algorithm 3."""
        from repro.core.options import SolveOptions

        assert ServiceConfig().default_method == SolveOptions().method == "prefix"

    def test_options_default_method_is_not_an_explicit_choice(self):
        from repro.core.options import SolveOptions

        # A SolveOptions left at its default method expresses no engine
        # choice: it neither conflicts with an explicit request method
        # nor pins the request (the service default_method still wins).
        req = SolveRequest("mis", None, method="rootset-vec",
                           options=SolveOptions(seed=1))
        assert req.method == "rootset-vec"
        assert req.options == {"seed": 1}
        assert SolveRequest("mis", None,
                            options=SolveOptions(seed=1)).method is None
        # An explicit non-default method still lifts and still conflicts.
        assert SolveRequest(
            "mis", None, options=SolveOptions(method="luby"),
        ).method == "luby"
        with pytest.raises(ValueError):
            SolveRequest("mis", None, method="prefix",
                         options=SolveOptions(method="luby"))

    def test_chaos_enabled_property(self):
        assert not ServiceConfig().chaos_enabled
        assert ServiceConfig(kill_probability=0.1).chaos_enabled
        assert ServiceConfig(fault_probability=0.1).chaos_enabled


class TestTopLevelExports:
    def test_service_front_doors_reachable_from_repro(self):
        assert repro.serve is not None
        assert repro.solve_many is solve_many
        assert repro.SolverService is SolverService
        assert repro.SolveRequest is SolveRequest
        assert repro.ServiceConfig is ServiceConfig

    def test_serve_returns_a_started_service(self, graph):
        svc = repro.serve(workers=1, tick=0.005)
        try:
            res = svc.solve(SolveRequest("mis", graph, options={"seed": 0}),
                            timeout=60)
            ref = direct_solve("mis", graph, method="rootset-vec", seed=0)
            assert np.array_equal(res.status, ref.status)
        finally:
            svc.shutdown()
