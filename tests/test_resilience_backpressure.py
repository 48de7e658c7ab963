"""Adaptive backpressure and hedged requests (repro.resilience).

The AIMD arithmetic runs against an injectable clock (no sleeping);
the service integration tests check that the limiter actually sheds,
that overload signals shrink the limit, and that a hedged request
returns a bit-identical result while the losing attempt is dropped.
"""

import glob

import numpy as np
import pytest

from repro.errors import QueueFullError
from repro.graphs.generators import uniform_random_graph
from repro.resilience import AdaptiveLimiter
from repro.service import ServiceConfig, SolveRequest, SolverService

pytestmark = pytest.mark.service


def _segments():
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = _segments()
    yield
    leaked = _segments() - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


class TestAdaptiveLimiter:
    def test_additive_increase(self):
        lim = AdaptiveLimiter(initial=4, max_limit=8, clock=lambda: 0.0)
        assert lim.limit == 4
        for _ in range(4):
            lim.on_success()
        # +increase/limit per success: fractional growth, floor reported.
        assert 4 <= lim.limit <= 5
        for _ in range(40):
            lim.on_success()
        assert lim.limit == 8  # capped at max_limit

    def test_multiplicative_decrease_and_floor(self):
        lim = AdaptiveLimiter(initial=8, min_limit=2, cooldown_s=0.0,
                              clock=lambda: 0.0)
        assert lim.on_overload()
        assert lim.limit == 4
        assert lim.on_overload()
        assert lim.limit == 2
        assert lim.on_overload()
        assert lim.limit == 2  # never below the floor

    def test_cooldown_suppresses_repeat_decreases(self):
        now = [0.0]
        lim = AdaptiveLimiter(initial=8, cooldown_s=1.0, clock=lambda: now[0])
        assert lim.on_overload()
        assert lim.limit == 4
        assert not lim.on_overload()  # inside the cooldown window
        assert lim.limit == 4
        now[0] = 1.5
        assert lim.on_overload()
        assert lim.limit == 2

    def test_latency_target_counts_slow_success_as_overload(self):
        lim = AdaptiveLimiter(initial=8, latency_target_s=0.1, cooldown_s=0.0,
                              clock=lambda: 0.0)
        assert not lim.on_success(0.05)  # under target: grows
        assert lim.on_success(0.5)       # over target: shrinks
        assert lim.limit == 4

    def test_snapshot_fields(self):
        lim = AdaptiveLimiter(initial=4, cooldown_s=0.0, clock=lambda: 0.0)
        lim.on_success()
        lim.on_overload()
        snap = lim.snapshot()
        assert snap["successes"] == 1
        assert snap["overload_signals"] == 1
        assert snap["decreases"] == 1
        assert snap["limit"] == lim.limit

    def test_initial_clamped_into_range(self):
        assert AdaptiveLimiter(initial=100, max_limit=8).limit == 8
        assert AdaptiveLimiter(initial=1, min_limit=4).limit == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(min_limit=0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(min_limit=4, max_limit=2)
        with pytest.raises(ValueError):
            AdaptiveLimiter(decrease_factor=1.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(latency_target_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(increase=0.0)


class TestServiceBackpressure:
    def test_adaptive_limit_sheds_over_limit_submissions(self):
        g = uniform_random_graph(150, 400, seed=3)
        config = ServiceConfig(
            workers=2, max_queue=64, backpressure=True,
            bp_initial_limit=4, tick=0.01,
        )
        with SolverService(config) as svc:
            futures, shed = [], 0
            for i in range(20):
                try:
                    futures.append(svc.submit(
                        SolveRequest("mis", g, options={"seed": i}),
                        block=False,
                    ))
                except QueueFullError as exc:
                    assert "adaptive admission limit" in str(exc)
                    shed += 1
            for fut in futures:
                fut.result(timeout=60)
            stats = svc.stats()
        # Limit 4 with an instantaneous burst of 20: most must shed, but
        # everything admitted completes.
        assert shed >= 10
        assert stats.shed == shed
        assert stats.completed == len(futures)
        assert stats.admission_limit is not None

    def test_queue_full_counts_as_overload(self):
        # A tiny fixed queue fills during the burst, so some rejections go
        # down the queue-full path — each one is an overload signal that
        # applies a multiplicative decrease.  The burst holds the
        # scheduler's (reentrant) lock, so no request is dispatched
        # mid-burst: outstanding work is exactly the queue, which hits its
        # bound of 2 before it exceeds the adaptive limit (2 = 2 * workers,
        # and the limiter caps it at max_queue anyway).  Without the lock
        # an early pickup would let outstanding work reach the limit
        # before the queue fills.
        g = uniform_random_graph(150, 400, seed=4)
        config = ServiceConfig(
            workers=1, max_queue=2, backpressure=True,
            bp_cooldown_s=0.0, tick=0.01,
        )
        with SolverService(config) as svc:
            futures = []
            with svc._lock:
                for i in range(12):
                    try:
                        futures.append(svc.submit(
                            SolveRequest("mis", g, options={"seed": i}),
                            block=False,
                        ))
                    except QueueFullError:
                        pass
            for fut in futures:
                fut.result(timeout=60)
            stats = svc.stats()
            snap = svc._limiter.snapshot()
        assert stats.overloads >= 1
        assert snap["overload_signals"] >= 1
        assert snap["decreases"] >= 1
        assert stats.completed == len(futures)

    def test_healthy_completions_grow_limit_back(self):
        g = uniform_random_graph(100, 250, seed=5)
        config = ServiceConfig(
            workers=2, backpressure=True, bp_initial_limit=2, tick=0.01,
        )
        with SolverService(config) as svc:
            for i in range(8):
                svc.solve(SolveRequest("mis", g, options={"seed": i}),
                          timeout=60)
            snap = svc._limiter.snapshot()
        assert snap["successes"] == 8
        assert snap["limit"] > 2

    def test_backpressure_off_reports_no_limit(self):
        g = uniform_random_graph(80, 200, seed=6)
        with SolverService(ServiceConfig(workers=1, tick=0.01)) as svc:
            svc.solve(SolveRequest("mis", g, options={"seed": 0}), timeout=60)
            assert svc.stats().admission_limit is None
            assert svc._limiter is None


class TestHedging:
    def test_hedged_solve_is_bit_identical(self):
        # A graph big enough that the first attempt is still in flight
        # when the hedge timer (effectively zero) fires.
        from repro.core.mis.api import maximal_independent_set

        g = uniform_random_graph(60_000, 180_000, seed=7)
        ref = maximal_independent_set(g, method="rootset-vec", seed=7)
        config = ServiceConfig(workers=2, hedge_delay_s=0.0, tick=0.005)
        with SolverService(config) as svc:
            res = svc.solve(SolveRequest("mis", g, options={"seed": 7}),
                            timeout=120)
            stats = svc.stats()
        assert np.array_equal(res.status, ref.status)
        assert stats.hedges >= 1
        assert stats.completed == 1  # the losing twin never double-counts
        assert stats.failed == 0

    def test_hedging_requires_idle_worker(self):
        # One worker: there is never an idle twin, so nothing hedges.
        g = uniform_random_graph(500, 1500, seed=8)
        config = ServiceConfig(workers=1, hedge_delay_s=0.0, tick=0.005)
        with SolverService(config) as svc:
            svc.solve(SolveRequest("mis", g, options={"seed": 8}), timeout=60)
            stats = svc.stats()
        assert stats.hedges == 0
        assert stats.completed == 1

    def test_hedging_disabled_by_default(self):
        g = uniform_random_graph(200, 500, seed=9)
        with SolverService(ServiceConfig(workers=2, tick=0.01)) as svc:
            svc.solve(SolveRequest("mis", g, options={"seed": 9}), timeout=60)
            assert svc.stats().hedges == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(hedge_delay_s=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(bp_initial_limit=0)
        with pytest.raises(ValueError):
            ServiceConfig(bp_decrease_factor=1.5)
        with pytest.raises(ValueError):
            ServiceConfig(supervise_interval_s=0.0)
