"""Tests for the content-addressed result cache (:mod:`repro.service.cache`).

The cache is only safe because keys bind *everything* that can change
the answer — graph bytes, π (or its seed), problem, engine, guard
mode, and knobs.  The first half of this file attacks the key
derivation (any difference that could change the output must miss);
the second half pins the LRU/stale mechanics and the service-level
integration (hit / miss / stale / uncached, and the poisoned-segment
forced miss).
"""

import numpy as np
import pytest

from repro.graphs.generators import uniform_random_graph
from repro.service import ResultCache, ServiceConfig, SolveRequest, request_key
from repro.service.cache import content_digest

from conftest import race_the_next_solve

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(200, 800, seed=5)


@pytest.fixture(scope="module")
def pi(graph):
    return np.random.default_rng(0).permutation(graph.num_vertices)


def _key(graph, pi, **overrides):
    kwargs = {
        "problem": "mis",
        "payload": graph,
        "ranks": pi,
        "method": "rootset-vec",
        "guards": None,
        "options": None,
    }
    kwargs.update(overrides)
    return request_key(**kwargs)


class TestKeySafety:
    """A false hit could serve a wrong answer; every axis must miss."""

    def test_identical_content_same_key(self, graph, pi):
        assert _key(graph, pi) == _key(graph, pi.copy())

    def test_same_graph_different_ranks_miss(self, graph, pi):
        other = pi.copy()
        other[0], other[1] = other[1], other[0]
        assert _key(graph, pi) != _key(graph, other)

    def test_same_ranks_different_method_miss(self, graph, pi):
        assert _key(graph, pi) != _key(graph, pi, method="sequential")

    def test_same_ranks_different_problem_miss(self, graph, pi):
        el = graph.edge_list()
        edge_pi = np.arange(el.num_edges)
        assert (
            _key(graph, edge_pi, problem="mis")
            != _key(el, edge_pi, problem="matching")
        )

    def test_guard_mode_keys_separately(self, graph, pi):
        assert _key(graph, pi) != _key(graph, pi, guards="full")

    def test_engine_knobs_key_separately(self, graph, pi):
        assert (
            _key(graph, pi, options={"prefix_size": 32})
            != _key(graph, pi, options={"prefix_size": 64})
        )

    def test_seed_stands_in_for_ranks(self, graph):
        a = _key(graph, None, options={"seed": 1})
        b = _key(graph, None, options={"seed": 2})
        assert a is not None and b is not None and a != b

    def test_no_ranks_no_seed_is_uncacheable(self, graph):
        assert _key(graph, None) is None
        assert _key(graph, None, options={"verify": True}) is None

    def test_mutated_payload_digest_misses(self, graph, pi):
        # The digest is recomputed from the live arrays on every lookup:
        # bytes mutated behind the service's back can never alias the
        # entry cached for the bytes the payload used to hold.
        before = _key(graph, pi)
        saved = graph.neighbors[0]
        graph.neighbors[0] = (saved + 1) % graph.num_vertices
        try:
            assert _key(graph, pi) != before
        finally:
            graph.neighbors[0] = saved
        assert _key(graph, pi) == before

    def test_content_digest_is_order_and_size_sensitive(self):
        a, b = np.arange(4), np.arange(4, 8)
        assert content_digest(a, b) != content_digest(b, a)
        assert content_digest(a) != content_digest(a[:2], a[2:])


class TestResultCacheMechanics:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touches "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.snapshot()["evictions"] == 1

    def test_none_key_is_inert(self):
        cache = ResultCache(max_entries=2)
        assert cache.put(None, "x") is False
        assert cache.get(None) is None and cache.get_stale(None) is None
        assert len(cache) == 0

    def test_invalidate_and_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestServiceIntegration:
    def test_hit_miss_stale_uncached_lifecycle(self, graph, pi, monkeypatch):
        from repro.core.engines import engine_methods
        from repro.service import SolverService

        config = ServiceConfig(workers=1, cache_entries=8)
        service = SolverService(config).start()
        try:
            req = SolveRequest("mis", graph, ranks=pi)
            r0, source0 = service.solve_cached(req, timeout=60)
            assert source0 == "miss"
            r1, source1 = service.solve_cached(req, timeout=60)
            assert source1 == "hit"
            assert np.array_equal(r0.status, r1.status)

            # Entropy-fresh requests never cache.
            _, source = service.solve_cached(
                SolveRequest("mis", graph), timeout=60
            )
            assert source == "uncached"

            # Degrade the backend: a resident entry never expires, so it
            # is still a hit, bit-identical to the cold answer.
            breakers = [
                service.breaker("mis", m) for m in engine_methods("mis")
            ]
            for breaker in breakers:
                for _ in range(config.breaker_threshold):
                    breaker.record_failure()
            r2, source2 = service.solve_cached(req, timeout=60)
            assert source2 == "hit"
            assert np.array_equal(r2.status, r0.status)

            # Stale: the solve fails after a concurrent request stored
            # the same content's answer, and that entry is served.
            race_the_next_solve(service, monkeypatch)
            r3, source3 = service.solve_cached(req, timeout=60)
            assert source3 == "stale"
            assert np.array_equal(r3.status, r0.status)
            assert service.stats().cache_stale_served == 1
        finally:
            service.shutdown()

    def test_poisoned_segment_forces_miss(self, graph, pi):
        # Swapping two π entries in the shared segment must change the
        # content address — the stale answer for the old bytes can
        # never be served for the new ones.
        from repro.service import SolverService

        service = SolverService(ServiceConfig(workers=1, cache_entries=8))
        service.start()
        try:
            shared = service.register_graph(graph, pi)
            req = SolveRequest("mis", graph, ranks=pi)
            key_before = service.request_cache_key(req)
            _, source = service.solve_cached(req, timeout=60)
            assert source == "miss"

            mutated = pi.copy()
            mutated[0], mutated[1] = mutated[1], mutated[0]
            poisoned = SolveRequest("mis", graph, ranks=mutated)
            assert service.request_cache_key(poisoned) != key_before
            result, source = service.solve_cached(poisoned, timeout=60)
            assert source == "miss"  # fresh solve for the mutated π
            assert shared.fingerprint  # segment integrity is tracked
        finally:
            service.release_graph(graph)
            service.shutdown()
