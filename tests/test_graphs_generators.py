"""Tests for all graph generators: exact counts, structure, reproducibility."""

import numpy as np
import pytest

from repro.graphs.generators import (
    balanced_tree,
    barabasi_albert_graph,
    chung_lu_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    rmat_graph,
    star_graph,
    torus_graph,
    uniform_random_graph,
)
from repro.graphs.properties import (
    is_simple_undirected,
    num_connected_components,
)


class TestUniformRandomGraph:
    def test_exact_edge_count(self):
        g = uniform_random_graph(100, 300, seed=0)
        assert g.num_edges == 300

    def test_simple(self):
        assert is_simple_undirected(uniform_random_graph(50, 200, seed=1))

    def test_reproducible(self):
        a = uniform_random_graph(80, 160, seed=5)
        b = uniform_random_graph(80, 160, seed=5)
        assert a == b

    def test_seed_changes_instance(self):
        a = uniform_random_graph(80, 160, seed=5)
        b = uniform_random_graph(80, 160, seed=6)
        assert a != b

    def test_zero_edges(self):
        g = uniform_random_graph(10, 0, seed=0)
        assert g.num_edges == 0
        assert g.num_vertices == 10

    def test_near_complete(self):
        # Dense regime stresses the top-up loop.
        g = uniform_random_graph(12, 12 * 11 // 2 - 1, seed=0)
        assert g.num_edges == 12 * 11 // 2 - 1

    def test_complete_exact(self):
        g = uniform_random_graph(10, 45, seed=0)
        assert g.num_edges == 45

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            uniform_random_graph(4, 7)

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            uniform_random_graph(4, -1)

    def test_inexact_mode_close(self):
        g = uniform_random_graph(1000, 3000, seed=2, exact=False)
        assert 2700 <= g.num_edges <= 3000


class TestGnp:
    def test_extremes(self):
        assert gnp_random_graph(20, 0.0, seed=0).num_edges == 0
        assert gnp_random_graph(8, 1.0, seed=0).num_edges == 28

    def test_expected_density(self):
        g = gnp_random_graph(200, 0.1, seed=3)
        expected = 0.1 * 200 * 199 / 2
        assert 0.7 * expected <= g.num_edges <= 1.3 * expected

    def test_invalid_p(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gnp_random_graph(5, 1.5)


class TestRmat:
    def test_vertex_count_power_of_two(self):
        g = rmat_graph(8, 1000, seed=0)
        assert g.num_vertices == 256

    def test_simple(self):
        assert is_simple_undirected(rmat_graph(9, 2000, seed=1))

    def test_reproducible(self):
        assert rmat_graph(8, 500, seed=2) == rmat_graph(8, 500, seed=2)

    def test_degree_skew(self):
        # Power-law-ish: the max degree should far exceed the mean.
        g = rmat_graph(12, 30000, seed=3)
        mean_deg = 2 * g.num_edges / g.num_vertices
        assert g.max_degree() > 4 * mean_deg

    def test_skewed_toward_low_ids(self):
        # Quadrant a=0.5 concentrates mass at low vertex ids.
        g = rmat_graph(10, 5000, seed=4)
        degs = g.degrees()
        low = degs[: g.num_vertices // 4].sum()
        high = degs[3 * g.num_vertices // 4:].sum()
        assert low > high

    def test_invalid_quadrants(self):
        with pytest.raises(ValueError, match="non-negative"):
            rmat_graph(5, 10, a=0.8, b=0.2, c=0.2)

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="2\\^30"):
            rmat_graph(31, 10)

    def test_zero_noise(self):
        g = rmat_graph(7, 300, seed=5, noise=0.0)
        assert g.num_vertices == 128

    @pytest.mark.parametrize("a,b,c,noise", [
        (0.5, 0.1, 0.1, 0.1),     # the PBBS defaults
        (0.5, 0.1, 0.1, 0.0),     # no jitter
        (0.45, 0.15, 0.15, 0.5),
        (0.6, 0.2, 0.2, 0.9),     # d = 0, and jitter pushes aa past 1
    ])
    def test_sample_matches_plain_expressions(self, monkeypatch, a, b, c, noise):
        import repro.graphs.generators.rmat as rmat_module
        from repro.util.rng import as_generator

        seen = {}
        monkeypatch.setattr(rmat_module, "from_edges",
                            lambda n, u, v: seen.update(u=u.copy(), v=v.copy()))
        rmat_graph(10, 4000, seed=11, a=a, b=b, c=c, noise=noise)

        # The level loop as plain array expressions: the in-place loop
        # must draw and round exactly as this does.
        rng = as_generator(11)
        d = 1.0 - a - b - c
        u = np.zeros(4000, dtype=np.int64)
        v = np.zeros(4000, dtype=np.int64)
        for _level in range(10):
            if noise > 0.0:
                jitter = 1.0 + noise * (rng.random(4000) * 2.0 - 1.0)
                aa = np.clip(a * jitter, 0.0, 1.0)
            else:
                aa = np.full(4000, a)
            bb = (1.0 - aa) * (b / (b + c + d))
            cc = (1.0 - aa) * (c / (b + c + d))
            r = rng.random(4000)
            in_b = (r >= aa) & (r < aa + bb)
            in_c = (r >= aa + bb) & (r < aa + bb + cc)
            in_d = r >= aa + bb + cc
            u = (u << 1) | in_c | in_d
            v = (v << 1) | in_b | in_d
        assert np.array_equal(seen["u"], u)
        assert np.array_equal(seen["v"], v)


class TestStructured:
    def test_empty_graph(self):
        g = empty_graph(5)
        assert g.num_vertices == 5 and g.num_edges == 0

    def test_empty_graph_zero(self):
        g = empty_graph(0)
        assert g.num_vertices == 0

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.max_degree() == 2
        assert g.degree(0) == 1

    def test_path_single_vertex(self):
        assert path_graph(1).num_edges == 0

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert set(g.degrees().tolist()) == {2}

    def test_cycle_min_size(self):
        with pytest.raises(ValueError, match="n >= 3"):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(7)
        assert g.num_edges == 21
        assert set(g.degrees().tolist()) == {6}

    def test_star(self):
        g = star_graph(10)
        assert g.degree(0) == 9
        assert g.num_edges == 9

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.max_degree() == 4

    def test_grid_degenerate_1x1(self):
        assert grid_graph(1, 1).num_edges == 0

    def test_torus_regular(self):
        g = torus_graph(4, 5)
        assert set(g.degrees().tolist()) == {4}
        assert g.num_edges == 2 * 20

    def test_balanced_tree(self):
        g = balanced_tree(2, 3)
        assert g.num_vertices == 15
        assert g.num_edges == 14
        assert num_connected_components(g) == 1

    def test_balanced_tree_height_zero(self):
        assert balanced_tree(3, 0).num_vertices == 1

    def test_unary_tree_is_path(self):
        assert balanced_tree(1, 4) == path_graph(5)


class TestPowerlaw:
    def test_chung_lu_runs(self):
        w = np.array([10.0] * 5 + [1.0] * 95)
        g = chung_lu_graph(w, seed=0)
        assert g.num_vertices == 100
        assert is_simple_undirected(g)

    def test_chung_lu_zero_weights(self):
        g = chung_lu_graph(np.zeros(4), seed=0)
        assert g.num_edges == 0

    def test_chung_lu_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chung_lu_graph(np.array([-1.0, 2.0]))

    def test_chung_lu_hub_has_more_edges(self):
        w = np.concatenate([[200.0], np.ones(199)])
        g = chung_lu_graph(w, seed=1)
        assert g.degree(0) > np.median(g.degrees())

    def test_barabasi_albert_counts(self):
        g = barabasi_albert_graph(50, 3, seed=0)
        assert g.num_vertices == 50
        assert is_simple_undirected(g)
        assert num_connected_components(g) == 1

    def test_barabasi_albert_requires_n_gt_k(self):
        with pytest.raises(ValueError, match="n > k"):
            barabasi_albert_graph(3, 3)

    def test_barabasi_albert_hub_emerges(self):
        g = barabasi_albert_graph(300, 2, seed=2)
        assert g.max_degree() > 3 * np.median(g.degrees())


class TestHypercube:
    def test_counts(self):
        from repro.graphs.generators import hypercube_graph

        g = hypercube_graph(4)
        assert g.num_vertices == 16
        assert g.num_edges == 4 * 16 // 2
        assert set(g.degrees().tolist()) == {4}

    def test_dimension_zero(self):
        from repro.graphs.generators import hypercube_graph

        g = hypercube_graph(0)
        assert g.num_vertices == 1
        assert g.num_edges == 0

    def test_connected(self):
        from repro.graphs.generators import hypercube_graph

        assert num_connected_components(hypercube_graph(5)) == 1

    def test_neighbors_differ_in_one_bit(self):
        from repro.graphs.generators import hypercube_graph

        g = hypercube_graph(3)
        src, dst = g.arcs()
        xor = src ^ dst
        assert all(x & (x - 1) == 0 and x for x in xor.tolist())

    def test_dimension_guard(self):
        from repro.graphs.generators import hypercube_graph

        with pytest.raises(ValueError, match=r"\[0, 20\]"):
            hypercube_graph(21)


class TestCompleteBipartite:
    def test_counts(self):
        from repro.graphs.generators import complete_bipartite_graph

        g = complete_bipartite_graph(3, 4)
        assert g.num_vertices == 7
        assert g.num_edges == 12
        assert sorted(set(g.degrees().tolist())) == [3, 4]

    def test_no_intra_part_edges(self):
        from repro.graphs.generators import complete_bipartite_graph

        g = complete_bipartite_graph(3, 3)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert not g.has_edge(a, b)
                    assert not g.has_edge(3 + a, 3 + b)

    def test_perfect_matching_when_balanced(self):
        from repro.core.matching import maximal_matching
        from repro.graphs.generators import complete_bipartite_graph

        g = complete_bipartite_graph(6, 6)
        res = maximal_matching(g, seed=0)
        assert res.size == 6  # any maximal matching of K_{n,n} is perfect

    def test_validation(self):
        from repro.graphs.generators import complete_bipartite_graph

        with pytest.raises(ValueError):
            complete_bipartite_graph(0, 3)
