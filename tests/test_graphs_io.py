"""Tests for the PBBS adjacency-graph and edge-array file formats."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import GraphFormatError
from repro.graphs.builders import from_edges
from repro.graphs.generators import uniform_random_graph
from repro.graphs.io import (
    read_adjacency_graph,
    read_edge_list,
    write_adjacency_graph,
    write_edge_list,
)

from conftest import graph_strategy


@pytest.fixture
def sample_graph():
    return from_edges(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]))


class TestAdjacencyRoundTrip:
    def test_round_trip_identity(self, sample_graph, tmp_path):
        p = tmp_path / "g.adj"
        write_adjacency_graph(sample_graph, p)
        assert read_adjacency_graph(p) == sample_graph

    def test_header_contents(self, sample_graph, tmp_path):
        p = tmp_path / "g.adj"
        write_adjacency_graph(sample_graph, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "AdjacencyGraph"
        assert lines[1] == "5"
        assert lines[2] == str(sample_graph.num_arcs)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_many_random_instances(self, seed, tmp_path):
        n = 5 + 7 * seed
        g = uniform_random_graph(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        p = tmp_path / "g.adj"
        write_adjacency_graph(g, p)
        assert read_adjacency_graph(p) == g

    def test_random_graph_round_trip(self, tmp_path):
        g = uniform_random_graph(200, 800, seed=0)
        p = tmp_path / "big.adj"
        write_adjacency_graph(g, p)
        assert read_adjacency_graph(p) == g


class TestAdjacencyErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="cannot read"):
            read_adjacency_graph(tmp_path / "nope.adj")

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "bad.adj"
        p.write_text("NotAGraph\n1\n0\n0\n")
        with pytest.raises(GraphFormatError, match="expected header"):
            read_adjacency_graph(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.adj"
        p.write_text("")
        with pytest.raises(GraphFormatError, match="<empty file>"):
            read_adjacency_graph(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.adj"
        p.write_text("AdjacencyGraph\n2\n2\n0\n1\n")  # missing neighbor tokens
        with pytest.raises(GraphFormatError, match="expected .* tokens"):
            read_adjacency_graph(p)

    def test_non_integer_counts(self, tmp_path):
        p = tmp_path / "nan.adj"
        p.write_text("AdjacencyGraph\nx\n0\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_adjacency_graph(p)

    def test_inconsistent_offsets(self, tmp_path):
        p = tmp_path / "bad2.adj"
        # offsets decreasing -> CSR validation fails
        p.write_text("AdjacencyGraph\n2\n2\n0\n3\n0\n1\n")
        with pytest.raises(GraphFormatError, match="invalid CSR"):
            read_adjacency_graph(p)


class TestEdgeListFormat:
    def test_round_trip(self, sample_graph, tmp_path):
        p = tmp_path / "g.edges"
        write_edge_list(sample_graph, p)
        g2 = read_edge_list(p)
        # Vertex count is inferred from max endpoint; equal here since
        # vertex 4 is used.
        assert g2 == sample_graph

    def test_header(self, sample_graph, tmp_path):
        p = tmp_path / "g.edges"
        write_edge_list(sample_graph, p)
        assert p.read_text().splitlines()[0] == "EdgeArray"

    def test_strict_reader_rejects_soup(self, tmp_path):
        from repro.errors import InvalidGraphError

        p = tmp_path / "soup.edges"
        p.write_text("EdgeArray\n1 0\n0 1\n1 2\n")
        with pytest.raises(InvalidGraphError, match="duplicate"):
            read_edge_list(p)
        q = tmp_path / "loop.edges"
        q.write_text("EdgeArray\n0 1\n2 2\n")
        with pytest.raises(InvalidGraphError, match="self-loop"):
            read_edge_list(q)

    def test_first_duplicate_in_input_order_is_named(self, tmp_path):
        from repro.errors import InvalidGraphError
        from repro.graphs.io import check_edge_soup

        # (0, 1) is the smallest duplicated pair, but edge #2, (5, 6), is
        # the first repeat in the input.
        u, v = np.array([5, 0, 5, 0]), np.array([6, 1, 6, 1])
        with pytest.raises(InvalidGraphError,
                           match=r"2 duplicate undirected edge\(s\); first "
                                 r"repeat is edge #2 \(5, 6\)"):
            check_edge_soup(u, v)
        p = tmp_path / "soup.edges"
        p.write_text("EdgeArray\n0 1\n1 2\n2 1\n1 0\n")
        with pytest.raises(InvalidGraphError, match=r"first repeat is edge #2 \(2, 1\)"):
            read_edge_list(p)

    def test_non_strict_reader_canonicalizes(self, tmp_path):
        p = tmp_path / "soup.edges"
        p.write_text("EdgeArray\n1 0\n0 1\n2 2\n1 2\n")
        g = read_edge_list(p, strict=False)
        assert g.num_edges == 2  # duplicate merged, loop dropped

    def test_odd_token_count(self, tmp_path):
        p = tmp_path / "odd.edges"
        p.write_text("EdgeArray\n0 1 2\n")
        with pytest.raises(GraphFormatError, match="odd token count"):
            read_edge_list(p)

    def test_negative_id(self, tmp_path):
        p = tmp_path / "neg.edges"
        p.write_text("EdgeArray\n0 -1\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_edge_list(p)

    def test_empty_edge_file(self, tmp_path):
        p = tmp_path / "none.edges"
        p.write_text("EdgeArray\n")
        g = read_edge_list(p)
        assert g.num_edges == 0


class TestGzipSupport:
    def test_adjacency_gz_round_trip(self, sample_graph, tmp_path):
        p = tmp_path / "g.adj.gz"
        write_adjacency_graph(sample_graph, p)
        assert read_adjacency_graph(p) == sample_graph
        # The file really is gzip (magic bytes), not plain text.
        assert p.read_bytes()[:2] == b"\x1f\x8b"

    def test_edge_list_gz_round_trip(self, sample_graph, tmp_path):
        p = tmp_path / "g.edges.gz"
        write_edge_list(sample_graph, p)
        assert read_edge_list(p) == sample_graph

    def test_corrupt_gz_raises_format_error(self, tmp_path):
        import pytest as _pytest
        p = tmp_path / "bad.adj.gz"
        p.write_bytes(b"\x1f\x8bgarbage")
        with _pytest.raises(Exception):
            read_adjacency_graph(p)
