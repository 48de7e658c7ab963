"""Zero-copy shared-memory graph bundles (repro.backends.sharedmem).

Lifecycle, fingerprinting, and leak-freedom of :class:`SharedArrays` /
:class:`SharedCSR`: every test asserts that ``/dev/shm`` holds no
``repro-*`` segment once the owning handle is closed and unlinked.
"""

import glob

import numpy as np
import pytest

from repro.backends import SharedArrays, SharedCSR
from repro.core.orderings import random_priorities
from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph, EdgeList
from repro.graphs.generators import cycle_graph, uniform_random_graph


def _segments():
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(_segments())
    yield
    leaked = set(_segments()) - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


class TestSharedArrays:
    def test_roundtrip_and_zero_copy(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.array([], dtype=np.int64),
            "c": np.arange(7, dtype=np.int64) * 3,
        }
        owner = SharedArrays.create(arrays, meta={"kind": "test"})
        try:
            view = SharedArrays.attach(owner.name)
            try:
                for key, expected in arrays.items():
                    np.testing.assert_array_equal(view.arrays[key], expected)
                assert view.meta["kind"] == "test"
                # Attached views share the owner's physical pages.
                writable = SharedArrays.attach(owner.name, writable=True)
                try:
                    writable.arrays["a"][0] = 99
                    assert owner.arrays["a"][0] == 99
                finally:
                    writable.close()
            finally:
                view.close()
        finally:
            owner.close()
            owner.unlink()

    def test_unlink_removes_name(self):
        owner = SharedArrays.create({"x": np.arange(4, dtype=np.int64)})
        name = owner.name
        owner.close()
        owner.unlink()
        with pytest.raises(Exception):
            SharedArrays.attach(name)


class TestSharedCSRGraph:
    def test_csr_payload_roundtrip(self):
        g = uniform_random_graph(200, 600, seed=0)
        ranks = random_priorities(200, seed=1)
        shared = SharedCSR.create(g, ranks)
        try:
            twin = SharedCSR.attach(shared.name)
            try:
                payload = twin.payload
                assert isinstance(payload, CSRGraph)
                np.testing.assert_array_equal(payload.offsets, g.offsets)
                np.testing.assert_array_equal(payload.neighbors, g.neighbors)
                np.testing.assert_array_equal(twin.ranks, ranks)
                assert twin.fingerprint == shared.fingerprint
                assert twin.num_vertices == 200
            finally:
                twin.close()
        finally:
            shared.close()
            shared.unlink()

    def test_edge_list_payload_roundtrip(self):
        el = uniform_random_graph(60, 150, seed=2).edge_list()
        shared = SharedCSR.create(el)
        try:
            twin = SharedCSR.attach(shared.name)
            try:
                payload = twin.payload
                assert isinstance(payload, EdgeList)
                np.testing.assert_array_equal(payload.u, el.u)
                np.testing.assert_array_equal(payload.v, el.v)
                assert twin.ranks is None
            finally:
                twin.close()
        finally:
            shared.close()
            shared.unlink()

    def test_fingerprint_tracks_content(self):
        a = SharedCSR.create(cycle_graph(10))
        b = SharedCSR.create(cycle_graph(10))
        c = SharedCSR.create(cycle_graph(11))
        try:
            assert a.fingerprint == b.fingerprint
            assert a.fingerprint != c.fingerprint
        finally:
            for s in (a, b, c):
                s.close()
                s.unlink()

    def test_segment_carries_graph_and_ranks_only(self):
        g = uniform_random_graph(150, 500, seed=3)
        el = g.edge_list()
        for payload, ranks, keys in (
            (g, random_priorities(150, seed=4), {"offsets", "neighbors", "ranks"}),
            (el, random_priorities(el.num_edges, seed=5), {"u", "v", "ranks"}),
        ):
            shared = SharedCSR.create(payload, ranks)
            try:
                assert set(shared.bundle.arrays) == keys
            finally:
                shared.close()
                shared.unlink()


class TestWorkerAttachmentRegistry:
    def test_attach_caches_per_name(self):
        from repro.service.shared import (
            attach_shared,
            attached_names,
            detach_all,
            detach_shared,
        )

        g = cycle_graph(12)
        shared = SharedCSR.create(g)
        try:
            first = attach_shared(shared.name, shared.fingerprint)
            second = attach_shared(shared.name, shared.fingerprint)
            assert first is second
            assert shared.name in attached_names()
            assert detach_shared(shared.name) is True
            assert detach_shared(shared.name) is False
            attach_shared(shared.name)
            assert detach_all() == 1
        finally:
            shared.close()
            shared.unlink()

    def test_fingerprint_mismatch_raises_graph_format_error(self):
        from repro.service.shared import attach_shared, attached_names

        g = cycle_graph(12)
        shared = SharedCSR.create(g)
        try:
            with pytest.raises(GraphFormatError, match="fingerprint mismatch"):
                attach_shared(shared.name, "0" * 16)
            # The poisoned attachment must not linger in the cache.
            assert shared.name not in attached_names()
        finally:
            shared.close()
            shared.unlink()
