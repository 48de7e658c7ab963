"""Round-trip and validation tests for the one wire schema
(:mod:`repro.service.schema`).

The gateway, the CLI ``batch --file`` path, and ``SolveRequest`` all
decode through this module; the property pinned here is that
``encode_solve`` and ``decode_solve`` are inverses on the wire (so the
three front doors cannot drift field-by-field), that malformed objects
raise plain ``ValueError`` with a client-facing message, and that
``encode_result`` is a pure function of the request (byte-identical
cache bodies).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.matching import maximal_matching
from repro.core.mis import maximal_independent_set
from repro.core.options import SolveOptions
from repro.graphs.generators import uniform_random_graph
from repro.service import schema
from repro.service.config import SolveRequest

pytestmark = pytest.mark.service


def _wire_objects(seed):
    """A seeded stream of valid wire solve objects covering the field grid."""
    rng = np.random.default_rng(seed)
    objs = []
    for _ in range(12):
        n = int(rng.integers(3, 12))
        edges = sorted({
            (min(a, b), max(a, b))
            for a, b in rng.integers(0, n, size=(n, 2)).tolist()
            if a != b
        })
        obj = {
            "problem": str(rng.choice(["mis", "matching"])),
            "graph": {"n": n, "edges": [list(e) for e in edges]},
        }
        if rng.random() < 0.5:
            k = n if obj["problem"] == "mis" else len(edges)
            obj["ranks"] = rng.permutation(k).tolist()
        if rng.random() < 0.5:
            obj["method"] = "sequential"
        if rng.random() < 0.4:
            obj["guards"] = "full"
        if rng.random() < 0.4:
            obj["timeout_s"] = float(rng.integers(1, 30))
        if rng.random() < 0.3:
            obj["budget_steps"] = int(rng.integers(100, 10_000))
        if rng.random() < 0.4:
            obj["options"] = {"seed": int(rng.integers(0, 99))}
        objs.append(obj)
    return objs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_encode_round_trip(seed):
    """decode → encode → decode is a fixpoint, and encode is JSON-stable."""
    for obj in _wire_objects(seed):
        request, timeout = schema.decode_solve(obj)
        wire = schema.encode_solve(request)
        request2, timeout2 = schema.decode_solve(wire)
        assert timeout2 == timeout
        wire2 = schema.encode_solve(request2)
        assert json.dumps(wire, sort_keys=True) == json.dumps(wire2, sort_keys=True)
        assert request2.problem == request.problem
        assert request2.method == request.method
        assert request2.guards == request.guards
        assert request2.budget_steps == request.budget_steps
        assert dict(request2.options or {}) == dict(request.options or {})
        if request.ranks is None:
            assert request2.ranks is None
        else:
            assert np.array_equal(np.asarray(request2.ranks),
                                  np.asarray(request.ranks))


def test_seed_field_merges_into_options():
    request, _ = schema.decode_solve({
        "problem": "mis",
        "graph": {"n": 3, "edges": [[0, 1]]},
        "seed": 7,
        "options": {"guards": "full"},
    })
    # guards lifts onto the request; the merged seed stays in options.
    assert request.guards == "full"
    assert request.options == {"seed": 7}
    # options round-trips through SolveOptions wire validation.
    assert SolveOptions.from_wire(dict(request.options)).seed == 7


def test_options_method_and_guards_lift_onto_the_request():
    """Wire options carrying method/guards must not reach the worker as
    duplicate kwargs — they lift onto the request itself."""
    request, _ = schema.decode_solve({
        "graph": {"n": 3, "edges": [[0, 1]]},
        "options": {"seed": 9, "guards": "full", "method": "rootset-vec"},
    })
    assert request.guards == "full"
    assert request.method == "rootset-vec"
    assert request.options == {"seed": 9}
    with pytest.raises(ValueError, match="guards"):
        schema.decode_solve({
            "graph": {"n": 3, "edges": [[0, 1]]},
            "guards": "off",
            "options": {"guards": "full"},
        })


def test_mm_alias_normalizes():
    request, _ = schema.decode_solve(
        {"problem": "mm", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]}}
    )
    assert request.problem == "matching"


def test_timeout_precedence_body_over_override_over_default():
    graph = {"n": 2, "edges": [[0, 1]]}
    _, t = schema.decode_solve(
        {"graph": graph, "timeout_s": 1.5},
        timeout_override=9.0, default_timeout_s=30.0,
    )
    assert t == 1.5
    _, t = schema.decode_solve(
        {"graph": graph}, timeout_override=9.0, default_timeout_s=30.0,
    )
    assert t == 9.0
    _, t = schema.decode_solve({"graph": graph}, default_timeout_s=30.0)
    assert t == 30.0


@pytest.mark.parametrize("obj,fragment", [
    ([1, 2], "JSON object"),
    ({"graph": {"n": 3, "edges": []}, "color": "red"}, "unknown fields"),
    ({"problem": "tsp", "graph": {"n": 3, "edges": []}}, "problem must be"),
    ({"problem": "mis"}, "graph must be"),
    ({"problem": "mis", "graph": {"edges": []}}, "malformed inline graph"),
    ({"problem": "mis", "graph": "favorite"}, "not resolvable"),
    ({"graph": {"n": 3, "edges": []}, "ranks": "abc"}, "ranks"),
    ({"graph": {"n": 3, "edges": []}, "options": {"backend": "numpy"}},
     "backend"),
    ({"graph": {"n": 3, "edges": []}, "options": [1, 2]}, "options"),
], ids=["non-object", "unknown-field", "bad-problem", "no-graph",
        "no-n", "unresolved-name", "bad-ranks", "retired-backend-option",
        "non-object-options"])
def test_malformed_objects_raise_value_error(obj, fragment):
    with pytest.raises(ValueError, match=fragment):
        schema.decode_solve(obj)


def test_retired_backend_knob_is_an_unknown_option():
    from repro.errors import EngineError

    with pytest.raises(EngineError, match="backend"):
        SolveOptions.from_wire({"backend": "numpy"})
    assert "backend" not in {f.name for f in dataclasses.fields(SolveOptions)}
    assert len(dataclasses.fields(SolveOptions)) == 9


def test_graph_resolver_supplies_payload_and_default_ranks():
    graph = uniform_random_graph(10, 20, seed=1)
    pi = np.random.default_rng(2).permutation(10)

    def resolver(name, problem):
        assert name == "reg" and problem == "mis"
        return graph, pi

    request, _ = schema.decode_solve({"graph": "reg"}, graph_resolver=resolver)
    assert request.payload is graph
    assert np.array_equal(np.asarray(request.ranks), pi)
    # An explicit seed suppresses the registered default ordering.
    request, _ = schema.decode_solve(
        {"graph": "reg", "seed": 3}, graph_resolver=resolver,
    )
    assert request.ranks is None


def test_encode_solve_rejects_call_requests():
    req = SolveRequest("call", {"module": "m", "func": "f"})
    with pytest.raises(ValueError, match="cannot encode"):
        schema.encode_solve(req)


def test_encode_result_deterministic_and_problem_name_form():
    graph = uniform_random_graph(30, 90, seed=4)
    pi = np.random.default_rng(4).permutation(30)
    result = maximal_independent_set(graph, pi, method="rootset-vec")
    request, _ = schema.decode_solve({
        "graph": {"n": 30,
                  "edges": np.stack([graph.edge_list().u,
                                     graph.edge_list().v], axis=1).tolist()},
        "ranks": pi.tolist(),
    })
    a = json.dumps(schema.encode_result(request, result), sort_keys=True)
    b = json.dumps(schema.encode_result(request, result), sort_keys=True)
    assert a == b
    # Session results encode by bare problem name — same body.
    c = json.dumps(schema.encode_result("mis", result), sort_keys=True)
    assert c == a
    assert json.loads(a)["size"] == result.size


def test_encode_result_matching_edges_ride_along():
    graph = uniform_random_graph(20, 60, seed=5)
    el = graph.edge_list()
    ranks = np.random.default_rng(5).permutation(el.num_edges)
    result = maximal_matching(el, ranks, method="sequential")
    body = schema.encode_result("matching", result)
    assert body["edge_u"] == result.edge_u.tolist()
    assert body["edge_v"] == result.edge_v.tolist()


# -- dump_result: the byte writer every result route sends ----------------


def _reference_dump(request, result, **extra):
    """What every result route must send: the dict form, dumped."""
    return json.dumps(
        dict(schema.encode_result(request, result), **extra),
        separators=(",", ":"), sort_keys=True,
    ).encode()


def _list_dump(values):
    return json.dumps(values.tolist(), separators=(",", ":")).encode()


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([0]),
    np.array([9, 10]),
    np.array([9999, 10000]),
    np.array([99999999, 10**8]),
    np.array([-128, 127], dtype=np.int8),
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
    np.array([np.iinfo(np.uint64).max], dtype=np.uint64),
    np.array([-1, 0, 1, -9999, -10000, 2**32 - 1, 2**32, -(2**32)]),
    np.array([3, -10000]),
    np.array([7, -(2**32)]),
], ids=["empty", "zero", "9-10", "9999-10000", "1e8", "int8-limits",
        "int64-limits", "uint64-max", "signs-and-2**32",
        "widest-is-negative", "widest-is-negative-2**32"])
def test_int_array_writer_edge_values(values):
    assert schema._dump_int_array(values) == _list_dump(values)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
def test_int_array_writer_random_arrays(dtype):
    """Full-range draws plus one draw per decimal width, on native,
    strided and byte-swapped arrays."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    draws = [rng.integers(info.min, info.max, 600, dtype=dtype, endpoint=True)]
    for digits in range(1, len(str(info.max)) + 1):
        hi = min(10**digits - 1, int(info.max))
        lo = max(-hi, int(info.min))
        draws.append(rng.integers(lo, hi, 200, dtype=dtype, endpoint=True))
    for values in draws:
        for variant in (values, values[::3], values.astype(values.dtype.newbyteorder())):
            assert schema._dump_int_array(variant) == _list_dump(variant)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("size", [0, 1, 1000], ids=lambda k: f"len{k}")
@pytest.mark.parametrize("top", [9, 10], ids=lambda t: f"max{t}")
def test_int_array_writer_single_digit_arrays(dtype, size, top):
    """Arrays within [0, 9] take the one-interleave path; a maximum of 10,
    like any other array, takes the general one.  Same bytes either way."""
    rng = np.random.default_rng(size + top)
    values = rng.integers(0, top, size, dtype=dtype, endpoint=True)
    if size:
        values[-1] = top
    for variant in (values, values[::3], values.astype(values.dtype.newbyteorder())):
        assert schema._dump_int_array(variant) == _list_dump(variant)


@pytest.mark.parametrize("values", [
    np.array([-1], dtype=np.int8),
    np.array([0, 9, -1, 5], dtype=np.int8),
    np.array([-9, -1, 0], dtype=np.int64),
], ids=["minus-one", "digits-and-minus-one", "negative-digits"])
def test_int_array_writer_negative_values_keep_the_general_path(values):
    assert schema._dump_int_array(values) == _list_dump(values)


@pytest.mark.parametrize("values", [
    np.array([0.0, 1.0]),
    np.array([], dtype=np.float64),
    np.array([True, False]),
    np.zeros((2, 2), dtype=np.int64),
], ids=["float", "empty-float", "bool", "2-D"])
def test_int_array_writer_rejects_non_integer_arrays(values):
    with pytest.raises(TypeError, match="1-D integer array"):
        schema._dump_int_array(values)


@pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193, 100_000])
def test_int_array_writer_block_boundaries(size):
    """The writer works in blocks of ``schema._BLOCK`` elements: every
    length around a block edge writes what ``json.dumps`` writes, with
    negatives, the int64 extremes and runs of single digits mixed in."""
    assert schema._BLOCK == 8192
    rng = np.random.default_rng(size)
    values = rng.integers(-(10**12), 10**12, size, dtype=np.int64)
    if size:
        values[rng.integers(0, size, max(1, size // 5))] = rng.integers(0, 9, max(1, size // 5))
        values[rng.integers(0, size)] = np.iinfo(np.int64).min
        values[-1] = np.iinfo(np.int64).max
        values[: min(size, 40)] = np.arange(min(size, 40)) % 10
    assert schema._dump_int_array(values) == _list_dump(values)


def test_int_array_writer_peak_stays_near_its_output():
    """Beside its output the writer holds one block's temporaries: the
    traced peak on 10**5 values (the ``ranks`` of a 10**5-edge MM body)
    stays within 2.5x the bytes it writes."""
    import tracemalloc

    values = np.random.default_rng(0).permutation(100_000).astype(np.int64)
    tracemalloc.start()
    try:
        out = schema._dump_int_array(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == _list_dump(values)
    assert peak <= 2.5 * len(out), (peak, len(out))


def _results(seed):
    """Seeded ``(problem, result)`` pairs: MIS and MM from several engines
    (``luby`` included), empty graphs, and session results that carry
    ``aux["dynamic"]``."""
    from repro.dynamic import IncrementalMatching, IncrementalMIS
    from repro.graphs.builders import from_edges

    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 80))
    graph = uniform_random_graph(n, int(rng.integers(1, 2 * n)), seed=seed)
    no_vertices = from_edges(0, np.array([], np.int64), np.array([], np.int64))
    no_edges = uniform_random_graph(n, 0, seed=seed)
    pairs = []
    for g in (graph, no_vertices, no_edges):
        for method in ("sequential", "prefix", "rootset-vec", "luby"):
            pairs.append(("mis", maximal_independent_set(g, seed=seed, method=method)))
        for method in ("sequential", "parallel", "rootset-vec"):
            pairs.append(("matching", maximal_matching(
                g.edge_list(), seed=seed, method=method)))
    el = graph.edge_list()
    first = (int(el.u[0]), int(el.v[0]))
    for session in (IncrementalMIS(graph, seed=seed),
                    IncrementalMatching(graph, seed=seed)):
        session.apply_batch(deletions=[first])
        problem = "mis" if isinstance(session, IncrementalMIS) else "matching"
        pairs.append((problem, session.result()))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dump_result_equals_reference_dump(seed):
    extras = [
        {},
        {"session_id": "s-1", "version": seed},
        {"ok": True, "cache": "miss"},
        {"ok": True, "cache": "stale", "session_id": "é"},
        {"status": "overridden"},  # an extra replaces a result field
    ]
    pairs = _results(seed)
    assert any("dynamic" in r.stats.aux for _, r in pairs)
    for problem, result in pairs:
        request, _ = schema.decode_solve({
            "problem": problem,
            "graph": {"n": 1, "edges": []},
        })
        for extra in extras:
            for req in (problem, request):
                assert schema.dump_result(req, result, **extra) == (
                    _reference_dump(req, result, **extra)
                ), (problem, result.stats.algorithm, extra)


def test_dump_result_splices_encoded_edge_fields():
    """Pre-written edge fields give the same body; an extra field that
    replaces one of them still wins."""
    graph = uniform_random_graph(30, 80, seed=2)
    result = maximal_matching(graph.edge_list(), seed=2)
    fields = schema.dump_edge_fields(result.edge_u, result.edge_v)
    for extra in ({}, {"ok": True, "cache": "miss"}, {"edge_u": "overridden"}):
        assert schema.dump_result("matching", result, encoded=fields, **extra) == (
            _reference_dump("matching", result, **extra)
        ), extra
