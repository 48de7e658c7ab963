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
    assert len(dataclasses.fields(SolveOptions)) == 11


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
