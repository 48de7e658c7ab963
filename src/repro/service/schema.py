"""One wire schema for solve requests and results.

The HTTP gateway, the CLI ``batch`` subcommand, and
:class:`~repro.service.config.SolveRequest` all speak the same JSON
dialect; this module is its single definition, so the three front doors
cannot drift field-by-field (the round-trip property test pins
``decode(encode(x)) == x``).

A solve object looks like::

    {"problem": "mis" | "matching" | "mm",
     "graph":   {"n": 5, "edges": [[0, 1], [1, 2]]} | "<registered name>",
     "ranks":   [...],          # optional explicit priorities
     "seed":    7,              # optional (merged into options)
     "method":  "prefix",       # optional engine name (default: the
                                #   service's default_method)
     "guards":  "full",         # optional guard mode
     "budget_steps": 10000,     # optional step budget
     "timeout_s": 2.5,          # optional wall-clock deadline
     "options": {...}}          # optional SolveOptions wire fields

Malformed objects raise plain :class:`ValueError` with a client-facing
message; transports map it onto their own status taxonomy (the gateway
to ``400``, the CLI to exit code ``2``).  Graph *names* only resolve
when the caller passes a ``graph_resolver`` (the gateway's registered
graphs); the CLI and tests use inline graphs.

The result schema (:func:`encode_result`) holds only fields that are a
pure function of (graph, π, method, knobs) so cached and fresh bodies
stay byte-identical — run-varying details ride response headers.
:func:`dump_result` writes that body as bytes, integer arrays with
numpy, and is what every transport sends.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.options import SolveOptions
from repro.core.result import MatchingResult
from repro.errors import EngineError
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph, EdgeList
from repro.service.config import SolveRequest

__all__ = [
    "MUTATE_FIELDS",
    "SOLVE_FIELDS",
    "build_inline_graph",
    "decode_mutate",
    "decode_solve",
    "dump_result",
    "encode_solve",
    "encode_result",
]

#: The complete legal field set of one wire solve object.
SOLVE_FIELDS = frozenset({
    "problem", "graph", "ranks", "seed", "method", "guards",
    "budget_steps", "timeout_s", "options",
})

#: The complete legal field set of one wire session-mutate object.
MUTATE_FIELDS = frozenset({
    "insertions", "deletions", "timeout_s", "mutation_id", "if_version",
})

#: graph_resolver(name, problem) -> (payload, default_ranks)
GraphResolver = Callable[[str, str], Tuple[Any, Optional[np.ndarray]]]


def build_inline_graph(obj: Dict[str, Any]) -> CSRGraph:
    """Build a CSR graph from the inline ``{"n": …, "edges": […]}`` form."""
    try:
        n = int(obj["n"])
        edges = obj.get("edges", [])
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return from_edges(n, arr[:, 0], arr[:, 1])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inline graph: {exc}") from exc


def decode_solve(
    obj: Any,
    *,
    default_timeout_s: Optional[float] = None,
    timeout_override: Optional[float] = None,
    graph_resolver: Optional[GraphResolver] = None,
) -> Tuple[SolveRequest, Optional[float]]:
    """Decode one wire solve object into ``(SolveRequest, timeout_s)``.

    Parameters
    ----------
    obj:
        The parsed JSON value (must be an object).
    default_timeout_s:
        Deadline applied when the object sets none.
    timeout_override:
        A transport-level deadline (e.g. the gateway's
        ``X-Repro-Timeout-S`` header) used when the object sets none;
        wins over *default_timeout_s*.
    graph_resolver:
        Resolves a string ``graph`` field to ``(payload,
        default_ranks)``; without one, string names raise
        ``ValueError``.
    """
    if not isinstance(obj, dict):
        raise ValueError("solve request must be a JSON object")
    unknown = set(obj) - SOLVE_FIELDS
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
    problem = obj.get("problem", "mis")
    if problem not in ("mis", "matching", "mm"):
        raise ValueError(f"problem must be 'mis' or 'matching', got {problem!r}")
    if problem == "mm":
        problem = "matching"

    graph = obj.get("graph")
    default_ranks: Optional[np.ndarray] = None
    if isinstance(graph, str):
        if graph_resolver is None:
            raise ValueError(
                f"graph names are not resolvable here; inline the graph "
                f"as {{'n': …, 'edges': […]}} (got {graph!r})"
            )
        payload, default_ranks = graph_resolver(graph, problem)
    elif isinstance(graph, dict):
        built = build_inline_graph(graph)
        payload = built if problem == "mis" else built.edge_list()
    else:
        raise ValueError(
            "graph must be a registered name or {'n': …, 'edges': […]}"
        )

    options = obj.get("options") or {}
    try:
        SolveOptions.from_wire(options)  # unknown knobs: 400 / exit 2
    except EngineError as exc:
        raise ValueError(str(exc)) from None
    options = dict(options)
    if obj.get("seed") is not None:
        options["seed"] = int(obj["seed"])
    ranks = obj.get("ranks")
    if ranks is not None:
        try:
            arr = np.asarray(ranks)
        except (TypeError, ValueError):
            raise ValueError("ranks must be a flat array of numbers")
        if arr.ndim != 1 or arr.dtype.kind not in "iuf":
            raise ValueError("ranks must be a flat array of numbers")
        ranks = arr
    elif problem == "mis" and "seed" not in options:
        # A registered graph's π is the default ordering only when the
        # request pins neither ranks nor a seed of its own.
        ranks = default_ranks

    timeout_s = obj.get("timeout_s")
    if timeout_s is None:
        timeout_s = timeout_override
    if timeout_s is None:
        timeout_s = default_timeout_s
    try:
        request = SolveRequest(
            problem,
            payload,
            ranks=ranks,
            method=obj.get("method"),
            guards=obj.get("guards"),
            timeout_seconds=timeout_s,
            budget_steps=obj.get("budget_steps"),
            options=options,
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(str(exc)) from exc
    return request, timeout_s


def decode_mutate(
    obj: Any,
    *,
    header_mutation_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Decode one wire session-mutate object into ``mutate()`` keywords.

    Returns a dict with keys ``insertions``, ``deletions``,
    ``mutation_id``, and ``if_version`` (timeouts are resolved by the
    transport and are not returned here).  *header_mutation_id* carries
    the gateway's ``X-Repro-Idempotency-Key`` header; when both the
    header and the body name a key they must agree, so a retry that
    garbles one of them cannot silently bypass deduplication.

    Malformed objects raise plain :class:`ValueError`, mapped by the
    gateway to ``400`` like every other schema error.
    """
    if not isinstance(obj, dict):
        raise ValueError("mutate request must be a JSON object")
    unknown = set(obj) - MUTATE_FIELDS
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
    mutation_id = obj.get("mutation_id")
    if mutation_id is not None and (
        not isinstance(mutation_id, str) or not mutation_id
    ):
        raise ValueError("mutation_id must be a non-empty string")
    if header_mutation_id is not None:
        if mutation_id is not None and mutation_id != header_mutation_id:
            raise ValueError(
                "mutation_id in body disagrees with the "
                "X-Repro-Idempotency-Key header"
            )
        mutation_id = header_mutation_id
    if_version = obj.get("if_version")
    if if_version is not None:
        if isinstance(if_version, bool) or not isinstance(if_version, int):
            raise ValueError("if_version must be an integer")
        if if_version < 0:
            raise ValueError("if_version must be >= 0")
    return {
        "insertions": obj.get("insertions") or (),
        "deletions": obj.get("deletions") or (),
        "mutation_id": mutation_id,
        "if_version": if_version,
    }


def encode_solve(request: SolveRequest) -> Dict[str, Any]:
    """Encode a :class:`SolveRequest` back into the wire object.

    The inverse of :func:`decode_solve` for inline-graph requests (the
    round-trip property the schema test pins).  ``"call"`` requests and
    requests whose payload is not a plain graph are not wire
    representations and raise ``ValueError``.
    """
    payload = request.payload
    if isinstance(payload, CSRGraph):
        el = payload.edge_list()
        n = payload.num_vertices
    elif isinstance(payload, EdgeList):
        el = payload
        n = payload.num_vertices
    else:
        raise ValueError(
            f"cannot encode a {request.problem!r} request whose payload is "
            f"{type(payload).__name__}"
        )
    obj: Dict[str, Any] = {
        "problem": request.problem,
        "graph": {
            "n": n,
            "edges": np.stack([el.u, el.v], axis=1).tolist() if el.num_edges else [],
        },
    }
    if request.ranks is not None:
        obj["ranks"] = np.asarray(request.ranks).tolist()
    if request.method is not None:
        obj["method"] = request.method
    if request.guards is not None:
        obj["guards"] = request.guards
    if request.timeout_seconds is not None:
        obj["timeout_s"] = request.timeout_seconds
    if request.budget_steps is not None:
        obj["budget_steps"] = request.budget_steps
    if request.options:
        obj["options"] = dict(request.options)
    return obj


#: Decimal digits are written four at a time, one uint32 cell per group.
_GROUP = 10_000

#: The cell that opens each element: a comma, then a sign for negatives.
_COMMA, _COMMA_MINUS = np.frombuffer(b",\0\0\0,-\0\0", dtype=np.uint32)


def _digit_cells() -> np.ndarray:
    """ASCII of every 4-digit group as one uint32 cell, in three tables.

    ``[0, G)`` is zero-padded (``"0042"``), for groups below a number's
    leading one.  ``[G, 2G)`` blanks leading zeros to NUL (``"\\0\\042"``,
    and ``0`` is ``"\\0\\0\\00"``), for a units group that leads.
    ``[2G, 3G)`` is the same but ``0`` is all NUL, for a higher group
    that leads or lies wholly above the number.
    """
    g = np.arange(_GROUP)[:, None]
    place = np.array([1000, 100, 10, 1])
    full = (g // place % 10 + ord("0")).astype(np.uint8)
    upper = np.where(g >= place, full, 0).astype(np.uint8)
    units = upper.copy()
    units[0, -1] = ord("0")
    return np.concatenate([full, units, upper]).view(np.uint32).ravel()


_DIGITS = _digit_cells()


def _dump_int_array(values: np.ndarray) -> bytes:
    """``json.dumps(values.tolist(), separators=(",", ":"))``, with numpy.

    Each element becomes one row of uint32 cells: a comma (and sign)
    cell, then its 4-digit groups from :data:`_DIGITS` with leading
    zeros as NUL bytes; one compaction pass drops the NULs.  The cells
    take 12 bytes per element below 10**8, where ``tolist`` allocates a
    Python int per element.  Only 1-D integer arrays are accepted
    (``TypeError`` otherwise; there is no ``tolist`` fallback).
    """
    if values.dtype.kind not in "iu" or values.ndim != 1:
        raise TypeError(
            f"expected a 1-D integer array, got {values.ndim}-D {values.dtype}"
        )
    if values.size == 0:
        return b"[]"
    lo, hi = int(values.min()), int(values.max())
    top = max(hi, -lo)
    mag = values.astype(np.uint32 if top < 2**32 else np.uint64)
    groups = 1
    while top >= _GROUP**groups:
        groups += 1
    cells = np.empty((values.size, groups + 1), dtype=np.uint32)
    cells[:, 0] = _COMMA
    if lo < 0:
        negative = values < 0
        np.negative(mag, out=mag, where=negative)  # modular: exact for int64 min
        cells[negative, 0] = _COMMA_MINUS
    rest = mag
    for r in range(groups):  # least significant group first
        lead = _GROUP if r == 0 else 2 * _GROUP
        if r + 1 < groups:
            rest, group = np.divmod(rest, _GROUP)
            index = group.astype(np.intp)
            index += (mag < _GROUP ** (r + 1)) * lead
        else:  # the top group always leads
            index = rest.astype(np.intp)
            index += lead
        cells[:, groups - r] = _DIGITS[index]
    flat = cells.view(np.uint8).ravel()
    out = flat[flat != 0]
    out[0] = ord("[")
    return out.tobytes() + b"]"


def _result_fields(
    request: Union[SolveRequest, str], result: Any
) -> Dict[str, Any]:
    """The result schema: every body field, integer arrays as numpy arrays.

    The one field list behind :func:`encode_result` (lists) and
    :func:`dump_result` (bytes).
    """
    problem = request if isinstance(request, str) else request.problem
    stats = result.stats
    body = {
        "problem": problem,
        "n": stats.n,
        "m": stats.m,
        "size": result.size,
        "status": result.status,
        "ranks": np.asarray(result.ranks),
        "steps": stats.steps,
        "rounds": stats.rounds,
        "work": stats.work,
        "depth": stats.depth,
    }
    if isinstance(result, MatchingResult):
        body["edge_u"] = result.edge_u
        body["edge_v"] = result.edge_v
    dynamic = stats.aux.get("dynamic")
    if dynamic is not None:
        body["dynamic"] = dynamic
    return body


def encode_result(
    request: Union[SolveRequest, str], result: Any
) -> Dict[str, Any]:
    """Deterministic result body shared by the gateway and CLI batch.

    Only fields that are a pure function of (graph, π, method, knobs), so
    cold, warm-hit, and stale-degraded responses for one content address
    are byte-identical.  ``aux["dynamic"]`` (session re-peel accounting)
    is deterministic too and rides along when present.  *request* may be
    a bare problem name — session results have no :class:`SolveRequest`.

    This is the dict form; every transport writes the body with
    :func:`dump_result`, which produces the same JSON without building
    these lists.
    """
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in _result_fields(request, result).items()
    }


def _dump(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"), sort_keys=True).encode()


def dump_result(
    request: Union[SolveRequest, str], result: Any, **extra: Any
) -> bytes:
    """The serialized result body, with *extra* fields merged in.

    For plain JSON *extra* values, returns exactly
    ``json.dumps(dict(encode_result(request, result), **extra),
    separators=(",", ":"), sort_keys=True).encode()``, but
    writes the integer arrays with numpy instead of ``tolist`` plus
    ``json.dumps`` (see :func:`_dump_int_array`).  The gateway's solve,
    batch and session-result routes and ``repro batch --file`` all
    write result bodies through it.
    """
    body = _result_fields(request, result)
    body.update(extra)
    return b"{" + b",".join(
        _dump(key) + b":" + (
            _dump_int_array(value) if isinstance(value, np.ndarray)
            else _dump(value)
        )
        for key, value in sorted(body.items())
    ) + b"}"
