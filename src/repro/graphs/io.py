"""Graph file I/O in the two PBBS text formats.

The paper's experimental inputs come from the Problem Based Benchmark Suite
tooling; this module implements its two interchange formats so generated
workloads can be persisted and re-read byte-for-byte.

Adjacency-graph format (header ``AdjacencyGraph``)::

    AdjacencyGraph
    <n>
    <num arcs>
    <n offsets, one per line>
    <num-arcs neighbor ids, one per line>

Edge-array format (header ``EdgeArray``)::

    EdgeArray
    <u> <v>
    ...

Both readers validate counts and raise :class:`~repro.errors.GraphFormatError`
with line-level context on malformed input.

A third, headerless format covers real-world inputs: SNAP edge lists
(``#``-prefixed comment lines, one ``u v`` pair per line, arbitrary
non-contiguous node ids) via :func:`read_snap_edge_list`, which relabels
ids to a contiguous ``0..n-1`` range.

Edge-soup readers are **strict** by default: self-loops and duplicate
undirected edges raise :class:`~repro.errors.InvalidGraphError` naming the
first offender, instead of being silently canonicalized away (the old
behaviour let corrupt inputs surface later as CSR-invariant failures deep
in the kernels).  Pass ``strict=False`` to restore dedup/loop-dropping for
deliberately soupy inputs.
"""

from __future__ import annotations

import io
import os
from typing import Tuple, Union

import numpy as np

from repro.errors import GraphFormatError, InvalidGraphError
from repro.graphs.builders import from_edges
from repro.graphs.csr import CSRGraph
from repro.util.arrays import sorted_unique

__all__ = [
    "ADJACENCY_HEADER",
    "EDGE_ARRAY_HEADER",
    "read_adjacency_graph",
    "write_adjacency_graph",
    "read_edge_list",
    "write_edge_list",
    "read_snap_edge_list",
    "check_edge_soup",
]

ADJACENCY_HEADER = "AdjacencyGraph"
EDGE_ARRAY_HEADER = "EdgeArray"

PathLike = Union[str, os.PathLike]


def _is_gzip(path: PathLike) -> bool:
    return str(path).endswith(".gz")


def _read_tokens(path: PathLike) -> list:
    """Read a whitespace-token stream; ``.gz`` paths are transparently
    decompressed (large PBBS inputs are usually shipped gzipped)."""
    try:
        if _is_gzip(path):
            import gzip

            with gzip.open(path, "rt", encoding="ascii") as fh:
                text = fh.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path!r}: {exc}") from exc
    return text.split()


def _open_for_write(path: PathLike):
    if _is_gzip(path):
        import gzip

        return gzip.open(path, "wt", encoding="ascii")
    return open(path, "w", encoding="ascii")


def read_adjacency_graph(path: PathLike) -> CSRGraph:
    """Read a graph in PBBS adjacency format.

    The stored graph is taken at face value as a directed CSR; the PBBS
    convention for undirected graphs is to store both arc directions, and
    :class:`CSRGraph` construction enforces the resulting arc-count parity.
    """
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != ADJACENCY_HEADER:
        found = tokens[0] if tokens else "<empty file>"
        raise GraphFormatError(
            f"{path}: expected header {ADJACENCY_HEADER!r}, found {found!r}"
        )
    if len(tokens) < 3:
        raise GraphFormatError(f"{path}: missing vertex/arc counts")
    try:
        n = int(tokens[1])
        arcs = int(tokens[2])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer counts in header") from exc
    expected = 3 + n + arcs
    if len(tokens) != expected:
        raise GraphFormatError(
            f"{path}: expected {expected} tokens for n={n}, arcs={arcs}; "
            f"found {len(tokens)}"
        )
    try:
        body = np.array(tokens[3:], dtype=np.int64)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer payload") from exc
    starts = body[:n]
    neighbors = body[n:]
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[:n] = starts
    offsets[n] = arcs
    try:
        return CSRGraph(offsets, neighbors)
    except Exception as exc:
        raise GraphFormatError(f"{path}: invalid CSR payload: {exc}") from exc


def write_adjacency_graph(graph: CSRGraph, path: PathLike) -> None:
    """Write *graph* in PBBS adjacency format (see module docstring)."""
    buf = io.StringIO()
    buf.write(ADJACENCY_HEADER + "\n")
    buf.write(f"{graph.num_vertices}\n")
    buf.write(f"{graph.num_arcs}\n")
    np.savetxt(buf, graph.offsets[:-1], fmt="%d")
    np.savetxt(buf, graph.neighbors, fmt="%d")
    with _open_for_write(path) as fh:
        fh.write(buf.getvalue())


def check_edge_soup(u: np.ndarray, v: np.ndarray, context: str = "edge list") -> None:
    """Reject self-loops and duplicate undirected edges.

    Raises :class:`~repro.errors.InvalidGraphError` naming the first
    offending edge in input order, with its index.  A duplicate is any
    repeated unordered pair — ``1 0`` after ``0 1`` counts, and the
    ``1 0`` is the offender.  Shared by the PBBS and SNAP edge readers (and
    usable by any caller assembling an edge soup by hand).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    loops = np.nonzero(u == v)[0]
    if loops.size:
        i = int(loops[0])
        raise InvalidGraphError(
            f"{context}: {loops.size} self-loop(s); first is edge "
            f"#{i} ({int(u[i])}, {int(u[i])})"
        )
    if u.size == 0:
        return
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    n = int(hi.max()) + 1
    keys = lo * np.int64(n) + hi
    # A stable sort keeps each pair's first occurrence at the head of its
    # run, so every later member of a run is a repeat.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeats.size:
        i = int(repeats.min())
        raise InvalidGraphError(
            f"{context}: {repeats.size} duplicate undirected edge(s); first "
            f"repeat is edge #{i} ({int(u[i])}, {int(v[i])})"
        )


def read_edge_list(path: PathLike, *, strict: bool = True) -> CSRGraph:
    """Read a graph in PBBS edge-array format.

    Vertex count is inferred as ``max endpoint + 1``.  With the default
    ``strict=True``, self-loops and duplicate undirected edges raise
    :class:`~repro.errors.InvalidGraphError` (see :func:`check_edge_soup`);
    with ``strict=False`` the soup is canonicalized through
    :func:`repro.graphs.builders.from_edges` (dedup, loop removal) as the
    reader historically did.
    """
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != EDGE_ARRAY_HEADER:
        found = tokens[0] if tokens else "<empty file>"
        raise GraphFormatError(
            f"{path}: expected header {EDGE_ARRAY_HEADER!r}, found {found!r}"
        )
    body = tokens[1:]
    if len(body) % 2 != 0:
        raise GraphFormatError(
            f"{path}: edge payload has odd token count {len(body)}"
        )
    try:
        flat = np.array(body, dtype=np.int64)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer endpoints") from exc
    if flat.size == 0:
        return from_edges(0, flat, flat)
    if flat.min() < 0:
        raise GraphFormatError(f"{path}: negative vertex id")
    u = flat[0::2]
    v = flat[1::2]
    n = int(flat.max()) + 1
    if strict:
        check_edge_soup(u, v, context=str(path))
    return from_edges(n, u, v)


def read_snap_edge_list(path: PathLike, *, strict: bool = True) -> CSRGraph:
    """Read a SNAP-style edge list (comments, arbitrary node ids).

    The format used by the SNAP network repository: ``#``-prefixed comment
    lines anywhere, then one ``u v`` pair per line (tabs or spaces).  Node
    ids may be arbitrary non-negative integers with gaps; they are
    relabeled to ``0..n-1`` in ascending numeric order, so the result is
    deterministic for a given file.  ``.gz`` paths decompress
    transparently.

    Inherits the strict edge-soup check from :func:`check_edge_soup`:
    self-loops or duplicate undirected edges (including a pair listed in
    both directions, as directed SNAP exports do) raise
    :class:`~repro.errors.InvalidGraphError` unless ``strict=False``,
    which canonicalizes instead.
    """
    try:
        if _is_gzip(path):
            import gzip

            with gzip.open(path, "rt", encoding="ascii") as fh:
                lines = fh.readlines()
        else:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.readlines()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path!r}: {exc}") from exc
    us = []
    vs = []
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'u v', found {body!r}"
            )
        try:
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer endpoint in {body!r}"
            ) from exc
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    if u.size == 0:
        return from_edges(0, u, v)
    if min(int(u.min()), int(v.min())) < 0:
        raise GraphFormatError(f"{path}: negative vertex id")
    labels = sorted_unique(np.concatenate([u, v]))
    u = np.searchsorted(labels, u)
    v = np.searchsorted(labels, v)
    n = int(labels.size)
    if strict:
        check_edge_soup(u, v, context=str(path))
    return from_edges(n, u, v)


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write *graph* as a PBBS edge array (one ``u v`` line per edge)."""
    el = graph.edge_list()
    pairs = np.stack([el.u, el.v], axis=1)
    buf = io.StringIO()
    buf.write(EDGE_ARRAY_HEADER + "\n")
    np.savetxt(buf, pairs, fmt="%d")
    with _open_for_write(path) as fh:
        fh.write(buf.getvalue())
