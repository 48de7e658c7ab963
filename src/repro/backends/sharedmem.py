"""Zero-copy graph bundles in POSIX shared memory.

The service's worker pool pickles an unregistered graph into the worker
on every request — ``O(n + m)`` bytes copied, deserialized, and
re-validated per solve.  This module removes that copy: a
:class:`SharedArrays` bundle packs any number of named ``numpy`` arrays
into **one** ``multiprocessing.shared_memory`` segment (an 8-byte length
prefix, a JSON header describing dtypes/shapes/offsets, then the raw
array bytes at 64-byte alignment), and any process that knows the segment
*name* attaches and gets back zero-copy views.

:class:`SharedCSR` specializes the bundle for this repo's two graph
payloads — a :class:`~repro.graphs.csr.CSRGraph` (``offsets``/
``neighbors``) or an :class:`~repro.graphs.csr.EdgeList` (``u``/``v``) —
optionally together with the priority array π.  Nothing derived from
``(graph, π)`` is shipped: an engine that needs a priority partition
builds it in the attaching process on first use and memoizes it there
(:mod:`repro.kernels.partition`).

Lifecycle rules (see ``docs/performance.md``):

* the **creating** process owns the segment and must :meth:`unlink` it —
  exactly once, typically from ``SolverService.release_graph`` or an
  ``atexit`` hook;
* **attaching** processes only :meth:`close`; attach suppresses Python's
  ``resource_tracker`` registration (CPython registers on *both* paths,
  and under fork the tracker is shared — a dying worker's tracker would
  otherwise unlink, or unregister, a segment it never owned);
* ``close()`` tolerates exported views (numpy buffers may pin the
  mapping; the OS reclaims it at process exit either way), and
  ``unlink()`` tolerates double calls — cleanup paths can be unconditional;
* every create registers a :func:`weakref.finalize` cleanup so an owner
  that is garbage-collected or exits *without* calling ``unlink()``
  still removes its segment (guarded by creator pid, so a fork-inherited
  copy never unlinks the parent's segment), and records the segment in
  the on-disk ledger (:mod:`repro.backends.ledger`) so the resilience
  reaper can clean up after owners that died without running *anything*
  (SIGKILL, OOM).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
import threading
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.backends.ledger import default_ledger
from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph, EdgeList

__all__ = ["SharedArrays", "SharedCSR"]

_ALIGN = 64  # cache-line alignment for every packed array
_LEN_FMT = "<Q"  # 8-byte little-endian header-length prefix


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


_ATTACH_LOCK = threading.Lock()


def _owner_cleanup(shm: shared_memory.SharedMemory, name: str, pid: int) -> None:
    """Finalizer for owned segments: close, unlink, clear the ledger.

    Runs when the owning :class:`SharedArrays` is garbage-collected, at
    interpreter exit, or explicitly from :meth:`SharedArrays.unlink`
    (``weakref.finalize`` guarantees exactly one of those fires).  The
    pid guard is load-bearing: a forked child inherits the finalizer
    with the parent's object image and must not unlink a segment its
    parent still serves from.
    """
    if os.getpid() != pid:
        return
    try:
        shm.close()
    except BufferError:
        pass  # live views pin the mapping; the name can still be removed
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    default_ledger().forget(name)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    # CPython registers a segment with resource_tracker on the *attach*
    # path too, and under fork the tracker process is shared with the
    # creator — so an attacher must neither keep the registration (its
    # exit would unlink a segment it never owned) nor unregister after
    # the fact (that removes the creator's entry from the shared cache).
    # Suppressing registration for the duration of the attach is the only
    # variant that leaves the creator's bookkeeping intact.
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArrays:
    """A named bundle of numpy arrays in one shared-memory segment.

    Create with :meth:`create` in the owning process, :meth:`attach` by
    name anywhere else.  ``bundle.arrays`` maps each key to a zero-copy
    view (read-only unless attached with ``writable=True``); ``bundle.meta``
    is the JSON-safe metadata dict stored alongside.
    """

    __slots__ = ("name", "meta", "arrays", "owner", "_shm", "_finalizer",
                 "__weakref__")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.name = shm.name
        self.meta = meta
        self.arrays = arrays
        self.owner = owner
        self._finalizer: Optional[weakref.finalize] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
        writable: bool = False,
    ) -> "SharedArrays":
        """Pack *arrays* into a fresh segment; the caller becomes the owner.

        Array values are converted to contiguous ndarrays and copied once
        into the segment.  *meta* must be JSON-serializable.  A random
        ``repro-…`` segment name is generated unless *name* is given.
        Views are read-only unless ``writable=True`` (scratch segments).
        """
        entries: Dict[str, Dict[str, Any]] = {}
        payload: Dict[str, np.ndarray] = {}
        cursor = 0
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value)
            cursor = _aligned(cursor)
            entries[key] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": cursor,
            }
            payload[key] = arr
            cursor += arr.nbytes
        header = json.dumps(
            {"arrays": entries, "meta": meta or {}}, separators=(",", ":")
        ).encode()
        data_start = _aligned(8 + len(header))
        total = max(data_start + cursor, 1)
        shm = shared_memory.SharedMemory(
            create=True,
            size=total,
            name=name or f"repro-{secrets.token_hex(8)}",
        )
        shm.buf[:8] = struct.pack(_LEN_FMT, len(header))
        shm.buf[8:8 + len(header)] = header
        views: Dict[str, np.ndarray] = {}
        for key, arr in payload.items():
            view = np.ndarray(
                arr.shape,
                dtype=arr.dtype,
                buffer=shm.buf,
                offset=data_start + entries[key]["offset"],
            )
            view[...] = arr
            view.setflags(write=writable)
            views[key] = view
        meta = dict(meta or {})
        bundle = cls(shm, meta, views, owner=True)
        # Leak-proofing for graceful-but-sloppy exits: if the owner never
        # calls unlink(), the finalizer runs at GC or interpreter exit.
        # SIGKILL'd owners are covered by the ledger record + reaper.
        bundle._finalizer = weakref.finalize(
            bundle, _owner_cleanup, shm, shm.name, os.getpid()
        )
        default_ledger().record_create(
            shm.name,
            role=meta.get("role") or meta.get("kind") or "bundle",
            fingerprint=meta.get("fingerprint"),
            nbytes=shm.size,
        )
        return bundle

    @classmethod
    def attach(cls, name: str, writable: bool = False) -> "SharedArrays":
        """Attach to an existing segment by name and map its arrays.

        The attachment bypasses ``resource_tracker`` registration so this
        process never unlinks a segment it does not own (see module
        docstring).  Raises :class:`~repro.errors.GraphFormatError` when
        the segment does not carry a valid bundle header.
        """
        shm = _attach_untracked(name)
        try:
            (header_len,) = struct.unpack(_LEN_FMT, bytes(shm.buf[:8]))
            if header_len <= 0 or 8 + header_len > shm.size:
                raise ValueError(f"implausible header length {header_len}")
            header = json.loads(bytes(shm.buf[8:8 + header_len]))
            entries = header["arrays"]
            meta = header.get("meta", {})
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            shm.close()
            raise GraphFormatError(
                f"segment {name!r} does not hold a SharedArrays bundle: {exc}"
            ) from exc
        data_start = _aligned(8 + header_len)
        views: Dict[str, np.ndarray] = {}
        for key, entry in entries.items():
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=shm.buf,
                offset=data_start + entry["offset"],
            )
            view.setflags(write=writable)
            views[key] = view
        default_ledger().record_attach(name)
        return cls(shm, meta, views, owner=False)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (safe with live views; idempotent)."""
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            # numpy views exported from the buffer are still alive; the
            # mapping is reclaimed at process exit instead.
            pass
        if not self.owner:
            default_ledger().forget_attach(self.name)

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; idempotent)."""
        if not self.owner:
            raise GraphFormatError(
                f"refusing to unlink {self.name!r}: this process only "
                "attached to it"
            )
        if self._finalizer is not None:
            # Runs the close+unlink+ledger cleanup exactly once; later
            # calls (and the eventual GC/atexit pass) become no-ops.
            self._finalizer()
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        default_ledger().forget(self.name)

    @property
    def nbytes(self) -> int:
        """Size of the underlying segment in bytes."""
        return self._shm.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        keys = ",".join(self.arrays)
        return f"SharedArrays(name={self.name!r}, arrays=[{keys}])"


def _fingerprint(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for arr in arrays:
        h.update(np.int64(arr.size).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


class SharedCSR:
    """A graph (plus optional π) in shared memory.

    Built with :meth:`create` from a :class:`~repro.graphs.csr.CSRGraph`
    or :class:`~repro.graphs.csr.EdgeList`; reopened anywhere with
    :meth:`attach`.  ``shared.payload`` rebuilds the graph object over
    zero-copy views (cached, so repeated requests against one attachment
    reuse a single object — which is what makes the engine-layer memo
    caches hit).  ``shared.fingerprint`` is a content hash of the
    structural arrays and π, used by the service to verify that a request
    naming a segment refers to the graph the caller registered.
    """

    __slots__ = ("bundle", "_payload")

    def __init__(self, bundle: SharedArrays) -> None:
        if bundle.meta.get("kind") not in ("csr", "edges"):
            raise GraphFormatError(
                f"segment {bundle.name!r} is not a SharedCSR bundle "
                f"(kind={bundle.meta.get('kind')!r})"
            )
        self.bundle = bundle
        self._payload: Optional[Union[CSRGraph, EdgeList]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        payload: Union[CSRGraph, EdgeList],
        ranks: Optional[np.ndarray] = None,
        *,
        name: Optional[str] = None,
    ) -> "SharedCSR":
        """Pack *payload* (and optionally π, as ``int64``) into a segment."""
        arrays: Dict[str, np.ndarray] = {}
        meta: Dict[str, Any]
        if isinstance(payload, CSRGraph):
            arrays["offsets"] = payload.offsets
            arrays["neighbors"] = payload.neighbors
            meta = {
                "kind": "csr",
                "n": payload.num_vertices,
                "m": payload.num_edges,
            }
            structural = (payload.offsets, payload.neighbors)
        elif isinstance(payload, EdgeList):
            arrays["u"] = payload.u
            arrays["v"] = payload.v
            meta = {
                "kind": "edges",
                "n": payload.num_vertices,
                "m": payload.num_edges,
            }
            structural = (payload.u, payload.v)
        else:
            raise TypeError(
                f"payload must be CSRGraph or EdgeList, got {type(payload).__name__}"
            )
        if ranks is not None:
            ranks = np.ascontiguousarray(ranks, dtype=np.int64)
            arrays["ranks"] = ranks
            structural = structural + (ranks,)
        meta["fingerprint"] = _fingerprint(*structural)
        return cls(SharedArrays.create(arrays, meta, name=name))

    @classmethod
    def attach(cls, name: str) -> "SharedCSR":
        """Attach to a graph bundle by segment name (read-only views)."""
        return cls(SharedArrays.attach(name))

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Segment name; the only thing a request needs to send."""
        return self.bundle.name

    @property
    def kind(self) -> str:
        """``"csr"`` (vertex problems) or ``"edges"`` (matching)."""
        return self.bundle.meta["kind"]

    @property
    def fingerprint(self) -> str:
        """Content hash of the structural arrays (and π when present)."""
        return self.bundle.meta["fingerprint"]

    @property
    def num_vertices(self) -> int:
        """Vertex count of the stored graph."""
        return self.bundle.meta["n"]

    @property
    def num_edges(self) -> int:
        """Edge count of the stored graph."""
        return self.bundle.meta["m"]

    @property
    def ranks(self) -> Optional[np.ndarray]:
        """The stored priority array, or ``None``."""
        return self.bundle.arrays.get("ranks")

    @property
    def payload(self) -> Union[CSRGraph, EdgeList]:
        """The graph object over zero-copy views (validated once, cached)."""
        if self._payload is None:
            arrays = self.bundle.arrays
            if self.kind == "csr":
                self._payload = CSRGraph(arrays["offsets"], arrays["neighbors"])
            else:
                self._payload = EdgeList(
                    self.bundle.meta["n"], arrays["u"], arrays["v"]
                )
        return self._payload

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (see :meth:`SharedArrays.close`)."""
        self._payload = None
        self.bundle.close()

    def unlink(self) -> None:
        """Remove the segment (owner only; see :meth:`SharedArrays.unlink`)."""
        self.bundle.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedCSR(name={self.name!r}, kind={self.kind!r}, "
            f"n={self.num_vertices}, m={self.num_edges})"
        )
