"""Durable session snapshots: atomic, checksummed files, one per session.

The service keeps the authoritative session state in memory and commits
a new state after every successful mutation; this store persists those
states so sessions survive full process restarts, not just worker
respawns.  Writes follow the same temp-file + ``os.replace`` discipline
as the bench checkpoint machinery: a crash mid-write leaves the previous
snapshot intact, never a torn file.

On disk (format 2, what :meth:`SnapshotStore.save` writes) a snapshot
file ``<session_id>.json`` is one line of JSON followed by raw bytes:

* line 1 is the envelope ``{"format":2,"sha256":…,"snapshot":…}``, in
  which every numpy array of the snapshot is replaced by a descriptor
  ``{"__array__": [index, dtype, shape]}``;
* after the newline come the arrays' raw bytes, in index order.

Only fixed-width integer and bool arrays are stored.  The SHA-256 covers
the canonical (sorted-key, compact) header JSON followed by the array
bytes; with no arrays that is :func:`snapshot_checksum`, the digest of
format 1 — a single JSON envelope whose state holds lists — which
:meth:`SnapshotStore.load` still reads.  Files are never pickled: a
pickle could run code when loaded, and ``repro recover`` could not
inspect it.

Between snapshots a session appends one record per committed mutation
to ``<session_id>.log`` (:meth:`SnapshotStore.append`), fsync'd before
the mutation is acknowledged.  A record is one line
``{"record":…,"sha256":…}`` whose digest covers the canonical JSON of
the record; the session layer's records are ``{version, mutation_id,
insertions, deletions, outcome}``.  :meth:`SnapshotStore.save` drops the
log once the snapshot that supersedes it is in place, and
:meth:`SnapshotStore.load_log` returns the records past a snapshot's
version.  A final line without its newline is an append torn by a
crash, never acknowledged, and is dropped.

Two durability hazards remain even with atomic replacement, and both
are handled here rather than left to callers:

* **Stray temp files** — a process killed between ``mkstemp`` and
  ``os.replace`` leaks its temp file.  The store sweeps ``*.tmp``
  debris on construction (:attr:`SnapshotStore.tmp_swept`), and the
  resilience reaper reports the same sweep on its timer.
* **Corruption** — a load that fails to parse, fails the checksum, or
  names an array the tail does not hold (a dtype other than a
  fixed-width integer or bool, a shape the bytes do not fill), and a
  log with a complete record that fails its checksum or does not
  continue the versions before it, renames the file to a ``.corrupt``
  quarantine (``<id>.json.corrupt``, ``<id>.log.corrupt``) and raises the typed
  :class:`~repro.errors.SnapshotCorruptError` — never a raw
  ``json.JSONDecodeError`` or ``ValueError`` — so the exit-code/status
  taxonomy holds, retries cannot re-read the poison, and
  ``repro recover`` can inspect what was quarantined.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError, SnapshotCorruptError

__all__ = ["SnapshotStore", "snapshot_checksum"]

PathLike = Union[str, os.PathLike]

#: Key of the header object that stands in for one stored array.
_ARRAY = "__array__"
#: dtype kinds a snapshot array may have: signed, unsigned, bool.
_ARRAY_KINDS = "iub"


def _canonical(obj: Any, default=None) -> bytes:
    return json.dumps(
        obj, separators=(",", ":"), sort_keys=True, default=default
    ).encode("utf-8")


def snapshot_checksum(snapshot: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON encoding of *snapshot*.

    Canonical means sorted keys and compact separators, so the digest is
    a pure function of content, not of dict ordering.  This is the whole
    digest of a snapshot without arrays (every format-1 file); format 2
    continues the same hash over the array bytes.
    """
    return hashlib.sha256(_canonical(snapshot)).hexdigest()


def _encode(snapshot: Dict[str, object]) -> Tuple[bytes, List[np.ndarray]]:
    """Canonical header JSON of *snapshot* and its arrays in index order."""
    arrays: List[np.ndarray] = []

    def describe(obj: Any) -> Dict[str, list]:
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if obj.dtype.kind not in _ARRAY_KINDS:
            raise TypeError(
                f"snapshot arrays must hold fixed-width integers or bools, got {obj.dtype}"
            )
        arrays.append(np.ascontiguousarray(obj).reshape(-1).view(np.uint8))
        return {_ARRAY: [len(arrays) - 1, obj.dtype.str, list(obj.shape)]}

    return _canonical(snapshot, describe), arrays


def _array_slots(node: Any, slots: List[Tuple[Any, Any, Any]]) -> List[Tuple[Any, Any, Any]]:
    """``(container, key, descriptor)`` for every array descriptor under *node*."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, dict) and len(value) == 1 and _ARRAY in value:
            slots.append((node, key, value[_ARRAY]))
        elif isinstance(value, (dict, list)):
            _array_slots(value, slots)
    return slots


def _attach_arrays(header: Dict[str, Any], tail: bytes) -> None:
    """Replace the descriptors in *header* by the arrays *tail* holds.

    Raises ``ValueError`` for a malformed descriptor, a dtype other than
    a fixed-width integer or bool, or a tail whose length is not exactly
    the arrays' total size.
    """
    slots = _array_slots(header, [])
    specs: Dict[int, Tuple[np.dtype, Tuple[int, ...]]] = {}
    for _, _, desc in slots:
        if not (isinstance(desc, list) and len(desc) == 3):
            raise ValueError(f"malformed array descriptor {desc!r}")
        index, dtype, shape = desc
        if (
            type(index) is not int or index in specs
            or not isinstance(dtype, str)
            or not isinstance(shape, list)
            or any(type(d) is not int or d < 0 for d in shape)
        ):
            raise ValueError(f"malformed array descriptor {desc!r}")
        try:
            dt = np.dtype(dtype)
        except TypeError:
            raise ValueError(f"unknown array dtype {dtype!r}") from None
        if dt.kind not in _ARRAY_KINDS:
            raise ValueError(f"array dtype {dtype!r} is not a fixed-width integer or bool")
        specs[index] = (dt, tuple(shape))
    if sorted(specs) != list(range(len(specs))):
        raise ValueError(f"array indices {sorted(specs)} are not 0..{len(specs) - 1}")
    arrays = []
    offset = 0
    for index in range(len(specs)):
        dt, shape = specs[index]
        count = math.prod(shape)
        end = offset + count * dt.itemsize
        if end > len(tail):
            raise ValueError(f"array bytes end at {len(tail)}, the header needs {end}")
        arrays.append(np.frombuffer(tail, dtype=dt, count=count, offset=offset).reshape(shape))
        offset = end
    if offset != len(tail):
        raise ValueError(f"{len(tail) - offset} array bytes beyond what the header names")
    for container, key, desc in slots:
        container[key] = arrays[desc[0]].copy()


class SnapshotStore:
    """Directory of ``<session_id>.json`` snapshot files and
    ``<session_id>.log`` mutation logs.

    Session ids are restricted to ``[A-Za-z0-9_.-]`` so an id can never
    escape the store directory.  :meth:`save` writes format 2 (a JSON
    envelope line, then raw array bytes); :meth:`load` reads formats 1
    and 2 and verifies the digest before handing the payload back, with
    its arrays as writable numpy arrays.  :meth:`append` and
    :meth:`load_log` write and read the log.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        #: ``*.tmp`` files left by writers killed mid-save, removed now.
        self.tmp_swept = self._sweep_tmp()
        #: Snapshots this instance quarantined (renamed ``.corrupt``).
        self.quarantined = 0

    def _sweep_tmp(self) -> int:
        swept = 0
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - root vanished
            return 0
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    swept += 1
                except OSError:  # pragma: no cover - raced another sweep
                    pass
        return swept

    def _path(self, session_id: str, suffix: str = ".json") -> str:
        if not session_id or not all(
            c.isalnum() or c in "_.-" for c in session_id
        ):
            raise ReproError(f"invalid session id {session_id!r}")
        return os.path.join(self.root, f"{session_id}{suffix}")

    def save(self, session_id: str, snapshot: Dict[str, object]) -> str:
        """Atomically persist *snapshot*, then drop the session's log;
        returns the file path.

        The snapshot is JSON-encoded once; its arrays (fixed-width
        integer or bool only) are written as raw bytes after it.  The
        log goes only once the snapshot is in place: a crash in between
        leaves records at or below the snapshot's version, which
        :meth:`load_log` skips.
        """
        path = self._path(session_id)
        head, arrays = _encode(snapshot)
        digest = hashlib.sha256(head)
        for blob in arrays:
            digest.update(blob)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                # The canonical encoding of the envelope: its keys sort as
                # format < sha256 < snapshot.
                fh.write(b'{"format":2,"sha256":"%s","snapshot":'
                         % digest.hexdigest().encode("ascii"))
                fh.write(head)
                fh.write(b"}\n")
                for blob in arrays:
                    fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        try:
            os.unlink(self._path(session_id, ".log"))
        except FileNotFoundError:
            pass
        return path

    def append(self, session_id: str, record: Dict[str, object]) -> None:
        """Append one checksummed *record* to the session's log and fsync it.

        A write that fails part-way is cut back off, so the next record
        never lands behind a torn one.
        """
        body = _canonical(record)
        line = b'{"record":%s,"sha256":"%s"}\n' % (
            body, hashlib.sha256(body).hexdigest().encode("ascii"))
        fd = os.open(self._path(session_id, ".log"), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            start = os.fstat(fd).st_size
            try:
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            except BaseException:
                try:
                    os.ftruncate(fd, start)
                except OSError:  # pragma: no cover - the error below says enough
                    pass
                raise
        finally:
            os.close(fd)

    def load_log(self, session_id: str, after: int) -> List[Dict[str, object]]:
        """The log records past version *after*, oldest first.

        Records at or below *after* were folded into the snapshot already
        and are skipped.  A final line without its newline is a torn
        append and is dropped.  A complete line that fails to parse or
        its checksum, or a version that does not continue the one before
        it (or *after*), renames the log to ``<id>.log.corrupt`` and
        raises :class:`~repro.errors.SnapshotCorruptError`.
        """
        path = self._path(session_id, ".log")
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return []
        lines.pop()  # b"" after the last newline, else a torn append
        records: List[Dict[str, object]] = []
        for lineno, line in enumerate(lines, 1):
            try:
                envelope = json.loads(line)
                record = envelope["record"]
                digest = hashlib.sha256(_canonical(record)).hexdigest()
                ok = digest == envelope["sha256"] and type(record["version"]) is int
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                raise self._quarantine(path, f"record {lineno} fails its checksum", "log")
            if records and record["version"] != records[-1]["version"] + 1:
                raise self._quarantine(
                    path, f"record {lineno} is version {record['version']}, "
                    f"after {records[-1]['version']}", "log")
            records.append(record)
        records = [r for r in records if r["version"] > after]
        if records and records[0]["version"] != after + 1:
            raise self._quarantine(
                path, f"records start at version {records[0]['version']}, "
                f"the snapshot is version {after}", "log")
        return records

    def _quarantine(self, path: str, why: str, what: str = "snapshot") -> "SnapshotCorruptError":
        """Rename *path* out of the way and build the typed error."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
            self.quarantined += 1
            where = f"; quarantined as {os.path.basename(target)!r}"
        except OSError:  # pragma: no cover - raced / read-only dir
            where = "; quarantine rename failed"
        return SnapshotCorruptError(
            f"corrupt session {what} {path!r}: {why}{where}"
        )

    def load(self, session_id: str) -> Optional[Dict[str, object]]:
        """Read a snapshot back, or ``None`` if absent.

        A file that fails to parse, fails its embedded checksum, or
        names arrays its tail does not hold is renamed to
        ``<file>.corrupt`` and raises
        :class:`~repro.errors.SnapshotCorruptError`.
        """
        path = self._path(session_id)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - unreadable file
            raise SnapshotCorruptError(
                f"unreadable session snapshot {path!r}: {exc}"
            ) from exc
        line, _, tail = raw.partition(b"\n")
        try:
            envelope = json.loads(line)
        except ValueError:
            # A format-1 file is one JSON document, possibly indented.
            try:
                envelope = json.loads(raw)
            except ValueError as exc:
                raise self._quarantine(path, f"not valid JSON ({exc})") from exc
            tail = b""
        if (
            not isinstance(envelope, dict)
            or not isinstance(envelope.get("snapshot"), dict)
            or not isinstance(envelope.get("sha256"), str)
        ):
            raise self._quarantine(path, "missing checksum envelope")
        fmt = envelope.get("format", 1)
        if fmt not in (1, 2):
            raise self._quarantine(path, f"unknown snapshot format {fmt!r}")
        if fmt == 1 and tail.strip():
            raise self._quarantine(path, "bytes after a format-1 envelope")
        snapshot = envelope["snapshot"]
        digest = hashlib.sha256(_canonical(snapshot))
        if fmt == 2:
            digest.update(tail)
        if digest.hexdigest() != envelope["sha256"]:
            raise self._quarantine(
                path,
                f"checksum mismatch (recorded {envelope['sha256'][:12]}…, "
                f"recomputed {digest.hexdigest()[:12]}…)",
            )
        if fmt == 2:
            try:
                _attach_arrays(snapshot, tail)
            except ValueError as exc:
                raise self._quarantine(path, f"bad array section ({exc})") from exc
        return snapshot

    def delete(self, session_id: str) -> bool:
        """Remove a snapshot and its log; ``True`` if a snapshot existed.

        The snapshot goes first: a crash in between leaves a log that no
        restore reads, never a snapshot without its newer records.
        """
        try:
            os.unlink(self._path(session_id))
            existed = True
        except FileNotFoundError:
            existed = False
        try:
            os.unlink(self._path(session_id, ".log"))
        except FileNotFoundError:
            pass
        return existed

    def list_ids(self) -> List[str]:
        """Session ids with a persisted snapshot (sorted)."""
        out = []
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                out.append(name[: -len(".json")])
        return sorted(out)

    def corrupt_files(self) -> List[str]:
        """Quarantined snapshot and log filenames in the store (sorted)."""
        try:
            names = os.listdir(self.root)
        except OSError:  # pragma: no cover - root vanished
            return []
        return sorted(n for n in names if n.endswith(".corrupt"))

    def sweep_corrupt(self) -> List[str]:
        """Delete quarantined files; returns the names removed.

        Quarantine is held for inspection by default — the reaper only
        *reports* counts unless its sweep runs with purging enabled.
        ``repro recover`` lists the files and performs this sweep with
        ``--purge``.
        """
        removed = []
        for name in self.corrupt_files():
            try:
                os.unlink(os.path.join(self.root, name))
                removed.append(name)
            except OSError:  # pragma: no cover - raced another sweep
                pass
        return removed
