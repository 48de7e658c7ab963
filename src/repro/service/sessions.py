"""Stateful graph sessions on top of the crash-isolated service.

A *session* is a long-lived incremental MIS/matching maintainer
(:mod:`repro.dynamic.incremental`) served through the
:class:`~repro.service.SolverService` worker pool.  The parent holds the
**committed state** of the last successful version as a
:class:`~repro.dynamic.incremental.StateOverlay`: the ``to_state()``
arrays of its last fold, plus the batches committed since.  Create is
one ordinary solve and restore one array check, both in the parent;
mutations run inside a worker via the generic ``"call"`` job kind
pointing at :mod:`repro.dynamic.jobs`.  That split is what makes
sessions survive worker crashes:

1. A mutation ships the batch, not the state: ``(epoch, version,
   insertions, deletions, guards)``.  The worker that holds the
   maintainer of the committed version applies it and replies with the
   flipped items; a worker without it replies ``state_needed`` and the
   job is re-sent once with the committed state.
2. The parent commits the batch and its flips onto the overlay **only
   on success**, in O(batch + flips): ``m`` and ``size`` follow as
   counters, and no array is copied.  A commit that raises leaves the
   overlay as it was.  The overlay is folded into fresh arrays only
   where edge arrays are read: an MM :meth:`SessionManager.result`,
   :meth:`SessionManager.snapshot`, a full snapshot write, a
   ``state_needed`` re-send, and under ``guards="full"``, where the
   reply also carries the worker's ``to_state()`` and the next arrays
   must equal it.
3. A worker killed mid-mutation (chaos, OOM, hang) is simply retried by
   the service's normal retry machinery with the *same* committed
   version; the maintainers are deterministic, so the replayed attempt
   reproduces the bit-identical result.  Half-applied state can never
   be observed because it never leaves the dead worker.

Queries (:meth:`SessionManager.result`) build the answer from the
committed arrays in-parent
(:meth:`~repro.dynamic.incremental.StateOverlay.result`, no maintainer
rebuild; an MIS answer reads the status, so only MM folds) and hand back
fresh copies — they cannot corrupt anything and need no isolation.

With a :class:`~repro.dynamic.store.SnapshotStore` attached, sessions
also survive full service restarts via :meth:`SessionManager.restore`.
Each committed mutation appends one checksummed record ``{version,
mutation_id, insertions, deletions, outcome}`` to the session's log,
fsync'd before the call returns.  A full snapshot (the arrays as raw
bytes under a checksummed JSON header), which drops the log, is written
at create, restore and close, and in place of the record that would make
the log longer than :data:`DEDUP_WINDOW`; so a restore replays at most
that many batches, through the same worker path and onto the same
overlay, folded once at the end, and checks each against its logged
outcome.  Replay is exact because greedy MIS/MM is a pure function of
(graph, π), and so are the maintainers.
:meth:`SessionManager.snapshot` returns the portable JSON-safe form
(arrays as lists); :meth:`SessionManager.restore` takes either form.

Worker-crash retries are safe because the *service* retries from the
same committed input — but a **client** retry after an ambiguous outcome
(the response was lost after the commit landed) would re-apply the
batch.  Two per-mutation knobs close that gap:

* ``mutation_id`` — a client-chosen idempotency key.  Each record keeps
  a bounded, persisted window of applied ids (:data:`DEDUP_WINDOW`; the
  snapshot holds it and the log's records extend it); a duplicate
  replays the *recorded outcome* (summary + version) without touching a
  worker, so retrying until a definite answer arrives is exactly-once.
* ``if_version`` — a compare-and-swap precondition.  If the committed
  version has moved, the mutation fails with the typed
  :class:`~repro.errors.VersionConflictError` (HTTP ``409``), turning
  lost-update races between concurrent clients into detectable errors.

The front doors are :class:`~repro.service.SolverService`'s delegating
methods (``create_session`` …), the gateway's ``/v1/sessions`` routes,
and the ``repro session`` CLI subcommand.
"""

from __future__ import annotations

import copy
import itertools
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.options import SolveOptions, resolve_options
from repro.dynamic.incremental import (
    StateOverlay,
    apply_flips,
    check_state,
    initial_state,
    result_from_state,
)
from repro.errors import (
    InvalidGraphError,
    InvariantViolationError,
    UnknownSessionError,
    VersionConflictError,
)
from repro.graphs.builders import from_edges
from repro.graphs.csr import EdgeList
from repro.service.config import SolveRequest

__all__ = ["DEDUP_WINDOW", "SessionInfo", "SessionManager"]

_PROBLEMS = ("mis", "matching")

#: Applied mutation ids remembered per session for idempotent replay.
#: Bounds both memory and snapshot size; a client retrying one ambiguous
#: mutation needs a window of exactly 1, so 128 leaves two orders of
#: magnitude of slack for pipelined writers before an evicted id could
#: make a very late duplicate re-apply.  Also the most records a
#: session's log holds before a full snapshot replaces it.
DEDUP_WINDOW = 128

#: Registry placeholder: the id is claimed by an in-flight create/restore
#: whose solve has not committed yet.  Holding the slot
#: under the registry lock closes the check-then-commit race where two
#: concurrent create() calls with the same explicit id both pass the
#: duplicate check and the later commit silently overwrites the earlier
#: session.
_RESERVED = object()


def _same_state(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(value, b[key]) if isinstance(value, np.ndarray) else value == b[key]
        for key, value in a.items()
    )


def _remember(
    window: "OrderedDict[str, Dict[str, Any]]", mutation_id: str, outcome: Dict[str, Any]
) -> None:
    """Add an applied id to a dedup window, evicting the oldest past
    :data:`DEDUP_WINDOW`."""
    window[mutation_id] = dict(outcome)
    window.move_to_end(mutation_id)
    while len(window) > DEDUP_WINDOW:
        window.popitem(last=False)


def _normalize_batch(edges: Sequence[Any], label: str) -> List[Tuple[int, int]]:
    """Coerce one mutation batch into ``[(int, int), ...]``."""
    out: List[Tuple[int, int]] = []
    for item in edges or ():
        try:
            u, v = item
            out.append((int(u), int(v)))
        except (TypeError, ValueError):
            raise InvalidGraphError(
                f"{label} must be (u, v) pairs, got {item!r}"
            ) from None
    return out


@dataclass
class SessionInfo:
    """Public, JSON-safe description of one live session."""

    session_id: str
    problem: str
    version: int
    n: int
    m: int
    size: int
    dynamic: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "problem": self.problem,
            "version": self.version,
            "n": self.n,
            "m": self.m,
            "size": self.size,
            "dynamic": self.dynamic,
        }


@dataclass
class _SessionRecord:
    """Parent-side committed state of one session."""

    session_id: str
    problem: str
    #: The committed version: base arrays plus the batches since the
    #: last fold.
    overlay: StateOverlay
    version: int
    n: int
    guards: Optional[str]
    dynamic: Dict[str, Any]
    #: Opaque timeline token, minted fresh on every create/restore (and
    #: when a worker may hold a version the parent did not commit) and
    #: shipped with mutations so the worker-side warm-maintainer cache
    #: (:mod:`repro.dynamic.jobs`) can never serve a maintainer from an
    #: abandoned timeline (closed-and-recreated id, older snapshot).
    epoch: str = ""
    #: mutation_id → recorded outcome, oldest first; bounded by
    #: :data:`DEDUP_WINDOW` and persisted with every snapshot and log
    #: record so exactly-once survives full restarts, not just worker
    #: respawns.
    applied: "OrderedDict[str, Dict[str, Any]]" = field(
        default_factory=OrderedDict
    )
    #: Records in the store's log since the last full snapshot.
    logged: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def state(self) -> Dict[str, Any]:
        """The committed state's arrays, the overlay folded in."""
        return self.overlay.fold()

    def info(self) -> SessionInfo:
        return SessionInfo(
            self.session_id, self.problem, self.version,
            self.n, self.overlay.m, self.overlay.size, dict(self.dynamic),
        )


class SessionManager:
    """Session registry + lifecycle for one :class:`SolverService`.

    Mutations on one session serialize on its per-record lock (versions
    are a linear history); distinct sessions mutate concurrently through
    the shared worker pool.
    """

    def __init__(self, service, store=None) -> None:
        self._service = service
        self._store = store
        # id → _SessionRecord, or the _RESERVED placeholder while an
        # initial create/restore worker call is in flight.
        self._sessions: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count()
        # Lifetime counters surfaced by health() and /v1/metrics.
        self.mutations_applied = 0
        self.idempotent_replays = 0
        self.version_conflicts = 0

    # -- helpers -----------------------------------------------------------

    def _record(self, session_id: str) -> _SessionRecord:
        with self._lock:
            record = self._sessions.get(session_id)
        if not isinstance(record, _SessionRecord):  # absent or _RESERVED
            raise UnknownSessionError(
                f"no live session {session_id!r}"
                + (" (restore_session can revive a persisted snapshot)"
                   if self._store is not None else "")
            )
        return record

    def _call(
        self,
        func: str,
        kwargs: Dict[str, Any],
        timeout_s: Optional[float],
    ) -> Dict[str, Any]:
        return self._solve("call", {
            "module": "repro.dynamic.jobs",
            "func": func,
            "kwargs": kwargs,
        }, None, None, timeout_s)

    def _solve(
        self, problem: str, payload: Any, ranks: Any,
        guards: Optional[str], timeout_s: Optional[float],
    ) -> Any:
        return self._service.solve(SolveRequest(
            problem, payload, ranks, guards=guards, timeout_seconds=timeout_s,
        ))

    def _advance(
        self,
        epoch: str,
        version: int,
        overlay: StateOverlay,
        ins: Sequence[Tuple[int, int]],
        dels: Sequence[Tuple[int, int]],
        guards: Optional[str],
        timeout_s: Optional[float],
    ) -> Tuple[StateOverlay, Dict[str, Any]]:
        """One batch through a worker: the next committed state and the
        batch's stats.

        Ships the batch alone, and the committed state (folded) only when
        the worker answers ``state_needed``.  The batch and its flips are
        committed onto *overlay*, O(batch + flips); under
        ``guards="full"`` the next arrays are built, compared with the
        worker's and returned in a new overlay instead.  On any failure
        *overlay* still holds *version*: a fold changes no version, and
        a commit that raises changes nothing.
        """
        kwargs = {"epoch": epoch, "version": version, "insertions": ins,
                  "deletions": dels, "guards": guards}
        reply = self._call("apply_session_batch", kwargs, timeout_s)
        if reply.get("state_needed"):
            reply = self._call("apply_session_batch", dict(kwargs, state=overlay.fold()), timeout_s)
        if "state" not in reply:
            overlay.commit(ins, dels, reply["flips"], reply["counters"])
            return overlay, reply["dynamic"]
        new = apply_flips(overlay.fold(), ins, dels, reply["flips"])
        new["counters"] = reply["counters"]
        if not _same_state(new, reply["state"]):
            raise InvariantViolationError(
                f"version {version + 1} of a {new['problem']} session: the "
                "committed arrays differ from the worker maintainer's state"
            )
        return StateOverlay(new), reply["dynamic"]

    def _persist(self, record: _SessionRecord) -> None:
        """Write a full snapshot of the committed version; the store drops
        the log it supersedes."""
        if self._store is None:
            return
        self._store.save(record.session_id, {
            "session_id": record.session_id,
            "problem": record.problem,
            "version": record.version,
            "guards": record.guards,
            "state": record.state,
            "dynamic": record.dynamic,
            "applied": [[mid, out] for mid, out in record.applied.items()],
        })
        record.logged = 0

    def _log(
        self,
        record: _SessionRecord,
        ins: Sequence[Tuple[int, int]],
        dels: Sequence[Tuple[int, int]],
        mutation_id: Optional[str],
        outcome: Dict[str, Any],
    ) -> None:
        """Make one committed mutation durable: a log record, or a full
        snapshot once the log holds :data:`DEDUP_WINDOW` records."""
        if self._store is None:
            return
        if record.logged >= DEDUP_WINDOW:
            self._persist(record)
            return
        try:
            self._store.append(record.session_id, {
                "version": record.version,
                "mutation_id": mutation_id,
                "insertions": ins,
                "deletions": dels,
                "outcome": outcome,
            })
        except BaseException:
            # The log may now lack this version: the next commit writes
            # a full snapshot instead of a record.
            record.logged = DEDUP_WINDOW
            raise
        record.logged += 1

    @staticmethod
    def _applied_window(raw: Any) -> "OrderedDict[str, Dict[str, Any]]":
        """Rebuild a dedup window from its snapshot form (list of pairs)."""
        window: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        if isinstance(raw, list):
            for item in raw:
                if (
                    isinstance(item, (list, tuple)) and len(item) == 2
                    and isinstance(item[0], str) and isinstance(item[1], dict)
                ):
                    window[item[0]] = item[1]
        while len(window) > DEDUP_WINDOW:
            window.popitem(last=False)
        return window

    def _commit(
        self,
        session_id: str,
        overlay: StateOverlay,
        version: int,
        guards: Optional[str],
        applied: Optional["OrderedDict[str, Dict[str, Any]]"] = None,
        epoch: Optional[str] = None,
    ) -> _SessionRecord:
        state = overlay.fold()
        record = _SessionRecord(
            session_id=session_id,
            problem=state["problem"],
            overlay=overlay,
            version=version,
            n=state["n"],
            guards=guards,
            dynamic=copy.deepcopy(state["counters"]),
            # A commit here is always a timeline boundary (create or
            # restore), so the epoch is fresh: minted here, or by the
            # restore whose log replay warmed a worker under it.
            epoch=epoch or uuid.uuid4().hex,
            applied=applied if applied is not None else OrderedDict(),
            # Until this timeline's first snapshot lands, a commit writes
            # a snapshot, never a record behind another timeline's log.
            logged=DEDUP_WINDOW,
        )
        # A mutate that finds the record waits for its first snapshot: the
        # fold and the write never race a commit onto the overlay.
        with record.lock:
            with self._lock:
                self._sessions[session_id] = record
            self._persist(record)
        return record

    def _reserve(self, session_id: str, *, verb: str) -> None:
        """Claim *session_id* in the registry before the solve."""
        with self._lock:
            existing = self._sessions.get(session_id)
            if isinstance(existing, _SessionRecord):
                raise InvalidGraphError(
                    f"session {session_id!r} already exists"
                    + ("; close it before restoring" if verb == "restore" else "")
                )
            if existing is _RESERVED:
                raise InvalidGraphError(
                    f"session {session_id!r} is already being created"
                )
            self._sessions[session_id] = _RESERVED

    def _release(self, session_id: str) -> None:
        """Drop a reservation whose solve failed."""
        with self._lock:
            if self._sessions.get(session_id) is _RESERVED:
                del self._sessions[session_id]

    # -- lifecycle ---------------------------------------------------------

    def create(
        self,
        problem: str,
        payload: Any,
        ranks: Any = None,
        *,
        seed: Optional[int] = None,
        guards: Optional[str] = None,
        session_id: Optional[str] = None,
        timeout_s: Optional[float] = None,
        options: Optional["SolveOptions"] = None,
    ) -> SessionInfo:
        """Initial solve: version 0 of a new session.

        ``payload`` is a :class:`~repro.graphs.csr.CSRGraph` for
        ``"mis"`` and a graph or edge list for ``"matching"`` — the same
        shapes the stateless front doors take; the answer is one ordinary
        solve (:func:`~repro.dynamic.incremental.initial_state`).
        ``options`` accepts the unified
        :class:`~repro.core.options.SolveOptions` record (its
        ``seed``/``guards`` fields are the knobs a session consumes);
        the ``seed=``/``guards=`` keywords remain as the legacy shim and
        may not be mixed with it.
        """
        resolved = resolve_options(options, {"seed": seed, "guards": guards})
        seed, guards = resolved.seed, resolved.guards
        if problem == "mm":
            problem = "matching"
        if problem not in _PROBLEMS:
            raise InvalidGraphError(
                f"session problem must be one of {_PROBLEMS}, got {problem!r}"
            )
        if session_id is None:
            session_id = f"s{next(self._counter)}-{uuid.uuid4().hex[:12]}"
        if ranks is not None:
            ranks = np.asarray(ranks)
        self._reserve(session_id, verb="create")
        try:
            state = initial_state(
                problem, payload, ranks, seed=seed,
                solve=lambda kind, graph, pi: self._solve(kind, graph, pi, guards, timeout_s),
            )
        except BaseException:
            self._release(session_id)
            raise
        return self._commit(session_id, StateOverlay(state), 0, guards).info()

    def mutate(
        self,
        session_id: str,
        insertions: Sequence[Any] = (),
        deletions: Sequence[Any] = (),
        *,
        timeout_s: Optional[float] = None,
        mutation_id: Optional[str] = None,
        if_version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Apply one edge-mutation batch; returns the batch stats.

        Commits only on a successful worker reply, so a crashed attempt
        is retried from the same committed version and the session can
        never be observed half-mutated.  With a store, the call returns
        once the batch's log record is fsync'd.

        ``mutation_id`` makes the call idempotent: an id already in the
        session's dedup window replays the recorded outcome (flagged
        ``idempotent_replay``) without invoking a worker, so clients may
        retry ambiguous outcomes safely.  ``if_version`` is a
        compare-and-swap precondition against the committed version;
        on mismatch the batch is *not* applied and
        :class:`~repro.errors.VersionConflictError` is raised.  The
        duplicate check runs first: a retried duplicate still carrying
        its original ``if_version`` replays instead of conflicting.
        """
        if mutation_id is not None:
            if not isinstance(mutation_id, str) or not mutation_id:
                raise InvalidGraphError(
                    f"mutation_id must be a non-empty string, "
                    f"got {mutation_id!r}"
                )
            if len(mutation_id) > 200:
                raise InvalidGraphError(
                    "mutation_id must be at most 200 characters"
                )
        if if_version is not None:
            try:
                if_version = int(if_version)
            except (TypeError, ValueError):
                raise InvalidGraphError(
                    f"if_version must be an integer, got {if_version!r}"
                ) from None
            if if_version < 0:
                raise InvalidGraphError("if_version must be >= 0")
        ins = _normalize_batch(insertions, "insertions")
        dels = _normalize_batch(deletions, "deletions")
        record = self._record(session_id)
        with record.lock:
            with self._lock:
                closed = self._sessions.get(session_id) is not record
            if closed:  # by a close() that ran while this call waited
                raise UnknownSessionError(f"no live session {session_id!r}")
            if mutation_id is not None and mutation_id in record.applied:
                outcome = record.applied[mutation_id]
                # Refresh recency so a hot retried id is evicted last.
                record.applied.move_to_end(mutation_id)
                with self._lock:
                    self.idempotent_replays += 1
                return dict(outcome, idempotent_replay=True)
            if if_version is not None and if_version != record.version:
                with self._lock:
                    self.version_conflicts += 1
                raise VersionConflictError(
                    f"session {session_id!r} is at version {record.version}, "
                    f"mutation requires if_version={if_version}; re-read the "
                    f"current state before deciding to retry"
                )
            try:
                overlay, dynamic = self._advance(
                    record.epoch, record.version, record.overlay, ins, dels,
                    record.guards, timeout_s,
                )
            except InvalidGraphError:
                raise  # rejected before any change: the worker still holds this version
            except BaseException:
                # A worker may now hold a version this timeline never
                # commits; no later mutation may find it.
                record.epoch = uuid.uuid4().hex
                raise
            record.overlay = overlay
            record.version += 1
            record.dynamic = dynamic
            outcome = dict(dynamic, version=record.version, size=overlay.size, m=overlay.m)
            if mutation_id is not None:
                # Record the outcome *before* persisting so the log record
                # that makes this version durable also makes it
                # replayable — the two can never diverge across a crash.
                _remember(record.applied, mutation_id, outcome)
            with self._lock:
                self.mutations_applied += 1
            self._log(record, ins, dels, mutation_id, outcome)
            return outcome

    def result(self, session_id: str, *, with_version: bool = False):
        """The full result object for the committed version.

        Built from the committed arrays by
        :meth:`~repro.dynamic.incremental.StateOverlay.result`
        (deterministic, no worker round-trip, no maintainer rebuild; an
        MIS answer is O(n), with no edge fold); every call returns fresh
        arrays, so no caller aliases the
        committed state or another caller's result.  With
        ``with_version=True`` returns ``(result, version)`` read under
        the record lock, so callers that echo the version alongside the
        payload (the gateway) cannot pair a result with the version of a
        concurrent later mutation.
        """
        record = self._record(session_id)
        with record.lock:
            result = record.overlay.result()
            return (result, record.version) if with_version else result

    def info(self, session_id: str) -> SessionInfo:
        return self._record(session_id).info()

    def snapshot(self, session_id: str) -> Dict[str, Any]:
        """A portable, JSON-safe snapshot of the committed version.

        The state's arrays come back as lists (``tolist()``) and the rest
        is deep-copied, so callers can ``json.dump`` or mutate it freely;
        feed it back through :meth:`restore` (possibly on a different
        service) to revive the session.
        """
        record = self._record(session_id)
        with record.lock:
            return {
                "session_id": record.session_id,
                "problem": record.problem,
                "version": record.version,
                "guards": record.guards,
                "state": {
                    key: value.tolist() if isinstance(value, np.ndarray)
                    else copy.deepcopy(value)
                    for key, value in record.state.items()
                },
                "dynamic": copy.deepcopy(record.dynamic),
                "applied": [
                    [mid, copy.deepcopy(out)]
                    for mid, out in record.applied.items()
                ],
            }

    def restore(
        self,
        snapshot: Optional[Dict[str, Any]] = None,
        *,
        session_id: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> SessionInfo:
        """Revive a session from a snapshot (or the persistent store).

        The snapshot's state may hold arrays (the store's format) or
        lists (:meth:`snapshot`'s portable form).  It is checked here
        (:func:`~repro.dynamic.incremental.check_state`), so a corrupt
        snapshot fails loudly instead of poisoning later mutations.  From
        the store, the log records past the snapshot's version are then
        replayed through the worker path; each must reproduce its logged
        outcome (else :class:`~repro.errors.InvariantViolationError`), and
        their mutation ids rejoin the dedup window.  With
        ``guards="full"`` the resulting graph is also re-solved through
        the service and must give the same status.  The array form is
        committed, as a full snapshot that drops the log.

        Refuses to replace a *live* session (``InvalidGraphError``):
        silently swapping the timeline under a concurrent mutation would
        let that mutation re-persist old-timeline state over the
        restored snapshot.  Close the session first.
        """
        log: List[Dict[str, Any]] = []
        if snapshot is None:
            if self._store is None:
                raise UnknownSessionError(
                    "restore needs a snapshot (no session_dir configured)"
                )
            if session_id is None:
                raise UnknownSessionError(
                    "restore from the store needs a session_id"
                )
            snapshot = self._store.load(session_id)
            if snapshot is None:
                raise UnknownSessionError(
                    f"no persisted snapshot for session {session_id!r}"
                )
            log = self._store.load_log(session_id, int(snapshot.get("version", 0)))
        if not isinstance(snapshot, dict) or "state" not in snapshot:
            raise InvalidGraphError(
                "session snapshot must be a dict holding 'state'"
            )
        sid = session_id or snapshot.get("session_id")
        if not sid:
            raise UnknownSessionError("snapshot names no session_id")
        guards = snapshot.get("guards")
        overlay = StateOverlay(check_state(snapshot["state"]))
        version = int(snapshot.get("version", 0))
        applied = self._applied_window(snapshot.get("applied"))
        epoch = uuid.uuid4().hex
        self._reserve(sid, verb="restore")
        try:
            for entry in log:
                overlay, dynamic = self._advance(
                    epoch, version, overlay, entry["insertions"], entry["deletions"],
                    guards, timeout_s,
                )
                version += 1
                outcome = dict(dynamic, version=version, size=overlay.size, m=overlay.m)
                if outcome != entry["outcome"]:
                    raise InvariantViolationError(
                        f"replaying version {version} of session {sid!r} gave "
                        f"{outcome}; its log recorded {entry['outcome']}"
                    )
                if entry.get("mutation_id") is not None:
                    _remember(applied, entry["mutation_id"], outcome)
            if guards == "full":
                state = overlay.fold()
                kept = result_from_state(state)
                u, v = state["edges"][:, 0], state["edges"][:, 1]
                mis = state["problem"] == "mis"
                graph = from_edges(state["n"], u, v) if mis else EdgeList(state["n"], u, v)
                fresh = self._solve(state["problem"], graph, kept.ranks, guards, timeout_s)
                if not np.array_equal(fresh.status, kept.status):
                    raise InvariantViolationError(
                        f"snapshot of session {sid!r} is not the greedy "
                        "answer of its own graph and order"
                    )
        except BaseException:
            self._release(sid)
            raise
        return self._commit(sid, overlay, version, guards, applied=applied, epoch=epoch).info()

    def close(self, session_id: str, *, delete_snapshot: bool = False) -> SessionInfo:
        """Drop a session; optionally also its persisted snapshot and log.

        Otherwise a session whose log holds records is folded into a full
        snapshot first.
        """
        with self._lock:
            record = self._sessions.get(session_id)
            if isinstance(record, _SessionRecord):
                del self._sessions[session_id]
            else:
                # Absent, or a _RESERVED placeholder an in-flight
                # create/restore still needs — leave the reservation.
                record = None
        if record is None:
            raise UnknownSessionError(f"no live session {session_id!r}")
        if self._store is not None:
            with record.lock:  # an in-flight mutate finishes its commit first
                if delete_snapshot:
                    self._store.delete(session_id)
                elif record.logged:
                    self._persist(record)
        return record.info()

    def list(self) -> List[SessionInfo]:
        """Infos for every live session (sorted by id)."""
        with self._lock:
            records = sorted(
                (r for r in self._sessions.values()
                 if isinstance(r, _SessionRecord)),
                key=lambda r: r.session_id,
            )
        return [r.info() for r in records]

    def counters(self) -> Dict[str, int]:
        """Lifetime session counters for health() and /v1/metrics."""
        with self._lock:
            live = sum(
                1 for r in self._sessions.values()
                if isinstance(r, _SessionRecord)
            )
            return {
                "live_sessions": live,
                "mutations_applied": self.mutations_applied,
                "idempotent_replays": self.idempotent_replays,
                "version_conflicts": self.version_conflicts,
            }
