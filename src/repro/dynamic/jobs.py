"""Worker-side entry points for session mutations.

Mutations are the only session work the service runs in its worker pool
(create is an ordinary solve and restore an array check, both in the
parent), via the generic ``"call"`` job kind pointing at
:func:`apply_session_batch`.  The job ships the batch, not the state:
``(epoch, version, insertions, deletions, guards)``.

* A worker that holds the maintainer of committed version ``version``
  applies the batch and replies with the per-batch stats, the counters
  and the flipped items with their new values (``last_flips``).  The
  parent commits the batch and those flips onto the
  :class:`~repro.dynamic.incremental.StateOverlay` over its committed
  arrays, so neither the state nor a snapshot of it crosses the pipe.
* A worker without that maintainer (respawned, or its cache evicted it)
  replies ``{"state_needed": True}``; the parent re-sends the job once
  with the committed state, and the worker rebuilds from it.

The contract that makes sessions survive worker kills is still **replay
from committed state**: the parent commits only after a successful
reply, so a worker killed mid-mutation takes its half-applied maintainer
with it, and the retried job either finds the committed version cached
elsewhere or asks for the state.  By determinism of the maintainers the
result is bit-identical either way.

Note the scope of that guarantee: it covers *service-side* retries of a
worker that died before replying.  A **client** retry after an
ambiguous outcome — the reply was lost after the parent committed — is
a different transaction and would re-apply the batch; deduplicating
those is the parent's job, via the ``mutation_id`` idempotency window
in :class:`~repro.service.sessions.SessionManager`.  Nothing here needs
to (or could) see the idempotency key: by the time a duplicate reaches
the dedup check it is answered from the recorded outcome and never
ships to a worker at all.

The per-process cache is keyed by ``(epoch, version)``.  The *epoch* is
an opaque token the :class:`~repro.service.sessions.SessionManager`
mints fresh on every ``create``/``restore`` — i.e. per state
*timeline*, not per session id — and again whenever a worker may hold a
version the parent did not commit.  Keying on it means a maintainer
cached on an abandoned timeline — the session was closed and its id
reused, or restored from an older snapshot — can never be popped by a
later mutation whose version happens to line up: the new timeline
carries a new epoch, misses, and asks for the committed state.

:func:`mutate_session_state` is the same apply with the state in and
out, for in-process callers that hold the state themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.dynamic.incremental import IncrementalMatching, IncrementalMIS
from repro.errors import InvalidGraphError

__all__ = ["apply_session_batch", "mutate_session_state"]

Maintainer = Union[IncrementalMIS, IncrementalMatching]

#: (epoch, version) → live maintainer for that committed version.
_CACHE: "OrderedDict[Tuple[str, int], Maintainer]" = OrderedDict()
_CACHE_MAX = 8


def _maintainer_from_state(state: Dict[str, Any]) -> Maintainer:
    mis = isinstance(state, dict) and state.get("problem") == "mis"
    return (IncrementalMIS if mis else IncrementalMatching).from_state(state)


def _cache_put(key: Tuple[str, int], maintainer: Maintainer) -> None:
    _CACHE[key] = maintainer
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)


def _apply(
    state: Optional[Dict[str, Any]],
    insertions: Sequence[Tuple[int, int]],
    deletions: Sequence[Tuple[int, int]],
    epoch: Optional[str],
    version: Optional[int],
    guards: Optional[str],
) -> Optional[Tuple[Maintainer, Dict[str, Any]]]:
    """Apply one batch to the maintainer of ``(epoch, version)``: the cached
    one, else one rebuilt from *state*; ``None`` when neither exists.

    The cached maintainer is popped: if the batch fails mid-apply it is
    dropped, so a half-applied maintainer never serves a later version.
    A rejected batch changes nothing, so that maintainer goes back.
    """
    key = (epoch, version) if epoch is not None and version is not None else None
    maintainer = _CACHE.pop(key, None) if key is not None else None
    if maintainer is None:
        if state is None:
            return None
        maintainer = _maintainer_from_state(state)
    try:
        stats = maintainer.apply_batch(insertions=insertions, deletions=deletions)
    except InvalidGraphError:
        if key is not None:
            _cache_put(key, maintainer)
        raise
    if guards == "full":
        maintainer.verify()
    if key is not None:
        _cache_put((epoch, version + 1), maintainer)
    return maintainer, stats


def apply_session_batch(
    epoch: str,
    version: int,
    insertions: Sequence[Tuple[int, int]] = (),
    deletions: Sequence[Tuple[int, int]] = (),
    guards: Optional[str] = None,
    state: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Apply one batch to committed version *version* of timeline *epoch*.

    Replies ``{"dynamic", "counters", "flips"}``: the batch's stats, the
    cumulative counters and the maintainer's ``last_flips``.  Under
    ``guards="full"`` the maintainer re-checks its fixpoint and the reply
    also carries its ``to_state()``, for the parent to compare with its
    own arrays.  Without a cached maintainer and without *state* the
    reply is ``{"state_needed": True}``.
    """
    applied = _apply(state, insertions, deletions, epoch, version, guards)
    if applied is None:
        return {"state_needed": True}
    maintainer, stats = applied
    reply = {
        "dynamic": stats,
        "counters": maintainer.counters.aux(),
        "flips": maintainer.last_flips,
    }
    if guards == "full":
        reply["state"] = maintainer.to_state()
    return reply


def mutate_session_state(
    state: Dict[str, Any],
    insertions: Sequence[Tuple[int, int]] = (),
    deletions: Sequence[Tuple[int, int]] = (),
    epoch: Optional[str] = None,
    version: Optional[int] = None,
    guards: Optional[str] = None,
) -> Dict[str, Any]:
    """Apply one mutation batch to a committed state; return the new state.

    Pure in (state, batch): the apply of :func:`apply_session_batch`,
    returning ``{"state", "dynamic", "n", "m", "size"}``.  Shipping
    ``epoch``/``version`` only enables the warm-maintainer cache.
    """
    maintainer, stats = _apply(state, insertions, deletions, epoch, version, guards)
    return {
        "state": maintainer.to_state(),
        "dynamic": stats,
        "n": maintainer.n,
        "m": maintainer.m,
        "size": maintainer.size,
    }
