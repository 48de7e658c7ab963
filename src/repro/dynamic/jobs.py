"""Worker-side entry point for session mutations.

Mutations are the only session work the service runs in its worker pool
(create is an ordinary solve and restore an array check, both in the
parent), via the generic ``"call"`` job kind pointing at
:func:`mutate_session_state`.  The contract that makes sessions survive
worker kills is **replay from committed state**: it is a pure map from
(state, batch) to (state', stats) — the parent commits ``state'`` only
after a successful reply, so a worker killed mid-mutation is simply
retried with the same committed input and, by determinism of the
maintainers, reproduces the identical result.

Note the scope of that guarantee: it covers *service-side* retries of a
worker that died before replying.  A **client** retry after an
ambiguous outcome — the reply was lost after the parent committed — is
a different transaction and would re-apply the batch; deduplicating
those is the parent's job, via the ``mutation_id`` idempotency window
in :class:`~repro.service.sessions.SessionManager`.  Nothing here needs
to (or could) see the idempotency key: by the time a duplicate reaches
the dedup check it is answered from the recorded outcome and never
ships to a worker at all.

The state crossing the pipe in both directions is the maintainers'
array form (:meth:`~repro.dynamic.incremental.IncrementalMIS.to_state`:
a few flat int64/int8 arrays), so shipping it costs a memory copy rather
than pickling O(m) Python lists, and the summary's ``size`` and ``m``
come from the arrays.

A small per-process cache keyed by ``(epoch, version)`` lets a worker
that already holds the maintainer for the committed version skip the
state rebuild; cache misses rebuild from the shipped state, so the
cache is a pure optimization with no correctness weight (chaos kills
wipe it with the process).  The *epoch* is an opaque token the
:class:`~repro.service.sessions.SessionManager` mints fresh on every
``create``/``restore`` — i.e. per state *timeline*, not per session id.
Keying on it (rather than the session id) means a maintainer cached on
an abandoned timeline — the session was closed and its id reused, or
restored from an older snapshot — can never be popped by a later
mutation whose version happens to line up: the new timeline carries a
new epoch, misses, and rebuilds from the shipped committed state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.dynamic.incremental import IncrementalMatching, IncrementalMIS

__all__ = ["mutate_session_state"]

Maintainer = Union[IncrementalMIS, IncrementalMatching]

#: (epoch, version) → live maintainer for that committed version.
_CACHE: "OrderedDict[Tuple[str, int], Maintainer]" = OrderedDict()
_CACHE_MAX = 8


def _maintainer_from_state(state: Dict[str, Any]) -> Maintainer:
    mis = isinstance(state, dict) and state.get("problem") == "mis"
    return (IncrementalMIS if mis else IncrementalMatching).from_state(state)


def mutate_session_state(
    state: Dict[str, Any],
    insertions: Sequence[Tuple[int, int]] = (),
    deletions: Sequence[Tuple[int, int]] = (),
    epoch: Optional[str] = None,
    version: Optional[int] = None,
    guards: Optional[str] = None,
) -> Dict[str, Any]:
    """Apply one mutation batch to a committed state; return the new state.

    Pure in (state, batch) — shipping ``epoch``/``version`` only enables
    the warm-maintainer cache.  The epoch identifies the committed-state
    *timeline* (fresh per create/restore), so cached maintainers from a
    closed-and-recreated or snapshot-restored session never alias the
    current one.  Any failure evicts the cache entry so a poisoned
    half-applied maintainer can never serve a later version.
    """
    key = (epoch, version) if epoch is not None and version is not None else None
    # Popped (not peeked): if the batch fails mid-apply the maintainer is
    # simply dropped and the next attempt rebuilds from committed state.
    maintainer = _CACHE.pop(key, None) if key is not None else None
    if maintainer is None:
        maintainer = _maintainer_from_state(state)
    stats = maintainer.apply_batch(insertions=insertions, deletions=deletions)
    if guards == "full":
        maintainer.verify()
    out = {
        "state": maintainer.to_state(),
        "dynamic": stats,
        "n": maintainer.n,
        "m": maintainer.m,
        "size": maintainer.size,
    }
    if key is not None:
        _CACHE[(epoch, version + 1)] = maintainer
        _CACHE.move_to_end((epoch, version + 1))
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return out

