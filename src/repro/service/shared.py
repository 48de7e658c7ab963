"""Worker-side registry of attached shared-memory graph bundles.

The request path for a graph registered with
:meth:`~repro.service.SolverService.register_graph` sends only ``{"kind":
"shared", "name": <segment>, "fingerprint": <hash>}`` across the pipe —
no arrays.  The worker resolves the name through this module:
:func:`attach_shared` attaches the segment once per process, verifies the
fingerprint against what the parent registered, and caches the
attachment so every later request for the same graph reuses one zero-copy
:class:`~repro.graphs.csr.CSRGraph` / :class:`~repro.graphs.csr.EdgeList`
object — which is exactly what makes the engine-layer memo caches hit.

The cache is keyed by ``os.getpid()`` so a forked child never trusts
attachments inherited from its parent's address space.  Attachments are
never unlinked here (the parent owns every segment); a worker dying with
open attachments leaks nothing — the kernel drops its mappings, and the
name is removed when the owner unlinks.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.backends.sharedmem import SharedCSR
from repro.errors import GraphFormatError

__all__ = ["attach_shared", "attached_names", "detach_all", "detach_shared"]

# (pid) -> {segment name -> attachment}; pid-keyed so fork never reuses
# a parent's attachments (their views are valid but their lifecycle isn't
# ours to manage twice).
_CACHE: Tuple[int, Dict[str, SharedCSR]] = (-1, {})


def _attachments() -> Dict[str, SharedCSR]:
    global _CACHE
    pid = os.getpid()
    if _CACHE[0] != pid:
        _CACHE = (pid, {})
    return _CACHE[1]


def attach_shared(name: str, fingerprint: str = None) -> SharedCSR:
    """Attach (or reuse) the named graph bundle.

    Verifies *fingerprint* (when given) against the bundle's stored
    content hash — a mismatch means the name was recycled or the request
    is stale, and raises :class:`~repro.errors.GraphFormatError` (a
    non-retryable input error: every retry would fail identically).
    """
    cache = _attachments()
    shared = cache.get(name)
    if shared is None:
        shared = SharedCSR.attach(name)
        cache[name] = shared
    if fingerprint is not None and shared.fingerprint != fingerprint:
        cache.pop(name, None)
        shared.close()
        raise GraphFormatError(
            f"shared segment {name!r} fingerprint mismatch: "
            f"request expects {fingerprint}, segment holds {shared.fingerprint} "
            "(was the graph released and the name recycled?)"
        )
    return shared


def detach_shared(name: str) -> bool:
    """Drop this process's attachment to *name* (returns whether it existed)."""
    shared = _attachments().pop(name, None)
    if shared is None:
        return False
    shared.close()
    return True


def detach_all() -> int:
    """Drop every attachment in this process; returns how many were open."""
    cache = _attachments()
    count = len(cache)
    for shared in cache.values():
        shared.close()
    cache.clear()
    return count


def attached_names() -> Tuple[str, ...]:
    """Names currently attached in this process (diagnostics / tests)."""
    return tuple(_attachments())
