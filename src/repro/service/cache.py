"""Content-addressed result cache for the solver service.

The paper's determinism guarantee — greedy MIS/MM output is a pure
function of ``(graph, π)`` plus the engine knobs that pick the schedule
— is what makes caching *safe* here: any replica, any retry, any cache
hit returns the bit-identical answer, so a cached entry can stand in for
a fresh solve even while the backend is degraded ("serve stale").

:func:`request_key` derives the address from **content, not identity**:
a sha1 over the graph's structural arrays, a digest of π (or the seed it
will be drawn from), the problem/method pair, and the canonicalized
engine knobs.  The graph digest is recomputed from the live arrays on
every lookup — deliberately.  A shared-memory segment mutated behind the
service's back therefore hashes to a *different* key and can never be
served a stale solution for the bytes it used to hold (the
``cache_poison_guard`` chaos axis attacks exactly this).

:class:`ResultCache` is a thread-safe LRU with optional TTL and a
"stale" escape hatch: :meth:`ResultCache.get` honors the TTL,
:meth:`ResultCache.get_stale` ignores it (used only on degraded paths,
where a deterministic stale answer beats a 503).  Counters (hits,
misses, evictions, expirations, stale serves) feed
:class:`~repro.service.stats.ServiceStats` and the gateway's
``/v1/metrics``.

A request is **uncacheable** when its ordering is not pinned down by
content: no explicit π and no ``seed`` knob means the front door draws
fresh OS entropy, so two executions legitimately differ.
:func:`request_key` returns ``None`` for those and the service simply
solves through.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CacheEntry", "ResultCache", "content_digest", "key_graph_digest",
    "request_key",
]


def content_digest(*arrays: np.ndarray) -> str:
    """sha1 over the sizes + bytes of *arrays* (order-sensitive)."""
    h = hashlib.sha1()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _payload_digest(payload) -> str:
    """Content hash of a graph payload's structural arrays.

    Always recomputed from the arrays the request would actually solve
    over — for a shared-memory graph these are the live segment views,
    so in-place mutation changes the digest and the poisoned bytes can
    never alias a cached entry.
    """
    # Duck-typed on the two payload shapes so this module needs no
    # graphs import (layering: service → graphs is fine, but the digest
    # must also accept zero-copy views that rebuilt payloads wrap).
    if hasattr(payload, "offsets"):
        return content_digest(payload.offsets, payload.neighbors)
    if hasattr(payload, "u"):
        return content_digest(
            np.int64([payload.num_vertices]), payload.u, payload.v
        )
    raise TypeError(
        f"cannot digest payload of type {type(payload).__name__}"
    )


def request_key(
    problem: str,
    payload,
    ranks,
    method: str,
    guards: Optional[str],
    options: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """The content address for one solve, or ``None`` when uncacheable.

    The key binds everything that can change the answer: problem,
    engine, guard mode (guards never change the *answer*, but a guarded
    run can fail where an unguarded one returns — keeping them distinct
    is the conservative choice), the graph bytes, π (or the seed that
    determines it), and the engine knobs.  Knobs that only change *how*
    the identical answer is computed still key separately; a false miss
    costs one solve, a false hit could serve a wrong answer.
    """
    options = options or {}
    if ranks is not None:
        ranks_part = "pi:" + content_digest(np.asarray(ranks))
    elif options.get("seed") is not None:
        ranks_part = f"seed:{options['seed']}"
    else:
        return None  # fresh entropy per call — never cache
    knobs = {k: v for k, v in sorted(options.items()) if k != "seed"}
    knob_part = json.dumps(knobs, sort_keys=True, default=str)
    return "|".join([
        problem,
        method,
        guards or "off",
        _payload_digest(payload),
        ranks_part,
        knob_part,
    ])


def key_graph_digest(key: str) -> str:
    """The graph digest a :func:`request_key` address carries.

    Lets a caller that keeps state per graph content (the gateway's
    encoded edge arrays) key it without hashing the payload again.
    Only the knob part, which comes last, can hold a ``|``.
    """
    return key.split("|", 4)[3]


class CacheEntry:
    """One cached solution plus its bookkeeping."""

    __slots__ = ("value", "stored_at", "hits")

    def __init__(self, value: Any, stored_at: float) -> None:
        self.value = value
        self.stored_at = stored_at
        self.hits = 0


class ResultCache:
    """Thread-safe content-addressed LRU + TTL cache of solve results.

    Parameters
    ----------
    max_entries:
        LRU bound; inserting past it evicts the least-recently-used
        entry.
    ttl_s:
        Optional freshness window.  :meth:`get` treats entries older
        than this as misses (they stay resident for :meth:`get_stale`
        until LRU pressure evicts them); ``None`` means entries never
        expire.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_entries: int = 128,
        ttl_s: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.max_entries = int(max_entries)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.stale_served = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _fresh(self, entry: CacheEntry) -> bool:
        return (
            self.ttl_s is None
            or self._clock() - entry.stored_at <= self.ttl_s
        )

    def get(self, key: Optional[str]) -> Optional[Any]:
        """Fresh lookup: LRU-touches and returns the value, else ``None``.

        An expired entry counts as a miss (and an expiration) but stays
        resident so a degraded path can still :meth:`get_stale` it.
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if not self._fresh(entry):
                self.misses += 1
                self.expirations += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry.value

    def get_stale(self, key: Optional[str]) -> Optional[Any]:
        """Degraded-path lookup: ignores the TTL (determinism makes a
        stale entry identical to a fresh solve for immutable content)."""
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stale_served += 1
            return entry.value

    def put(self, key: Optional[str], value: Any) -> bool:
        """Insert/refresh one entry; returns whether anything was stored."""
        if key is None:
            return False
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = CacheEntry(value, self._clock())
                return True
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = CacheEntry(value, self._clock())
            return True

    def invalidate(self, key: str) -> bool:
        """Drop one entry (returns whether it existed)."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (counters keep running)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Counters + occupancy, JSON-ready (feeds ``/v1/metrics``)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "stale_served": self.stale_served,
            }

    def keys(self) -> Tuple[str, ...]:
        """Resident keys, LRU-oldest first (tests and warmup audits)."""
        with self._lock:
            return tuple(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
