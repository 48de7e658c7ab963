"""Priorities π: the random total orders at the heart of the paper.

Two equivalent encodings appear throughout:

*permutation* ``perm``
    ``perm[i]`` is the item processed *i*-th (position → item).
*ranks* (priorities) ``ranks``
    ``ranks[x]`` is the position of item ``x`` in the order (item →
    position); **smaller rank = earlier = higher priority**.

Engines consume *ranks* because the inner kernels compare priorities of
neighbors; the harness and the sequential loops use *perm*.  The two are
mutual inverses, converted by the helpers below.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import InvalidOrderingError
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require

__all__ = [
    "random_priorities",
    "identity_priorities",
    "ranks_from_permutation",
    "permutation_from_ranks",
    "validate_priorities",
    "scatter_by_priority",
    "parallel_random_priorities",
]


def random_priorities(n: int, seed: SeedLike = None) -> np.ndarray:
    """Uniformly random ranks on *n* items.

    This is the paper's random ordering assumption: "for a random ordering
    of the vertices, the dependence length ... is polylogarithmic".
    """
    if n < 0:
        raise InvalidOrderingError(f"cannot order a negative number of items: {n}")
    rng = as_generator(seed)
    return ranks_from_permutation(rng.permutation(n).astype(np.int64, copy=False))


def identity_priorities(n: int) -> np.ndarray:
    """Ranks equal to item ids — the adversarial/worst-case ordering.

    With this order on e.g. a path graph the greedy dependence chain is
    Θ(n); tests use it to confirm the polylog bound really is a property
    of *random* orders.
    """
    if n < 0:
        raise InvalidOrderingError(f"cannot order a negative number of items: {n}")
    return np.arange(n, dtype=np.int64)


def ranks_from_permutation(perm: np.ndarray) -> np.ndarray:
    """Invert a position→item permutation into item→rank priorities.

    >>> ranks_from_permutation(np.array([2, 0, 1]))
    array([1, 2, 0])
    """
    perm = np.asarray(perm, dtype=np.int64)
    require(perm.ndim == 1, "permutation must be 1-D", InvalidOrderingError)
    n = perm.size
    ranks = np.empty(n, dtype=np.int64)
    ranks[perm] = np.arange(n, dtype=np.int64)
    return ranks


def permutation_from_ranks(ranks: np.ndarray) -> np.ndarray:
    """Invert item→rank priorities into the position→item permutation.

    Inversion is an involution, so this is the same operation as
    :func:`ranks_from_permutation`; the two names keep call sites readable.
    """
    return ranks_from_permutation(ranks)


def parallel_random_priorities(n: int, seed: SeedLike = None, machine=None) -> np.ndarray:
    """Random ranks generated the way a parallel implementation would.

    A sequential Knuth shuffle is inherently serial; parallel codes (PBBS
    included) instead draw one random key per item and sort — linear work
    via the bucket sort on random keys, ``O(log n)`` depth.  This function
    reproduces that construction and charges its cost when *machine* is
    given, so end-to-end traces can include order generation.

    The resulting distribution is uniform over permutations (keys are
    drawn from a domain large enough that ties are broken by a second
    draw, vanishingly rarely needed).
    """
    if n < 0:
        raise InvalidOrderingError(f"cannot order a negative number of items: {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rng = as_generator(seed)
    # Keys from a domain quadratically larger than n make collisions rare
    # (expected < 1/n); redraw colliding keys until distinct.
    domain = max(n * n, 16)
    keys = rng.integers(0, domain, size=n, dtype=np.int64)
    for _ in range(64):
        uniq, counts = np.unique(keys, return_counts=True)
        if uniq.size == n:
            break
        dup_keys = uniq[counts > 1]
        clash = np.isin(keys, dup_keys)
        keys[clash] = rng.integers(0, domain, size=int(clash.sum()), dtype=np.int64)
    else:  # pragma: no cover - probability ~ domain^-64
        raise RuntimeError("failed to draw distinct keys")
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    if machine is not None:
        from repro.pram.machine import log2_depth

        machine.charge(2 * n, log2_depth(n), tag="gen-priorities")
    return ranks


def validate_priorities(ranks: object, n: int) -> np.ndarray:
    """Check that *ranks* is a permutation of ``0..n-1``; return as int64.

    The package's one priority check (also exported as
    :func:`repro.robustness.validate.check_ranks`); an engine that lays
    items out in π order checks with :func:`scatter_by_priority` instead,
    which runs the same checks inside that scatter.  Every engine checks
    a caller's π once at its public boundary, and none it draws from a
    seed; the front doors rely on that, so a solve checks π once.  O(n)
    and sort-free: a
    range check, then one scatter into a seen-mask.  Raises
    :class:`~repro.errors.InvalidOrderingError` for a wrong shape or
    length, NaN entries, a non-integer dtype, out-of-range entries, or a
    duplicated rank (the smallest one, counted with ``np.bincount``).
    """
    ranks = _checked_int_ranks(ranks, n)
    if n:
        seen = np.zeros(n, dtype=bool)
        seen[ranks] = True
        if not seen.all():
            # n in-range entries leave a rank unseen only if another repeats.
            _raise_duplicate(ranks, n)
    return ranks


def scatter_by_priority(
    ranks: object, n: int, values: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Check *ranks* as :func:`validate_priorities` does, in the scatter
    that lays *values* out in π order.

    Returns ``(ranks, laid)``: *ranks* as int64, and ``laid`` with
    ``laid[ranks[i]] = values[i]``.  *values* are n non-negative int64s,
    the item ids when omitted (``laid`` is then the permutation, as
    :func:`permutation_from_ranks` gives it).  The scatter writes into a
    −1-filled array, so after n in-range writes a slot still −1 means a
    rank repeats: the seen-mask pass of :func:`validate_priorities` is
    not needed.  Raises what :func:`validate_priorities` raises, with
    the same messages.
    """
    ranks = _checked_int_ranks(ranks, n)
    if values is None:
        values = np.arange(n, dtype=np.int64)
    laid = np.full(n, -1, dtype=np.int64)
    laid[ranks] = values
    if n and int(laid.min()) < 0:
        _raise_duplicate(ranks, n)
    return ranks, laid


def _checked_int_ranks(ranks: object, n: int) -> np.ndarray:
    """Shape, dtype and range checks of a π; return it as contiguous int64."""
    ranks = np.asarray(ranks)
    if ranks.ndim != 1 or ranks.size != n:
        raise InvalidOrderingError(
            f"priorities must be a 1-D array of length {n} (one priority "
            f"per item), got shape {ranks.shape}"
        )
    if ranks.size and not np.issubdtype(ranks.dtype, np.integer):
        if np.issubdtype(ranks.dtype, np.floating) and np.isnan(ranks).any():
            raise InvalidOrderingError(
                f"priorities contain NaN; they must be a permutation of "
                f"0..{n - 1}"
            )
        raise InvalidOrderingError(f"priorities must be integers, got dtype {ranks.dtype}")
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    if n:
        lo, hi = int(ranks.min()), int(ranks.max())
        if lo < 0 or hi >= n:
            raise InvalidOrderingError(
                f"priorities must lie in [0, {n}), found [{lo}, {hi}]"
            )
    return ranks


def _raise_duplicate(ranks: np.ndarray, n: int) -> None:
    """Raise for the smallest repeated rank of an in-range π."""
    counts = np.bincount(ranks, minlength=n)
    dup = int(np.flatnonzero(counts > 1)[0])
    raise InvalidOrderingError(
        f"priorities are not a permutation: rank {dup} appears "
        f"{int(counts[dup])} times"
    )
