"""Array helpers shared by every layer.

On numpy 2.x a bare ``np.unique(x)`` (no ``return_*`` keyword) takes a
hash-table path that is far slower than sorting on integer keys: 1.07 s
against 0.017 s on 10⁶ random int64 keys (2-core Intel Xeon, numpy
2.4.6).  :func:`sorted_unique` is the sort-based form; ``src/`` calls it
instead of ``np.unique`` and a test scan keeps it that way.  (``np.unique`` with ``return_index``,
``return_inverse`` or ``return_counts`` still sorts, so those calls stay.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct values of *values*, as ``np.unique(values)`` returns.

    Flattens like ``np.unique``, sorts a copy, then keeps the first element
    of each run of equal values.  Values, order and dtype match
    ``np.unique`` for integer and boolean input (every caller in the
    package passes ids or keys); NaNs, unlike in ``np.unique``, are not
    merged into one.

    >>> sorted_unique(np.array([3, 1, 3, -2])).tolist()
    [-2, 1, 3]
    """
    out = np.sort(np.asarray(values), axis=None)
    if out.size < 2:
        return out
    first = np.empty(out.size, dtype=bool)
    first[0] = True
    np.not_equal(out[1:], out[:-1], out=first[1:])
    return out[first]
