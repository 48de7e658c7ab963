"""Per-engine circuit breaker: closed → open → half-open → closed.

One :class:`CircuitBreaker` guards one ``(problem, method)`` pair in the
service.  Consecutive engine errors (not worker deaths: those say nothing
about the engine) trip the breaker **open**; while open, the scheduler
routes requests to the next engine in the registry's degradation chain
instead.  After ``reset_seconds`` the breaker admits exactly one probe
(**half-open**): a success closes it, a failure re-opens it for another
full window, and a probe that ends without a verdict on the engine (its
worker died or hung, it overran its deadline or budget, or its input was
invalid) is released.

The clock is injectable so tests can march a breaker through its state
machine deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip the breaker open.
    reset_seconds:
        Open-state cool-down before a half-open probe is admitted.
    clock:
        Injectable monotonic time source.

    Examples
    --------
    >>> b = CircuitBreaker(threshold=2, reset_seconds=10, clock=lambda: 0.0)
    >>> b.record_failure(); b.record_failure()
    False
    True
    >>> b.state
    'open'
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_seconds: float = 5.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if not reset_seconds > 0:
            raise ValueError(f"reset_seconds must be positive, got {reset_seconds}")
        self.threshold = threshold
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float = 0.0
        self._open = False
        self._probing = False
        self.trips = 0  #: total times the breaker has tripped open

    # -- state -------------------------------------------------------------

    def _cooled(self) -> bool:
        return self._clock() - self._opened_at >= self.reset_seconds

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` right now."""
        with self._lock:
            if not self._open:
                return "closed"
            return "half-open" if self._cooled() else "open"

    def allow(self) -> bool:
        """Whether a request may be routed through this engine now.

        In half-open state only a single probe is admitted at a time;
        callers that got ``True`` must report the outcome via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if not self._open:
                return True
            if not self._cooled() or self._probing:
                return False
            self._probing = True
            return True

    # -- outcomes ----------------------------------------------------------

    def record_success(self) -> None:
        """A routed request succeeded: close and reset the breaker."""
        with self._lock:
            self._failures = 0
            self._open = False
            self._probing = False

    def record_failure(self) -> bool:
        """A routed request failed; returns True when this trips the breaker."""
        with self._lock:
            self._failures += 1
            if self._probing or self._failures >= self.threshold:
                tripped = (not self._open) or self._probing
                self._open = True
                self._probing = False
                self._opened_at = self._clock()
                if tripped:
                    self.trips += 1
                return tripped
            return False

    def release(self) -> None:
        """A routed request ended without a verdict: free the probe slot."""
        with self._lock:
            self._probing = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self._failures}, "
            f"trips={self.trips})"
        )
