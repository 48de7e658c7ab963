"""Perf counters around the :mod:`repro.kernels.frontier` primitives.

:class:`KernelCounters` is a context manager that wraps each frontier
kernel with a thin recorder — call count, elements processed, cumulative
wall time — and patches the wrapper into the kernel's definition site
*and* every module that imported the kernel by name
(:data:`repro.kernels.PATCH_MODULES`, the list
:class:`repro.robustness.faults.ChaosInjector` patches too; a
``from ... import frontier_gather`` binds the name locally, so patching
only ``repro.kernels.frontier`` would miss the engines).

Element counts come from the size of each kernel's natural input: the
frontier for the gathers and cursor advances, the candidate/values array
for dedup, decrement and segment-min.  The wrappers cost one clock pair
and a dict update per call — negligible next to the kernels themselves,
but this is an opt-in measurement tool, not an always-on path.

Example
-------
>>> from repro.observability import KernelCounters
>>> from repro.graphs.generators import cycle_graph
>>> from repro.core.mis import maximal_independent_set
>>> with KernelCounters() as kc:
...     _ = maximal_independent_set(cycle_graph(64), seed=0, method="rootset-vec")
>>> kc.counters["frontier_gather"].calls > 0
True
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernels import PATCH_MODULES
from repro.util.tables import format_table

__all__ = ["KernelCounter", "KernelCounters", "KERNEL_NAMES"]

#: Wrapped kernels and the positional index of the argument whose length
#: is "elements processed" for that kernel.
_ELEMENT_ARG: Dict[str, int] = {
    "scatter_distinct": 0,   # values
    "frontier_gather": 2,    # frontier
    "range_gather": 3,       # frontier
    "stamp_dedup": 0,        # candidates
    "decrement_counts": 1,   # targets
    "advance_cursors": 5,    # frontier
    "sorted_segment_min": 1, # values
    "scatter_min": 2,        # values
}

#: Names of the wrapped frontier kernels.
KERNEL_NAMES: Tuple[str, ...] = tuple(_ELEMENT_ARG)


@dataclass
class KernelCounter:
    """Running totals for one kernel."""

    calls: int = 0
    elements: int = 0
    seconds: float = 0.0


class KernelCounters:
    """Context manager recording per-kernel call/element/time totals.

    Not reentrant: entering an already-active instance raises.  Nesting
    two *different* instances works (each layer unwraps to what it saw),
    but the inner one then measures the outer one's wrappers; prefer one
    at a time.
    """

    def __init__(
        self,
        kernels: Optional[Sequence[str]] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        names = tuple(kernels) if kernels is not None else KERNEL_NAMES
        unknown = [n for n in names if n not in _ELEMENT_ARG]
        if unknown:
            raise ValueError(
                f"unknown kernel(s) {unknown}; expected a subset of {KERNEL_NAMES}"
            )
        self._names = names
        self._clock = clock
        self.counters: Dict[str, KernelCounter] = {n: KernelCounter() for n in names}
        self._saved: List[Tuple[object, str, Callable]] = []
        self._active = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = self.counters[name]
        elem_arg = _ELEMENT_ARG[name]
        clock = self._clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter.seconds += clock() - start
                counter.calls += 1
                if elem_arg < len(args):
                    arg = args[elem_arg]
                    counter.elements += int(getattr(arg, "size", 0) or 0)

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "KernelCounters":
        if self._active:
            raise RuntimeError("KernelCounters is not reentrant")
        kernels_mod = importlib.import_module("repro.kernels.frontier")
        wrappers = {
            name: self._wrap(name, getattr(kernels_mod, name))
            for name in self._names
        }
        # Engine modules are imported here, not at module import, so this
        # module stays below the core layer.
        for mod_name in PATCH_MODULES:
            module = importlib.import_module(mod_name)
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    self._saved.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._active = False

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict copy of the totals (JSON-serializable)."""
        return {
            name: {"calls": c.calls, "elements": c.elements, "seconds": c.seconds}
            for name, c in self.counters.items()
        }

    @property
    def total_calls(self) -> int:
        return sum(c.calls for c in self.counters.values())

    @property
    def total_elements(self) -> int:
        return sum(c.elements for c in self.counters.values())

    def format(self) -> str:
        """Fixed-width table of the non-zero counters (all, if none fired)."""
        rows = [
            [name, c.calls, c.elements, f"{c.seconds * 1e3:.3f}"]
            for name, c in self.counters.items()
            if c.calls > 0
        ] or [
            [name, 0, 0, "0.000"] for name in self._names
        ]
        return format_table(["kernel", "calls", "elements", "ms"], rows)
