"""Robustness layer: fault injection, invariant guards, budgets, validation.

The determinism the paper proves is only as good as the state it runs on.
This package makes the reproduction *defensible* at runtime:

* :mod:`repro.robustness.faults` — seeded chaos injection into the
  frontier kernels and input arrays, to prove corruption is detected.
* :mod:`repro.robustness.guards` — per-round invariant checks
  (``off|cheap|full``) raising
  :class:`~repro.errors.InvariantViolationError`.
* :mod:`repro.robustness.budget` — wall-clock / step budgets raising
  :class:`~repro.errors.BudgetExceededError`.
* :mod:`repro.robustness.validate` — front-door input validation shared
  by the MIS and matching APIs.

See ``docs/robustness.md`` for the taxonomy and usage patterns.
"""

from repro.robustness.budget import Budget
from repro.robustness.faults import (
    FAULT_KINDS,
    GRAPH_FAULTS,
    KERNEL_FAULTS,
    RANK_FAULTS,
    ChaosInjector,
    FaultSpec,
    corrupt_graph,
    corrupt_ranks,
    kernel_faults_for,
)
from repro.robustness.guards import (
    GUARD_MODES,
    MatchingInvariantGuard,
    MISInvariantGuard,
    matching_guard,
    mis_guard,
    resolve_guard_mode,
)
from repro.robustness.validate import (
    check_csr_graph,
    check_csr_symmetric,
    check_edge_list,
    check_ranks,
)

__all__ = [
    "Budget",
    "FAULT_KINDS",
    "KERNEL_FAULTS",
    "RANK_FAULTS",
    "GRAPH_FAULTS",
    "FaultSpec",
    "ChaosInjector",
    "kernel_faults_for",
    "corrupt_ranks",
    "corrupt_graph",
    "GUARD_MODES",
    "resolve_guard_mode",
    "MISInvariantGuard",
    "MatchingInvariantGuard",
    "mis_guard",
    "matching_guard",
    "check_ranks",
    "check_csr_graph",
    "check_csr_symmetric",
    "check_edge_list",
]
