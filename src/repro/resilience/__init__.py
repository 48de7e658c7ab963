"""Resilience layer: supervision, leak reaping, chaos.

PR 6 made the parallelism real — shard processes, shared-memory
segments, a subprocess worker pool — and every one of those is a new
way to fail *partially*: a killed owner leaks its segment until reboot,
and a wedged worker stalls its queue slot.  This package supervises the
whole stack:

========================  ==================================================
:mod:`~repro.resilience.health`        one :class:`HealthReport` spanning
                                       pool workers, shard pools, breakers,
                                       queue, and segment inventory
                                       (surfaced as ``SolverService.health()``
                                       and ``repro health``)
:mod:`~repro.resilience.reaper`        detects and unlinks shared-memory
                                       segments orphaned by killed owners,
                                       using the on-disk ledger
                                       (:mod:`repro.backends.ledger`)
:mod:`~repro.resilience.supervisor`    background thread running periodic
                                       health probes and reap sweeps
:mod:`~repro.resilience.chaos`         declarative :class:`ChaosScenario`
                                       records and the one runner that
                                       executes them across kernels →
                                       engines → backends → service
========================  ==================================================

Layering: ``resilience`` sits on top of the service tier — it may import
``service``, ``backends``, ``core``, and ``robustness``, and nothing
below the bench/CLI layer imports it (the service reaches it only
through lazy calls in ``health()``/``start()``).
"""

from repro.resilience.chaos import (
    SCENARIOS,
    SEEDED_COUNTS,
    TIMING_COUNTS,
    ChaosScenario,
    ScenarioOutcome,
    run_scenario,
    scenario_by_name,
)
from repro.resilience.health import (
    HealthReport,
    SegmentHealth,
    WorkerHealth,
    build_health_report,
)
from repro.resilience.reaper import ReapReport, reap_orphans, segment_inventory
from repro.resilience.supervisor import Supervisor

__all__ = [
    "ChaosScenario",
    "HealthReport",
    "ReapReport",
    "SCENARIOS",
    "SEEDED_COUNTS",
    "ScenarioOutcome",
    "SegmentHealth",
    "Supervisor",
    "TIMING_COUNTS",
    "WorkerHealth",
    "build_health_report",
    "reap_orphans",
    "run_scenario",
    "scenario_by_name",
    "segment_inventory",
]
