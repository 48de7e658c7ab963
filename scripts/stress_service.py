#!/usr/bin/env python
"""Stress the crash-isolated solver service and write a survival report.

Fires a seeded request storm (mixed MIS/matching over several graph
families, a slice of requests carrying wall-clock deadlines) at a
:class:`repro.service.SolverService` while a seeded *fault storm* is
armed: every attempt has a configurable probability of a worker hard
kill (``os._exit``, pre or post compute) and of a kernel fault injected
into the frontier primitives.  Requests run the served default engine
(``prefix``), which only the ``min-lift`` fault reaches; the other kernel
faults reach only attempts that degrade to ``rootset-vec``, so the report
counts the armed faults that failed an attempt.  Afterwards it checks the
three survival properties the service exists to provide:

1. **No silent wrong answers** — every completed request is bit-identical
   to a clean in-process solve of the same instance.
2. **Typed failures only** — every failed request surfaced a
   :class:`repro.errors.ReproError` subclass, never a raw crash.
3. **The service outlived the storm** — the configured worker count is
   alive at the end, every injected death was retried or surfaced.

The report is written as Markdown (default
``results/stress_service.md``) so a run's evidence can be committed.

Usage:
    python scripts/stress_service.py                 # full storm
    python scripts/stress_service.py --smoke         # tier-1 sized
    python scripts/stress_service.py --requests 500 --kill 0.3
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engines import solve as direct_solve
from repro.core.orderings import random_priorities
from repro.errors import ReproError
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    rmat_graph,
    uniform_random_graph,
)
from repro.resilience import ChaosScenario
from repro.service import SolveRequest, SolverService


def build_workload(requests: int, seed: int, deadline_every: int):
    """The seeded request storm: (request, reference-key) pairs."""
    graphs = {
        "uniform": uniform_random_graph(400, 1600, seed=seed),
        "rmat": rmat_graph(9, 1500, seed=seed + 1),
        "grid": grid_graph(20, 20),
        "cycle": cycle_graph(300),
    }
    edge_lists = {name: g.edge_list() for name, g in graphs.items()}
    names = sorted(graphs)
    rng = np.random.default_rng(seed)
    storm = []
    for i in range(requests):
        name = names[int(rng.integers(len(names)))]
        problem = "mis" if rng.integers(2) == 0 else "matching"
        req_seed = int(rng.integers(2**31))
        payload = graphs[name] if problem == "mis" else edge_lists[name]
        timeout = 30.0 if deadline_every and i % deadline_every == 0 else None
        storm.append((
            SolveRequest(problem, payload, timeout_seconds=timeout,
                         options={"seed": req_seed}),
            (name, problem, req_seed),
        ))
    return storm


def run_storm(args):
    # One source of truth for chaos service configs: the declarative
    # scenario record (scripts and the soak suite share its mapping).
    scenario = ChaosScenario(
        name="stress-storm",
        description="CLI-configured request storm + fault storm",
        requests=args.requests,
        workers=args.workers,
        max_queue=max(64, args.requests),
        max_retries=args.max_retries,
        kill_probability=args.kill,
        fault_probability=args.fault,
        seed=args.seed,
    )
    config = scenario.service_config()
    storm = build_workload(args.requests, args.seed, args.deadline_every)
    t0 = time.perf_counter()
    with SolverService(config) as svc:
        results = svc.solve_many([req for req, _ in storm], return_errors=True)
        stats = svc.stats()
        workers_alive = stats.workers_alive
    elapsed = time.perf_counter() - t0

    mismatches, untyped, degraded, retried = [], [], 0, 0
    failures = []
    faults = {"armed": 0, "landed": 0}
    for (req, key), res in zip(storm, results):
        name, problem, req_seed = key
        if isinstance(res, Exception):
            (failures if isinstance(res, ReproError) else untyped).append(
                f"{problem}/{name} seed={req_seed}: {type(res).__name__}: {res}"
            )
            continue
        aux = res.stats.aux
        for attempt in aux["service"]["attempts"]:
            if "fault" in (attempt["chaos"] or {}):
                faults["armed"] += 1
                faults["landed"] += attempt["outcome"].startswith("error")
        if aux.get("degraded"):
            degraded += 1
        if aux["service"]["retries"]:
            retried += 1
        ref = direct_solve(problem, req.payload, method="rootset-vec",
                           seed=req_seed)
        if not np.array_equal(res.status, ref.status):
            mismatches.append(f"{problem}/{name} seed={req_seed}: "
                              f"attempts={aux['service']['attempts']}")
    return {
        "config": config,
        "stats": stats,
        "elapsed": elapsed,
        "workers_alive": workers_alive,
        "mismatches": mismatches,
        "untyped": untyped,
        "failures": failures,
        "degraded": degraded,
        "retried": retried,
        "faults": faults,
        "requests": args.requests,
    }


def render_report(outcome, args) -> str:
    stats = outcome["stats"]
    config = outcome["config"]
    survived = not outcome["mismatches"] and not outcome["untyped"]
    lines = [
        "# Solver-service stress report",
        "",
        f"Verdict: **{'SURVIVED' if survived else 'FAILED'}** — "
        f"{stats.completed}/{outcome['requests']} requests completed in "
        f"{outcome['elapsed']:.1f}s, {len(outcome['mismatches'])} mismatches, "
        f"{len(outcome['untyped'])} untyped errors.",
        "",
        "Reproduce with:",
        "",
        "```",
        f"python scripts/stress_service.py --requests {args.requests} "
        f"--workers {args.workers} --kill {args.kill} --fault {args.fault} "
        f"--seed {args.seed} --max-retries {args.max_retries}",
        "```",
        "",
        "## Storm",
        "",
        f"- requests: {outcome['requests']} (mixed MIS/matching over "
        f"uniform/rMat/grid/cycle graphs, every "
        f"{args.deadline_every or 'no'}{'th' if args.deadline_every else ''} "
        f"request with a deadline)",
        f"- chaos: kill probability {config.kill_probability}, kernel-fault "
        f"probability {config.fault_probability}, chaos seed "
        f"{config.chaos_seed}",
        f"- kernel faults on completed requests: {outcome['faults']['armed']} "
        f"armed, {outcome['faults']['landed']} failed an attempt",
        f"- pool: {config.workers} workers, max {config.max_retries} retries",
        "",
        "## Survival",
        "",
        f"- completed: {stats.completed} ({outcome['retried']} needed "
        f"retries, {outcome['degraded']} served by a degraded engine; all "
        f"bit-identical to clean in-process solves)",
        f"- failed (typed): {stats.failed}",
        f"- worker crashes: {stats.worker_crashes} "
        f"(restarts: {stats.worker_restarts}); "
        f"{outcome['workers_alive']}/{config.workers} workers alive at end",
        f"- retries: {stats.retries}; breaker trips: {stats.breaker_trips}; "
        f"deadline failures: {stats.deadline_failures}",
        f"- latency: p50 {stats.latency_p50 * 1e3:.1f} ms, "
        f"p95 {stats.latency_p95 * 1e3:.1f} ms",
    ]
    for title, items in (("Mismatches", outcome["mismatches"]),
                         ("Untyped errors", outcome["untyped"]),
                         ("Typed failures", outcome["failures"])):
        if items:
            lines += ["", f"## {title}", ""]
            lines += [f"- {item}" for item in items]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded request storm + fault storm against the "
        "worker-pool solver service; writes a survival report."
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--kill", type=float, default=0.2,
                        help="per-attempt worker hard-kill probability")
    parser.add_argument("--fault", type=float, default=0.2,
                        help="per-attempt kernel-fault probability")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-retries", type=int, default=8)
    parser.add_argument("--deadline-every", type=int, default=5,
                        help="give every Nth request a deadline (0 = none)")
    parser.add_argument("--out", default="results/stress_service.md",
                        help="survival report path ('-' = stdout only)")
    parser.add_argument("--smoke", action="store_true",
                        help="tier-1 sized run (40 requests, 2 workers)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 40)
        args.workers = min(args.workers, 2)

    outcome = run_storm(args)
    report = render_report(outcome, args)
    print(report)
    if args.out != "-":
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    return 0 if not outcome["mismatches"] and not outcome["untyped"] else 1


if __name__ == "__main__":
    sys.exit(main())
