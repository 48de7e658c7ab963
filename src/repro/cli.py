"""Command-line interface: generate graphs, run engines, sweep prefixes.

Installed as the ``repro`` console script (also usable as
``python -m repro.cli``).  Subcommands:

``gen``
    Generate a workload graph and write it in PBBS adjacency format.
``info``
    Print structural statistics of a graph file.
``mis`` / ``mm``
    Run an MIS / maximal-matching engine on a graph file, verify the
    result, and report size + work/round/step accounting.  Robustness
    knobs: ``--guards off|cheap|full``, ``--fallback``, and
    ``--budget-seconds`` / ``--budget-steps``.  Observability knobs:
    ``--trace PATH`` (stream per-round JSONL telemetry) and
    ``--trace-summary`` (print a per-round table).
``deps``
    Report the dependence length and longest priority-DAG path for a
    random (or seeded) order.
``sweep``
    Prefix-size sweep with simulated times at chosen processor counts
    (a command-line Figure 1/2 panel).
``batch``
    Solve a batch of seeded runs through the crash-isolated
    :class:`~repro.service.SolverService` worker pool.  With ``--file``
    the input is JSON Lines of wire solve objects — the exact schema
    ``POST /v1/solve`` accepts (:mod:`repro.service.schema`) — and the
    output is JSON Lines of the matching result bodies.
``session``
    Stateful incremental sessions (:mod:`repro.dynamic`): ``session
    run`` creates a session, streams edge-mutation batches through the
    worker pool, and reports re-peel work against the from-scratch
    cost; ``session restore`` revives a saved snapshot.
``serve``
    Soak the service with a seeded request storm, optionally under
    chaos (worker kills / kernel faults), and print a survival report.
    With ``--http HOST:PORT``, run the asyncio network front door
    (:class:`~repro.service.http.HTTPGateway`) instead.  Both modes
    drain gracefully and exit 0 on SIGINT/SIGTERM.
``health``
    Report resilience health: the shared-memory segment inventory from
    the crash-safe ledger, and (with ``--probe``) a full
    :class:`~repro.resilience.health.HealthReport` from a transient
    service.
``reap``
    Sweep the segment ledger and unlink shared-memory segments orphaned
    by killed owner processes (``--dry-run`` to only report).
``recover``
    Inspect quarantined durability files — session snapshots and ledger
    records renamed ``.corrupt`` after failing their embedded checksum —
    and optionally purge them.

Every command takes ``--seed`` so runs are reproducible end to end.

Exit codes (documented in docs/api.md, asserted in tests/test_cli.py):
0 success; 1 generic/comparison failure; 2 invalid input or
configuration (:class:`~repro.errors.InvalidGraphError`,
:class:`~repro.errors.InvalidOrderingError`,
:class:`~repro.errors.EngineError`); 3 budget exhausted
(:class:`~repro.errors.BudgetExceededError`); 4 invariant violation or
corrupted output (:class:`~repro.errors.InvariantViolationError`);
5 service-operational failure (:class:`~repro.errors.ServiceError`:
shed, deadline, worker crash, open breaker, corrupt snapshot); 6
malformed graph file (:class:`~repro.errors.GraphFormatError`); 7
version precondition failed
(:class:`~repro.errors.VersionConflictError`: a session mutate's
``--cas`` / ``if_version`` no longer matches the committed version).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.bench.reporting import format_table
from repro.bench.sweeps import default_prefix_sizes, prefix_sweep_mis, prefix_sweep_mm
from repro.core.dependence import (
    dependence_length,
    longest_path_length,
    matching_dependence_length,
)
from repro.core.engines import engine_methods
from repro.core.matching import assert_valid_matching, maximal_matching
from repro.core.mis import assert_valid_mis, maximal_independent_set
from repro.core.orderings import random_priorities
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    rmat_graph,
    star_graph,
    uniform_random_graph,
)
from repro.graphs.io import read_adjacency_graph, write_adjacency_graph
from repro.graphs.properties import degree_histogram, num_connected_components

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Greedy sequential MIS/matching, parallel on average "
        "(Blelloch-Fineman-Shun SPAA 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file (PBBS adjacency format)")
    g.add_argument("output", help="output path")
    g.add_argument("--kind", default="random",
                   choices=["random", "rmat", "grid", "cycle", "path", "star", "complete"])
    g.add_argument("--n", type=int, default=10_000, help="vertices (or grid side)")
    g.add_argument("--m", type=int, default=50_000, help="edges / edge samples")
    g.add_argument("--scale", type=int, default=14, help="rMat: log2(vertices)")
    g.add_argument("--seed", type=int, default=0)

    i = sub.add_parser("info", help="print graph statistics")
    i.add_argument("graph", help="graph file (PBBS adjacency format)")

    for name, help_text in (("mis", "maximal independent set"),
                            ("mm", "maximal matching")):
        p = sub.add_parser(name, help=f"compute a {help_text}")
        p.add_argument("graph")
        # --method choices come straight from the engine registry, so a
        # newly registered engine is immediately available here.
        p.add_argument("--method", default="prefix",
                       choices=engine_methods("mis" if name == "mis" else "matching"))
        p.add_argument("--prefix-size", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--processors", type=int, default=32,
                       help="simulated processor count for the time estimate")
        p.add_argument("--guards", default=None,
                       choices=["off", "cheap", "full"],
                       help="per-round invariant checks (default off)")
        p.add_argument("--fallback", action="store_true",
                       help="degrade down rootset-vec -> sequential if "
                       "the chosen engine fails")
        p.add_argument("--budget-seconds", type=float, default=None,
                       help="abort with BudgetExceededError past this "
                       "wall-clock limit")
        p.add_argument("--budget-steps", type=int, default=None,
                       help="abort past this many synchronous steps")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="stream per-round telemetry to PATH as JSON "
                       "Lines (see docs/observability.md)")
        p.add_argument("--trace-summary", action="store_true",
                       help="print a per-round frontier/work table after "
                       "the run")
        p.add_argument("--workers", type=int, default=None,
                       help="shard-process count for method=parallel-vec "
                       "(default REPRO_WORKERS, else min(cpus, 4))")

    d = sub.add_parser("deps", help="dependence-length analysis")
    d.add_argument("graph")
    d.add_argument("--target", default="mis", choices=["mis", "mm"])
    d.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("sweep", help="prefix-size sweep (Figure 1/2 panel)")
    s.add_argument("graph")
    s.add_argument("--target", default="mis", choices=["mis", "mm"])
    s.add_argument("--points", type=int, default=9)
    s.add_argument("--processors", default="1,32",
                   help="comma-separated simulated processor counts")
    s.add_argument("--seed", type=int, default=0)

    f = sub.add_parser(
        "figures", help="regenerate paper figures on a graph file"
    )
    f.add_argument("graph")
    f.add_argument("--which", default="1",
                   choices=["1", "2", "3", "4"],
                   help="paper figure number")
    f.add_argument("--label", default="custom",
                   help="graph label used in titles/ids")
    f.add_argument("--out-dir", default=None,
                   help="also write .txt/.json tables to this directory")
    f.add_argument("--seed", type=int, default=0)

    c = sub.add_parser(
        "compare", help="diff two saved figure JSON files (regression check)"
    )
    c.add_argument("baseline")
    c.add_argument("candidate")
    c.add_argument("--tolerance", type=float, default=0.05,
                   help="max relative deviation per point")

    b = sub.add_parser(
        "batch",
        help="solve a batch of seeded runs through the worker-pool service",
    )
    b.add_argument("graph", nargs="?", default=None,
                   help="graph file (omit when using --file)")
    b.add_argument("--file", default=None, metavar="PATH",
                   help="JSON Lines of wire solve objects (the same schema "
                   "the HTTP gateway accepts; see repro.service.schema); "
                   "results print as JSON Lines of result bodies")
    b.add_argument("--target", default="mis", choices=["mis", "mm"])
    b.add_argument("--seeds", default="0:8",
                   help="seed range lo:hi (hi exclusive), or a count N (= 0:N)")
    b.add_argument("--method", default=None,
                   help="engine (default: the service's default_method, "
                   "prefix)")
    b.add_argument("--workers", type=int, default=2)
    b.add_argument("--guards", default=None, choices=["off", "cheap", "full"])
    b.add_argument("--timeout-seconds", type=float, default=None,
                   help="per-request wall-clock deadline")
    b.add_argument("--max-retries", type=int, default=2)
    b.add_argument("--json", action="store_true",
                   help="print the service stats snapshot as JSON")

    v = sub.add_parser(
        "serve",
        help="soak the service with a seeded request storm (optional "
        "chaos), or run the HTTP gateway with --http HOST:PORT",
    )
    v.add_argument("graph", nargs="?", default=None,
                   help="graph file: storm input, or (with --http) "
                   "registered at startup under its stem name")
    v.add_argument("--http", metavar="HOST:PORT", default=None,
                   help="serve the asyncio HTTP gateway on this address "
                   "instead of running a storm (port 0 picks a free port)")
    v.add_argument("--cache-entries", type=int, default=256,
                   help="result-cache size for --http (0 disables)")
    v.add_argument("--default-timeout-s", type=float, default=None,
                   help="deadline applied to HTTP solves that set none")
    v.add_argument("--drain-timeout-s", type=float, default=10.0,
                   help="graceful-drain bound for --http shutdown")
    v.add_argument("--requests", type=int, default=24)
    v.add_argument("--workers", type=int, default=2)
    v.add_argument("--max-retries", type=int, default=4)
    v.add_argument("--timeout-seconds", type=float, default=None)
    v.add_argument("--kill-probability", type=float, default=0.0,
                   help="chaos: per-attempt worker hard-kill probability")
    v.add_argument("--fault-probability", type=float, default=0.0,
                   help="chaos: per-attempt kernel fault probability")
    v.add_argument("--chaos-seed", type=int, default=0)
    v.add_argument("--seed", type=int, default=0,
                   help="base seed for the request priorities")
    v.add_argument("--json", action="store_true",
                   help="print the survival report as JSON")

    h = sub.add_parser(
        "health",
        help="report segment-ledger inventory and (optionally) service health",
    )
    h.add_argument("--probe", action="store_true",
                   help="start a transient service and print its full "
                   "health report")
    h.add_argument("--workers", type=int, default=2,
                   help="pool size for the --probe service")
    h.add_argument("--json", action="store_true",
                   help="print the report as JSON")

    se = sub.add_parser(
        "session",
        help="stateful incremental MIS/MM sessions under edge mutations",
    )
    sesub = se.add_subparsers(dest="session_command", required=True)
    sr = sesub.add_parser(
        "run",
        help="create a session, stream mutation batches through the "
        "crash-isolated service, and report re-peel work",
    )
    sr.add_argument("graph", help="graph file (PBBS adjacency format)")
    sr.add_argument("--target", default="mis", choices=["mis", "mm"])
    sr.add_argument("--mutations", default=None, metavar="PATH",
                    help="JSON Lines of {'insertions': […], 'deletions': […]} "
                    "batches (default: seeded random batches)")
    sr.add_argument("--batches", type=int, default=4,
                    help="random batches to apply when --mutations is unset")
    sr.add_argument("--batch-size", type=int, default=8,
                    help="edges inserted + deleted per random batch")
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--guards", default=None, choices=["off", "cheap", "full"])
    sr.add_argument("--workers", type=int, default=2)
    sr.add_argument("--snapshot-out", default=None, metavar="PATH",
                    help="write the final session snapshot as JSON")
    sr.add_argument("--mutation-id-prefix", default=None, metavar="PREFIX",
                    help="send each batch with idempotency key "
                    "PREFIX-<batch index>, making the run retry-safe")
    sr.add_argument("--cas", action="store_true",
                    help="send each batch with if_version set to the "
                    "expected committed version (exit 7 on conflict)")
    sr.add_argument("--verify", action="store_true",
                    help="check the final answer bit-identical to a "
                    "from-scratch sequential greedy solve")
    sr.add_argument("--json", action="store_true",
                    help="print the per-batch stats as JSON")
    sv = sesub.add_parser(
        "restore",
        help="revive a session from a snapshot file and report its state",
    )
    sv.add_argument("snapshot", help="snapshot JSON written by session run")
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--verify", action="store_true",
                    help="re-verify the restored fixpoint under full guards")
    sv.add_argument("--json", action="store_true")

    r = sub.add_parser(
        "reap",
        help="unlink shared-memory segments orphaned by dead owners",
    )
    r.add_argument("--dry-run", action="store_true",
                   help="report what would be reaped without unlinking")
    r.add_argument("--min-age-s", type=float, default=0.0,
                   help="only consider segments ledgered at least this "
                   "many seconds ago")
    r.add_argument("--session-dir", default=None, metavar="DIR",
                   help="also sweep stray snapshot temp files and count "
                   "quarantined files in this session directory")
    r.add_argument("--json", action="store_true",
                   help="print the reap report as JSON")

    rc = sub.add_parser(
        "recover",
        help="inspect quarantined (.corrupt) snapshots and ledger records",
    )
    rc.add_argument("--session-dir", default=None, metavar="DIR",
                    help="session snapshot directory to inspect")
    rc.add_argument("--purge", action="store_true",
                    help="delete the quarantined files after listing them")
    rc.add_argument("--json", action="store_true",
                    help="print the recovery report as JSON")
    return parser


def _make_budget(args):
    """A Budget from --budget-seconds/--budget-steps, or None."""
    if args.budget_seconds is None and args.budget_steps is None:
        return None
    from repro.robustness import Budget

    return Budget(max_seconds=args.budget_seconds, max_steps=args.budget_steps)


def _make_tracer(args):
    """A Tracer serving --trace/--trace-summary, or None."""
    if not args.trace and not args.trace_summary:
        return None
    from repro.observability import JSONLSink, MemorySink, Tracer

    sink = JSONLSink(args.trace) if args.trace else MemorySink()
    return Tracer(sink)


def _finish_trace(args, tracer) -> None:
    """Close the trace sink and print the requested artifacts."""
    if tracer is None:
        return
    from repro.observability import MemorySink, read_trace, trace_summary

    tracer.sink.close()
    if args.trace:
        print(f"trace:       {args.trace} ({tracer.rounds} round events)")
    if args.trace_summary:
        events = (
            tracer.sink.events
            if isinstance(tracer.sink, MemorySink)
            else read_trace(args.trace)
        )
        print(trace_summary(events))


def _report_degradation(stats) -> None:
    if stats.aux.get("degraded"):
        attempts = stats.aux.get("fallback_attempts", [])
        print(f"degraded:    fell back to {stats.aux.get('fallback_engine')} "
              f"after {len(attempts)} failed engine(s)")
        for a in attempts:
            print(f"             {a['method']}: {a['error']}")


def _cmd_gen(args) -> int:
    if args.kind == "random":
        g = uniform_random_graph(args.n, args.m, seed=args.seed)
    elif args.kind == "rmat":
        g = rmat_graph(args.scale, args.m, seed=args.seed)
    elif args.kind == "grid":
        side = max(1, int(args.n ** 0.5))
        g = grid_graph(side, side)
    elif args.kind == "cycle":
        g = cycle_graph(args.n)
    elif args.kind == "path":
        g = path_graph(args.n)
    elif args.kind == "star":
        g = star_graph(args.n)
    else:
        g = complete_graph(args.n)
    write_adjacency_graph(g, args.output)
    print(f"wrote {args.kind} graph: n={g.num_vertices} m={g.num_edges} -> {args.output}")
    return 0


def _cmd_info(args) -> int:
    g = read_adjacency_graph(args.graph)
    degs = g.degrees()
    print(f"vertices:    {g.num_vertices}")
    print(f"edges:       {g.num_edges}")
    print(f"max degree:  {g.max_degree()}")
    if g.num_vertices:
        print(f"mean degree: {degs.mean():.2f}")
        print(f"isolated:    {int((degs == 0).sum())}")
    if g.num_vertices <= 200_000:
        print(f"components:  {num_connected_components(g)}")
    hist = degree_histogram(g)
    top = sorted(hist.items())[:8]
    print("degree histogram (lowest 8):", dict(top))
    return 0


def _cmd_mis(args) -> int:
    from repro.pram import simulate_time

    g = read_adjacency_graph(args.graph)
    ranks = None
    if args.method != "luby":
        ranks = random_priorities(g.num_vertices, seed=args.seed)
    tracer = _make_tracer(args)
    res = maximal_independent_set(
        g, ranks, method=args.method, prefix_size=args.prefix_size,
        seed=args.seed, guards=args.guards, budget=_make_budget(args),
        fallback=args.fallback, tracer=tracer, workers=args.workers,
    )
    assert_valid_mis(g, res.in_set, ranks if args.method != "luby" else None)
    s = res.stats
    _report_degradation(s)
    _finish_trace(args, tracer)
    print(f"MIS size:    {res.size} / {g.num_vertices}")
    print(f"engine:      {s.algorithm}")
    print(f"rounds:      {s.rounds}   steps: {s.steps}")
    print(f"work:        {s.work}")
    print(f"sim time on {args.processors} procs: "
          f"{simulate_time(res.machine, args.processors):.3e} s")
    return 0


def _cmd_mm(args) -> int:
    from repro.pram import simulate_time

    g = read_adjacency_graph(args.graph)
    el = g.edge_list()
    ranks = random_priorities(el.num_edges, seed=args.seed)
    tracer = _make_tracer(args)
    res = maximal_matching(
        el, ranks, method=args.method, prefix_size=args.prefix_size,
        guards=args.guards, budget=_make_budget(args),
        fallback=args.fallback, tracer=tracer, workers=args.workers,
    )
    assert_valid_matching(el, res.matched, ranks)
    s = res.stats
    _report_degradation(s)
    _finish_trace(args, tracer)
    print(f"matching size: {res.size} / {el.num_edges} edges "
          f"({2 * res.size} vertices covered)")
    print(f"engine:        {s.algorithm}")
    print(f"rounds:        {s.rounds}   steps: {s.steps}")
    print(f"work:          {s.work}")
    print(f"sim time on {args.processors} procs: "
          f"{simulate_time(res.machine, args.processors):.3e} s")
    return 0


def _cmd_deps(args) -> int:
    g = read_adjacency_graph(args.graph)
    if args.target == "mis":
        ranks = random_priorities(g.num_vertices, seed=args.seed)
        dep = dependence_length(g, ranks)
        lp = longest_path_length(g, ranks)
        print(f"MIS dependence length: {dep}")
        print(f"longest priority-DAG path: {lp}")
        print(f"log2(n)^2 reference: {np.log2(max(g.num_vertices, 2)) ** 2:.1f}")
    else:
        el = g.edge_list()
        ranks = random_priorities(el.num_edges, seed=args.seed)
        dep = matching_dependence_length(el, ranks)
        print(f"MM dependence length: {dep}")
        print(f"log2(m)^2 reference: {np.log2(max(el.num_edges, 2)) ** 2:.1f}")
    return 0


def _cmd_sweep(args) -> int:
    g = read_adjacency_graph(args.graph)
    processors = tuple(int(p) for p in args.processors.split(","))
    if args.target == "mis":
        total = g.num_vertices
        points = prefix_sweep_mis(
            g, random_priorities(total, seed=args.seed),
            default_prefix_sizes(max(total, 1), points=args.points),
            processors=processors,
        )
    else:
        el = g.edge_list()
        total = el.num_edges
        points = prefix_sweep_mm(
            el, random_priorities(total, seed=args.seed),
            default_prefix_sizes(max(total, 1), points=args.points),
            processors=processors,
        )
    headers = ["prefix", "work/N", "rounds", "steps"] + [f"t(P={p})" for p in processors]
    rows = [
        [p.prefix_size, f"{p.norm_work:.3f}", p.rounds, p.steps]
        + [f"{p.sim_times[q]:.2e}" for q in processors]
        for p in points
    ]
    print(format_table(headers, rows))
    return 0


def _cmd_figures(args) -> int:
    import pathlib

    from repro.bench.figures import figure1_panels, figure2_panels, figure3, figure4
    from repro.bench.reporting import render_figure, save_figure_json
    from repro.bench.svgplot import save_figure_svg

    g = read_adjacency_graph(args.graph)
    if args.which == "1":
        figures = list(figure1_panels(g, args.label, seed=args.seed).values())
    elif args.which == "2":
        figures = list(
            figure2_panels(g.edge_list(), args.label, seed=args.seed).values()
        )
    elif args.which == "3":
        figures = [figure3(g, args.label, seed=args.seed)]
    else:
        figures = [figure4(g.edge_list(), args.label, seed=args.seed)]
    for fig in figures:
        print(render_figure(fig))
        print()
        if args.out_dir:
            out = pathlib.Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{fig.figure_id}.txt").write_text(render_figure(fig) + "\n")
            save_figure_json(fig, out / f"{fig.figure_id}.json")
            save_figure_svg(fig, out / f"{fig.figure_id}.svg")
    return 0


def _cmd_compare(args) -> int:
    from repro.bench.regression import compare_figure_files

    report = compare_figure_files(args.baseline, args.candidate, args.tolerance)
    print(report.summary())
    return 0 if report.matched else 1


def _parse_seeds(spec: str) -> range:
    """``"lo:hi"`` or ``"N"`` (= ``0:N``) → a seed range; empty is an error."""
    from repro.errors import EngineError

    try:
        if ":" in spec:
            lo_s, hi_s = spec.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo, hi = 0, int(spec)
    except ValueError:
        raise EngineError(f"--seeds must be 'lo:hi' or a count, got {spec!r}") from None
    if hi <= lo:
        raise EngineError(f"--seeds range is empty: {spec!r}")
    return range(lo, hi)


def _cmd_batch_file(args) -> int:
    """``repro batch --file``: solve wire objects through the service.

    Each input line is one solve object in the shared wire schema
    (:mod:`repro.service.schema`) — exactly what ``POST /v1/solve``
    accepts, minus registered graph names — and each output line is the
    matching deterministic result body.  Malformed lines exit 2 like any
    other invalid input.
    """
    import json

    from repro.errors import EngineError
    from repro.service import SolverService
    from repro.service import schema as wire_schema

    requests = []
    with open(args.file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EngineError(
                    f"{args.file}:{lineno}: not valid JSON: {exc}"
                ) from None
            try:
                req, _ = wire_schema.decode_solve(
                    obj, default_timeout_s=args.timeout_seconds
                )
            except ValueError as exc:
                raise EngineError(f"{args.file}:{lineno}: {exc}") from None
            if args.method is not None and req.method is None:
                req = wire_schema.decode_solve(
                    dict(obj, method=args.method),
                    default_timeout_s=args.timeout_seconds,
                )[0]
            requests.append(req)
    if not requests:
        raise EngineError(f"{args.file} holds no solve objects")
    with SolverService(
        workers=args.workers, max_retries=args.max_retries,
        max_queue=max(64, len(requests)),
    ) as svc:
        results = svc.solve_many(requests)
        stats = svc.stats()
    for req, res in zip(requests, results):
        print(wire_schema.dump_result(req, res).decode())
    if args.json:
        print(json.dumps(stats.as_dict(), indent=2), file=sys.stderr)
    return 0


def _cmd_batch(args) -> int:
    import json

    from repro.service import SolveRequest, SolverService

    if args.file is not None:
        return _cmd_batch_file(args)
    if args.graph is None:
        print("error: batch needs a graph file (or --file PATH)",
              file=sys.stderr)
        return 2
    g = read_adjacency_graph(args.graph)
    problem = "mis" if args.target == "mis" else "matching"
    payload = g if problem == "mis" else g.edge_list()
    seeds = _parse_seeds(args.seeds)
    requests = [
        SolveRequest(
            problem, payload, method=args.method, guards=args.guards,
            timeout_seconds=args.timeout_seconds, options={"seed": s},
        )
        for s in seeds
    ]
    with SolverService(
        workers=args.workers, max_retries=args.max_retries,
        max_queue=max(64, len(requests)),
    ) as svc:
        results = svc.solve_many(requests)
        stats = svc.stats()
    for s, res in zip(seeds, results):
        aux = res.stats.aux.get("service", {})
        print(f"seed {s}: size {res.size}  engine {aux.get('engine')}  "
              f"retries {aux.get('retries')}")
    print(json.dumps(stats.as_dict(), indent=2) if args.json else stats.format())
    return 0


def _install_drain_signals(on_signal) -> None:
    """Route SIGINT/SIGTERM into *on_signal* (best-effort off-main-thread)."""
    import signal as _signal

    for sig in (_signal.SIGINT, _signal.SIGTERM):
        try:
            _signal.signal(sig, on_signal)
        except ValueError:  # pragma: no cover - not on the main thread
            pass


def _cmd_serve_http(args) -> int:
    """``repro serve --http HOST:PORT``: run the network front door."""
    import threading

    from repro.service.http import GatewayConfig, HTTPGateway
    from repro.service.service import SolverService

    host, _, port_text = args.http.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --http expects HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return 2
    service = SolverService(
        workers=args.workers, max_retries=args.max_retries,
        cache_entries=args.cache_entries,
        kill_probability=args.kill_probability,
        fault_probability=args.fault_probability,
        chaos_seed=args.chaos_seed,
    )
    gateway = HTTPGateway(service, GatewayConfig(
        host=host or "127.0.0.1", port=port,
        default_timeout_s=args.default_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
        supervise_interval_s=2.0,
    ))
    if args.graph:
        g = read_adjacency_graph(args.graph)
        name = Path(args.graph).stem
        pi = np.random.default_rng(args.seed).permutation(g.num_vertices)
        gateway.add_graph(name, g, pi)
        print(f"registered graph {name!r} (n={g.num_vertices} "
              f"m={g.num_edges}, warmed at startup)")
    gateway.start_in_thread()
    bound_host, bound_port = gateway.address
    print(f"repro gateway listening on http://{bound_host}:{bound_port} "
          f"(workers={args.workers}, cache={args.cache_entries}); "
          "SIGINT/SIGTERM drains")
    stop = threading.Event()
    _install_drain_signals(lambda signum, frame: stop.set())
    try:
        stop.wait()
    finally:
        print("draining gateway ...", file=sys.stderr)
        gateway.stop_in_thread()
    print("gateway stopped cleanly", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.core.engines import solve as direct_solve
    from repro.service import SolveRequest, SolverService

    if args.http is not None:
        return _cmd_serve_http(args)
    if args.graph is None:
        print("error: serve needs a graph file (or --http HOST:PORT)",
              file=sys.stderr)
        return 2
    g = read_adjacency_graph(args.graph)
    el = g.edge_list()
    requests = [
        SolveRequest(
            "mis" if i % 2 == 0 else "matching",
            g if i % 2 == 0 else el,
            timeout_seconds=args.timeout_seconds,
            options={"seed": args.seed + i},
        )
        for i in range(args.requests)
    ]
    svc = SolverService(
        workers=args.workers, max_retries=args.max_retries,
        max_queue=max(64, len(requests)),
        kill_probability=args.kill_probability,
        fault_probability=args.fault_probability,
        chaos_seed=args.chaos_seed,
    ).start()

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    _install_drain_signals(_interrupt)
    try:
        results = svc.solve_many(requests, return_errors=True)
        stats = svc.stats()
    except KeyboardInterrupt:
        # A Ctrl-C mid-storm is an operator action, not a failure:
        # drain what's in flight, report, and exit 0.
        svc.shutdown(drain=True, timeout=args.drain_timeout_s)
        stats = svc.stats()
        print("interrupted: drained in-flight work and shut down cleanly",
              file=sys.stderr)
        print(stats.format())
        return 0
    finally:
        svc.shutdown(drain=True, timeout=args.drain_timeout_s)
    mismatches = 0
    failures = []
    for req, res in zip(requests, results):
        if isinstance(res, Exception):
            failures.append(
                f"{req.problem} seed {req.options['seed']}: "
                f"{type(res).__name__}: {res}"
            )
            continue
        # Survival is only meaningful if retried/degraded answers are
        # bit-identical to a clean in-process solve.
        ref = direct_solve(
            req.problem, req.payload, method="rootset-vec",
            seed=req.options["seed"],
        )
        if not np.array_equal(res.status, ref.status):
            mismatches += 1
    report = {
        "requests": args.requests,
        "completed": stats.completed,
        "failed": stats.failed,
        "mismatches": mismatches,
        "retries": stats.retries,
        "worker_crashes": stats.worker_crashes,
        "worker_restarts": stats.worker_restarts,
        "breaker_trips": stats.breaker_trips,
        "failures": failures,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(stats.format())
        print(f"survived:        {stats.completed}/{args.requests} "
              f"({mismatches} mismatches)")
        for line in failures:
            print(f"failed:          {line}")
    return 4 if mismatches else 0


def _random_session_batches(graph, batches, batch_size, seed):
    """Seeded random mutation batches against a shadow of the graph.

    Deletions are drawn from the *current* edge set (tracked through
    earlier batches) and insertions from the complement, so every batch
    is valid by construction and the whole run replays from the seed.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    el = graph.edge_list()
    edges = set(zip(el.u.tolist(), el.v.tolist()))
    half = max(1, batch_size // 2)
    out = []
    for _ in range(batches):
        pool = sorted(edges)
        k = min(half, len(pool))
        dels = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)] if k else []
        ins = []
        while len(ins) < half and n > 1:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in edges or key in ins or key in dels:
                continue
            ins.append(key)
        edges.difference_update(dels)
        edges.update(ins)
        out.append({"insertions": [list(e) for e in ins],
                    "deletions": [list(e) for e in dels]})
    return out


def _read_session_batches(path):
    import json

    from repro.errors import EngineError

    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EngineError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict) or not (
                obj.get("insertions") or obj.get("deletions")
            ):
                raise EngineError(
                    f"{path}:{lineno}: each line needs 'insertions' and/or "
                    "'deletions'"
                )
            out.append({"insertions": obj.get("insertions") or [],
                        "deletions": obj.get("deletions") or []})
    if not out:
        raise EngineError(f"{path} holds no mutation batches")
    return out


def _cmd_session_run(args) -> int:
    import json

    from repro.service import SolverService

    g = read_adjacency_graph(args.graph)
    problem = "mis" if args.target == "mis" else "matching"
    payload = g if problem == "mis" else g.edge_list()
    total = g.num_vertices if problem == "mis" else g.num_edges
    ranks = random_priorities(total, seed=args.seed)
    batches = (
        _read_session_batches(args.mutations) if args.mutations
        else _random_session_batches(g, args.batches, args.batch_size, args.seed)
    )
    rows = []
    with SolverService(workers=args.workers) as svc:
        info = svc.create_session(problem, payload, ranks, guards=args.guards)
        print(f"session {info.session_id}: {problem} n={info.n} m={info.m} "
              f"size={info.size}")
        version = info.version
        for i, batch in enumerate(batches):
            stats = svc.mutate_session(
                info.session_id, batch["insertions"], batch["deletions"],
                mutation_id=(
                    None if args.mutation_id_prefix is None
                    else f"{args.mutation_id_prefix}-{i}"
                ),
                if_version=version if args.cas else None,
            )
            version = stats["version"]
            rows.append({"batch": i, **{k: stats.get(k) for k in
                         ("affected", "flipped", "scanned_arcs", "work",
                          "scratch_work", "work_ratio")},
                         "size": stats["size"], "m": stats["m"]})
        result = svc.session_result(info.session_id)
        snapshot = svc.session_snapshot(info.session_id)
    if args.json:
        print(json.dumps({"batches": rows,
                          "dynamic": result.stats.aux["dynamic"]}, indent=2))
    else:
        print(format_table(
            ["batch", "affected", "flipped", "work", "work_ratio", "size", "m"],
            [[r["batch"], r["affected"], r["flipped"], r["work"],
              "-" if r["work_ratio"] is None else f"{r['work_ratio']:.3f}",
              r["size"], r["m"]] for r in rows],
        ))
        dyn = result.stats.aux["dynamic"]
        print(f"cumulative:  work {dyn['total_work']} vs scratch "
              f"{dyn['total_scratch_work']} "
              f"(ratio {dyn['total_work_ratio']:.3f})")
    if args.verify:
        from repro.dynamic.jobs import _maintainer_from_state

        maintainer = _maintainer_from_state(snapshot["state"])
        mutated = maintainer.graph()
        if problem == "mis":
            ref = maximal_independent_set(
                mutated, result.ranks, method="sequential"
            )
        else:
            ref = maximal_matching(
                maintainer.edge_list(), maintainer.current_ranks(),
                method="sequential",
            )
        if not np.array_equal(result.status, ref.status):
            print("verify:      FAILED (incremental != from-scratch)",
                  file=sys.stderr)
            return 4
        print(f"verify:      OK (bit-identical to from-scratch, "
              f"size {ref.size})")
    if args.snapshot_out:
        with open(args.snapshot_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, separators=(",", ":"), sort_keys=True)
        print(f"snapshot:    {args.snapshot_out} (version {snapshot['version']})")
    return 0


def _cmd_session_restore(args) -> int:
    import json

    from repro.errors import EngineError
    from repro.service import SolverService

    try:
        with open(args.snapshot, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise EngineError(f"cannot read snapshot {args.snapshot!r}: {exc}") from None
    if args.verify:
        snapshot = dict(snapshot, guards="full")
    with SolverService(workers=args.workers) as svc:
        info = svc.restore_session(snapshot)
        result = svc.session_result(info.session_id)
    body = dict(info.as_dict(), verified=bool(args.verify))
    if args.json:
        print(json.dumps(body, indent=2))
    else:
        print(f"restored {info.session_id}: {info.problem} version "
              f"{info.version} n={info.n} m={info.m} size={result.size}")
        if args.verify:
            print("verify:      OK (fixpoint re-checked under full guards)")
    return 0


def _cmd_session(args) -> int:
    if args.session_command == "run":
        return _cmd_session_run(args)
    return _cmd_session_restore(args)


def _cmd_health(args) -> int:
    import json

    from repro.resilience import segment_inventory

    records = segment_inventory()
    orphans = [r for r in records if r.exists and not r.owner_alive]
    if args.probe:
        from repro.service import SolverService

        with SolverService(workers=args.workers) as svc:
            report = svc.health()
        print(json.dumps(report.as_dict(), indent=2) if args.json
              else report.format())
        return 0
    if args.json:
        print(json.dumps({
            "segments": [r.as_dict() for r in records],
            "orphaned": len(orphans),
        }, indent=2))
        return 0
    print(f"segments:    {len(records)} ledgered, {len(orphans)} orphaned")
    for r in records:
        state = "live" if r.owner_alive else (
            "ORPHANED" if r.exists else "stale record"
        )
        print(f"  {r.name}  pid={r.pid} role={r.role} {state}")
    return 0


def _cmd_reap(args) -> int:
    import json

    from repro.resilience import reap_orphans

    report = reap_orphans(
        min_age_s=args.min_age_s,
        dry_run=args.dry_run,
        snapshot_dir=args.session_dir,
    )
    print(json.dumps(report.as_dict(), indent=2) if args.json
          else report.format())
    return 0


def _cmd_recover(args) -> int:
    """List (and optionally purge) quarantined durability files.

    Covers the two checksummed stores: session snapshots under
    ``--session-dir`` and the shared segment ledger.  Quarantined files
    were renamed ``.corrupt`` when a load failed its embedded checksum;
    they are held for exactly this inspection until purged here (or by
    a reap sweep run with purging enabled).
    """
    import json

    from repro.backends.ledger import default_ledger

    ledger = default_ledger()
    snapshot_corrupt = []
    snapshot_dir = args.session_dir
    if snapshot_dir is not None:
        from repro.dynamic.store import SnapshotStore

        store = SnapshotStore(snapshot_dir)
        snapshot_corrupt = store.corrupt_files()
    ledger_corrupt = ledger.corrupt_files()
    purged = []
    if args.purge:
        if snapshot_dir is not None:
            purged.extend(store.sweep_corrupt())
        purged.extend(ledger.sweep_corrupt())
    if args.json:
        print(json.dumps({
            "session_dir": snapshot_dir,
            "quarantined_snapshots": snapshot_corrupt,
            "quarantined_ledger_records": ledger_corrupt,
            "purged": purged,
        }, indent=2))
        return 0
    total = len(snapshot_corrupt) + len(ledger_corrupt)
    print(f"quarantined: {total} file(s) "
          f"({len(snapshot_corrupt)} snapshot, {len(ledger_corrupt)} ledger)")
    for name in snapshot_corrupt:
        print(f"  snapshot {name}")
    for name in ledger_corrupt:
        print(f"  ledger   {name}")
    if args.purge:
        print(f"purged:      {len(purged)} file(s)")
    elif total:
        print("rerun with --purge to delete them")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "info": _cmd_info,
    "mis": _cmd_mis,
    "mm": _cmd_mm,
    "deps": _cmd_deps,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "session": _cmd_session,
    "health": _cmd_health,
    "reap": _cmd_reap,
    "recover": _cmd_recover,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures map onto a stable exit-code taxonomy (see the
    module docstring and docs/api.md): 2 invalid input/config, 3 budget,
    4 invariant violation, 5 service-operational failure, 6 malformed
    graph file, 7 version precondition failed.
    """
    from repro.errors import (
        BudgetExceededError,
        EngineError,
        GraphFormatError,
        InvalidGraphError,
        InvalidOrderingError,
        InvariantViolationError,
        ServiceError,
        VersionConflictError,
    )

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # A file that *parses* wrong (exit 6, check the file on disk) is a
    # different operator action than a graph that *is* wrong (exit 2,
    # check the producing code).
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except (InvalidGraphError, InvalidOrderingError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VersionConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
