#!/usr/bin/env python
"""Randomized differential fuzzer: hammer the determinism guarantee.

Generates random (graph family, size, order, schedule) configurations and
checks that every MIS/MM execution strategy returns the identical result.
This is the long-running companion to the hypothesis suites: run it for as
many trials as you have patience for; any mismatch prints a reproducer and
exits non-zero.

Usage:
    python scripts/fuzz_determinism.py [trials] [master_seed]
    python scripts/fuzz_determinism.py --faults [trials] [master_seed]
    python scripts/fuzz_determinism.py --service [trials] [master_seed]

``--faults`` switches to chaos mode: each trial injects one seeded fault —
either into the frontier kernels mid-run (guards="full" watching) or into
the graph/rank inputs (front-door validation watching) — and asserts the
fault is *detected or harmless*: every run must end in a typed error or in
a result bit-identical to the fault-free reference.  A run that completes
with a different answer is a silent wrong answer, the one outcome the
robustness layer exists to prevent.  Rank trials take the next
(problem, rank fault) pair of a fixed cycle, so a short run reaches every
pair, and send the corrupted π to every registered method that takes
ranks (the served ``prefix`` and ``sequential`` among them); each must
raise ``InvalidOrderingError``.  The run ends by printing how many
(problem, fault, method) triples it reached.

``--service`` replays each trial through the crash-isolated worker pool
(:class:`repro.service.SolverService`) with worker kills *and* kernel
faults armed, and asserts the result the service returns — across
retries, worker restarts, and breaker-driven engine degradation — is
bit-identical to a clean in-process solve of the same instance.
"""

from __future__ import annotations

import argparse
import collections
import sys
import time

import numpy as np

from repro.core.matching import (
    parallel_greedy_matching,
    prefix_greedy_matching,
    rootset_matching,
    rootset_matching_vectorized,
    sequential_greedy_matching,
)
from repro.core.mis import (
    parallel_greedy_mis,
    prefix_greedy_mis,
    rootset_mis,
    rootset_mis_vectorized,
    sequential_greedy_mis,
    theorem45_prefix_sizes,
)
from repro.core.engines import engine_specs, solve
from repro.core.orderings import random_priorities
from repro.extensions.reservations import reservation_matching, reservation_mis
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    rmat_graph,
    uniform_random_graph,
)
from repro.pram.machine import null_machine
from repro.core.matching.api import maximal_matching
from repro.core.mis.api import maximal_independent_set
from repro.errors import (
    InvalidGraphError,
    InvalidOrderingError,
    InvariantViolationError,
)
from repro.robustness import (
    GRAPH_FAULTS,
    RANK_FAULTS,
    ChaosInjector,
    FaultSpec,
    corrupt_graph,
    corrupt_ranks,
)

FAMILIES = {
    "uniform": lambda rng: (
        lambda n: uniform_random_graph(
            n, int(rng.integers(0, min(9000, n * (n - 1) // 2) + 1)), seed=rng
        )
    )(int(rng.integers(2, 3000))),
    "rmat": lambda rng: rmat_graph(
        int(rng.integers(4, 12)), int(rng.integers(0, 6000)), seed=rng
    ),
    "grid": lambda rng: grid_graph(int(rng.integers(1, 40)), int(rng.integers(1, 40))),
    "cycle": lambda rng: cycle_graph(int(rng.integers(3, 2000))),
    "hypercube": lambda rng: hypercube_graph(int(rng.integers(0, 10))),
    "bipartite": lambda rng: complete_bipartite_graph(
        int(rng.integers(1, 40)), int(rng.integers(1, 40))
    ),
    "ba": lambda rng: barabasi_albert_graph(
        int(rng.integers(10, 400)), int(rng.integers(1, 5)), seed=rng
    ),
}


def check_instance(rng) -> None:
    family = list(FAMILIES)[int(rng.integers(0, len(FAMILIES)))]
    g = FAMILIES[family](rng)
    n = g.num_vertices
    ranks = random_priorities(n, rng)
    ref = sequential_greedy_mis(g, ranks, machine=null_machine()).status
    variants = {
        "parallel": parallel_greedy_mis(g, ranks, machine=null_machine()).status,
        "rootset": rootset_mis(g, ranks, machine=null_machine()).status,
        "rootset-vec": rootset_mis_vectorized(
            g, ranks, machine=null_machine()
        ).status,
        "prefix-k": prefix_greedy_mis(
            g, ranks, prefix_size=int(rng.integers(1, n + 1)),
            machine=null_machine(),
        ).status,
        "thm45": prefix_greedy_mis(
            g, ranks, prefix_sizes=theorem45_prefix_sizes(n, g.max_degree()) or [1],
            machine=null_machine(),
        ).status,
        "reservations": reservation_mis(
            g, ranks, granularity=int(rng.integers(1, n + 1)),
            machine=null_machine(),
        ).status,
    }
    for name, status in variants.items():
        if not np.array_equal(status, ref):
            raise AssertionError(
                f"MIS mismatch: family={family} n={n} m={g.num_edges} "
                f"engine={name}"
            )
    el = g.edge_list()
    m = el.num_edges
    eranks = random_priorities(m, rng)
    mref = sequential_greedy_matching(el, eranks, machine=null_machine()).status
    mm_variants = {
        "parallel": parallel_greedy_matching(el, eranks, machine=null_machine()).status,
        "rootset": rootset_matching(el, eranks, machine=null_machine()).status,
        "rootset-vec": rootset_matching_vectorized(
            el, eranks, machine=null_machine()
        ).status,
        "prefix-k": prefix_greedy_matching(
            el, eranks, prefix_size=int(rng.integers(1, m + 2)),
            machine=null_machine(),
        ).status,
        "reservations": reservation_matching(
            el, eranks, granularity=int(rng.integers(1, m + 2)),
            machine=null_machine(),
        ).status,
    }
    for name, status in mm_variants.items():
        if not np.array_equal(status, mref):
            raise AssertionError(
                f"MM mismatch: family={family} n={n} m={m} engine={name}"
            )


# Kernel faults reaching each vectorized engine: advance_cursors only runs
# in the matching scan, decrement_counts only in the MIS parent counts.
_MIS_KERNEL_FAULTS = ("drop-frontier", "dup-frontier", "foreign-frontier",
                      "count-extra")
_MM_KERNEL_FAULTS = ("drop-frontier", "dup-frontier", "foreign-frontier",
                     "cursor-skip")
# Crash signatures a corrupted frontier may produce before a guard round
# sees it — loud, typed, and therefore acceptable (not silent).
_LOUD_CRASHES = (IndexError, ValueError, FloatingPointError, OverflowError)

# Rank trials walk this cycle, one (problem, fault) pair per trial, and
# run the pair on every method that takes ranks.
_RANK_PAIRS = tuple(
    (problem, kind) for problem in ("mis", "matching") for kind in RANK_FAULTS
)


def _rank_methods(problem):
    return [s.method for s in engine_specs(problem) if s.supports_ranks]


def _fault_graph(rng):
    """A small non-trivial instance (chaos needs edges to corrupt)."""
    for _ in range(20):
        family = list(FAMILIES)[int(rng.integers(0, len(FAMILIES)))]
        g = FAMILIES[family](rng)
        if g.num_vertices >= 2 and g.num_edges >= 1:
            return family, g
    return "cycle", cycle_graph(8)


def check_fault_instance(rng, tally, reached) -> None:
    """One chaos trial: inject a fault, demand detected-or-harmless.

    *reached* collects the (problem, fault, method) triples whose
    corrupted π was detected.
    """
    family, g = _fault_graph(rng)
    alg = "mis" if rng.integers(0, 2) == 0 else "mm"
    site = ("kernel", "rank", "graph")[int(rng.integers(0, 3))]
    label = f"family={family} n={g.num_vertices} m={g.num_edges} alg={alg}"

    if site == "kernel":
        kinds = _MIS_KERNEL_FAULTS if alg == "mis" else _MM_KERNEL_FAULTS
        spec = FaultSpec(
            kind=kinds[int(rng.integers(0, len(kinds)))],
            seed=int(rng.integers(0, 2**31)),
            after=int(rng.integers(0, 6)),
        )
        if alg == "mis":
            ranks = random_priorities(g.num_vertices, rng)
            ref = sequential_greedy_mis(g, ranks, machine=null_machine()).status
            run = lambda: rootset_mis_vectorized(
                g, ranks, machine=null_machine(), guards="full",
                use_cache=False,
            ).status
        else:
            el = g.edge_list()
            ranks = random_priorities(el.num_edges, rng)
            ref = sequential_greedy_matching(
                el, ranks, machine=null_machine()
            ).status
            run = lambda: rootset_matching_vectorized(
                el, ranks, machine=null_machine(), guards="full",
                use_cache=False,
            ).status
        try:
            with ChaosInjector(spec) as chaos:
                status = run()
        except InvariantViolationError:
            tally["detected"] += 1
            return
        except _LOUD_CRASHES:
            tally["crashed"] += 1
            return
        if not chaos.fired:
            tally["not-fired"] += 1
            return
        if np.array_equal(status, ref):
            tally["harmless"] += 1
            return
        raise AssertionError(
            f"SILENT WRONG ANSWER: {label} fault={spec.kind} "
            f"after={spec.after} seed={spec.seed}"
        )

    if site == "rank":
        # Every engine that takes ranks, the served prefix and the
        # sequential reference included: each checks π at its boundary.
        problem, kind = _RANK_PAIRS[tally["rank-trials"] % len(_RANK_PAIRS)]
        tally["rank-trials"] += 1
        payload = g if problem == "mis" else g.edge_list()
        size = g.num_vertices if problem == "mis" else payload.num_edges
        bad = corrupt_ranks(
            random_priorities(size, rng), kind,
            seed=int(rng.integers(0, 2**31)),
        )
        if kind == "rank-dup" and size < 2:
            tally["not-fired"] += 1  # one item has no other rank to copy
            return
        for method in _rank_methods(problem):
            try:
                solve(problem, payload, bad, method=method)
            except InvalidOrderingError:
                reached.add((problem, kind, method))
                continue
            raise AssertionError(
                f"UNDETECTED INPUT FAULT: family={family} n={g.num_vertices} "
                f"m={g.num_edges} problem={problem} fault={kind} "
                f"method={method} (front door accepted a corrupted ordering)"
            )
        tally["detected"] += 1
        return

    kind = GRAPH_FAULTS[int(rng.integers(0, len(GRAPH_FAULTS)))]
    bad = corrupt_graph(g, kind, seed=int(rng.integers(0, 2**31)))
    call = (
        (lambda: maximal_independent_set(bad, method="rootset-vec"))
        if alg == "mis"
        else (lambda: maximal_matching(bad, method="rootset-vec"))
    )
    try:
        call()
    except InvalidGraphError:
        tally["detected"] += 1
        return
    raise AssertionError(
        f"UNDETECTED INPUT FAULT: {label} fault={kind} "
        "(front door accepted a corrupted graph)"
    )


def check_service_instance(rng, svc, tally) -> None:
    """One worker-pool trial: chaos-laden service run vs clean in-process."""
    from repro.service import SolveRequest

    family, g = _fault_graph(rng)
    alg = "mis" if rng.integers(0, 2) == 0 else "mm"
    seed = int(rng.integers(0, 2**31))
    if alg == "mis":
        payload = g
        ref = maximal_independent_set(g, method="rootset-vec", seed=seed)
    else:
        payload = g.edge_list()
        ref = maximal_matching(payload, method="rootset-vec", seed=seed)
    res = svc.solve(
        SolveRequest(alg if alg == "mis" else "mm", payload,
                     options={"seed": seed}),
        timeout=300,
    )
    if not np.array_equal(res.status, ref.status):
        raise AssertionError(
            f"SERVICE MISMATCH: family={family} n={g.num_vertices} "
            f"m={g.num_edges} alg={alg} seed={seed} "
            f"attempts={res.stats.aux['service']['attempts']}"
        )
    aux = res.stats.aux["service"]
    tally["retried" if aux["retries"] else "clean"] += 1
    if res.stats.aux.get("degraded"):
        tally["degraded"] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential determinism fuzzer (optionally with "
        "fault injection)."
    )
    parser.add_argument("trials", nargs="?", type=int, default=100)
    parser.add_argument("master_seed", nargs="?", type=int, default=0)
    parser.add_argument(
        "--faults", action="store_true",
        help="chaos mode: inject one seeded fault per trial and assert "
        "every fault is detected or harmless (no silent wrong answers)",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="service mode: replay each trial through the crash-isolated "
        "worker pool under worker kills + kernel faults and assert the "
        "result is bit-identical to a clean in-process solve",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="worker-pool size for --service")
    args = parser.parse_args(argv)
    if args.faults and args.service:
        parser.error("--faults and --service are separate modes")
    trials, master_seed = args.trials, args.master_seed
    t0 = time.time()
    master = np.random.default_rng(master_seed)
    tally = collections.Counter()
    reached = set()
    svc = None
    if args.service:
        from repro.resilience import ChaosScenario
        from repro.service import SolverService

        scenario = ChaosScenario(
            name="fuzz-service",
            description="differential service replay under kills + faults",
            workers=args.workers,
            max_retries=8,
            kill_probability=0.15,
            fault_probability=0.15,
            seed=master_seed,
        )
        svc = SolverService(scenario.service_config()).start()
    try:
        for trial in range(trials):
            rng = np.random.default_rng(master.integers(0, 2**63))
            try:
                if args.service:
                    check_service_instance(rng, svc, tally)
                elif args.faults:
                    check_fault_instance(rng, tally, reached)
                else:
                    check_instance(rng)
            except AssertionError as exc:
                print(f"FAIL at trial {trial} (master seed {master_seed}): {exc}")
                return 1
            if (trial + 1) % 20 == 0:
                print(f"  {trial + 1}/{trials} instances ok "
                      f"({time.time() - t0:.1f}s)")
    finally:
        if svc is not None:
            stats = svc.stats()
            svc.shutdown()
    if args.service:
        print(f"all {trials} service replays bit-identical "
              f"({time.time() - t0:.1f}s): "
              f"clean={tally['clean']}, retried={tally['retried']}, "
              f"degraded={tally['degraded']}; "
              f"crashes={stats.worker_crashes}, retries={stats.retries}, "
              f"breaker trips={stats.breaker_trips}")
    elif args.faults:
        print(f"all {trials} injected faults detected or harmless "
              f"({time.time() - t0:.1f}s): " +
              ", ".join(f"{k}={tally[k]}" for k in
                        ("detected", "harmless", "crashed", "not-fired")))
        triples = [(p, k, m) for p, k in _RANK_PAIRS for m in _rank_methods(p)]
        missed = [t for t in triples if t not in reached]
        print(f"rank faults reached {len(triples) - len(missed)}/"
              f"{len(triples)} (problem, fault, method) triples in "
              f"{tally['rank-trials']} rank trials" +
              "".join(f"\n  missed: {p} {k} {m}" for p, k, m in missed))
    else:
        print(f"all {trials} instances deterministic across every engine "
              f"({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
