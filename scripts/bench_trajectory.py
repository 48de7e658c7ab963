#!/usr/bin/env python
"""Record the performance-tier trajectory into ``BENCH_6.json``.

Three measurements, on the "small"-tier paper workloads:

* **Engine ladder** — sequential pointer greedy vs single-process
  ``rootset-vec`` (cold and warm caches) vs ``parallel-vec`` at 1/2/4/8
  shard workers, with bit-exactness asserted against the sequential
  reference on every configuration and per-worker split / barrier-wait
  numbers pulled from ``stats.aux["parallel"]``.
* **Cold vs warm** — the memoized partition/incidence caches cleared per
  run vs reused, quantifying the gap that
  :meth:`SolverService.register_graph`'s precompute-at-registration
  closes for workers.
* **Service payload path** — median submit→result latency for pickled
  payloads vs registered shared-memory payloads on a live
  :class:`~repro.service.SolverService`.

A fourth measurement records the **gateway cache trajectory** into
``BENCH_8.json``: end-to-end HTTP latency through a live
:class:`~repro.service.http.HTTPGateway` for uncached solves (every
request a fresh content address, solved through the worker pool) vs
warm cache hits (one content address, answered from the
content-addressed result cache) vs the degraded serve-stale path.
Determinism makes all three responses byte-identical — the record
quantifies what that equivalence buys (warm hits are required to be
≥ 5× faster than uncached solves).

Speedup numbers are *honest wall clock on this machine*: ``meta.cpu_count``
records the core budget, and on a single-core container the parallel
tier cannot beat the single-process engine — the point of the record is
the split/barrier accounting and the payload-path latencies, which are
meaningful at any core count (see ``meta.caveat``).

A fifth measurement records the **dynamic-session trajectory** into
``BENCH_9.json``: incremental re-peel work under localized edge
mutations (:mod:`repro.dynamic`) on the paper-flavored workloads — a
triangular grid (planar, bounded degree) and a Holme–Kim power-law
cluster graph — plus the mutate round-trip latency of a live session
through the worker-pool service.  The committed claim: the cumulative
re-peel work is a vanishing fraction of from-scratch work
(``total_work_ratio`` well under 1) and the affected region per batch is
a vanishing fraction of the graph.

Usage:
    python scripts/bench_trajectory.py [output.json] [--smoke]
    python scripts/bench_trajectory.py --gateway-only   # BENCH_8.json only
    python scripts/bench_trajectory.py --dynamic-only   # BENCH_9.json only

``--smoke`` shrinks the workloads and repetition counts to run in a few
seconds (used by the tier-1 suite); the default tier matches
``BENCH_rootset.json``.  ``--gateway-only`` skips the engine ladder and
records just the gateway cache trajectory; ``--dynamic-only`` records
just the dynamic-session trajectory.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.backends import shutdown_executors
from repro.bench.workloads import paper_random_graph, paper_rmat_graph
from repro.core.matching import (
    parallel_matching_vectorized,
    rootset_matching_vectorized,
    sequential_greedy_matching,
)
from repro.core.mis import (
    parallel_mis_vectorized,
    rootset_mis_vectorized,
    sequential_greedy_mis,
)
from repro.core.orderings import random_priorities
from repro.graphs.generators import uniform_random_graph
from repro.kernels import clear_partition_caches
from repro.pram.machine import null_machine
from repro.service import ServiceConfig, SolveRequest, SolverService

SEED = 20120215


def _best(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_problem(problem, graph, worker_counts, reps):
    """One problem's ladder: sequential → rootset-vec → parallel-vec × W."""
    if problem == "mis":
        payload = graph
        ranks = random_priorities(graph.num_vertices, seed=SEED)
        seq, vec, par = (
            sequential_greedy_mis,
            rootset_mis_vectorized,
            parallel_mis_vectorized,
        )
    else:
        payload = graph.edge_list()
        ranks = random_priorities(payload.num_edges, seed=SEED)
        seq, vec, par = (
            sequential_greedy_matching,
            rootset_matching_vectorized,
            parallel_matching_vectorized,
        )

    ref = seq(payload, ranks)
    seq_wall = _best(lambda: seq(payload, ranks), max(1, reps // 3))

    vec_cold = _best(
        lambda: (clear_partition_caches(),
                 vec(payload, ranks, machine=null_machine())),
        max(1, reps // 3),
    )
    check = vec(payload, ranks, machine=null_machine())
    assert np.array_equal(check.status, ref.status), f"{problem}: vec mismatch"
    vec_warm = _best(lambda: vec(payload, ranks, machine=null_machine()), reps)

    tiers = {}
    for workers in worker_counts:
        res = par(
            payload, ranks, workers=workers, min_fanout=0,
            machine=null_machine(),
        )
        assert np.array_equal(res.status, ref.status), (
            f"{problem}: parallel-vec x{workers} mismatch"
        )
        wall = _best(
            lambda: par(payload, ranks, workers=workers, min_fanout=0,
                        machine=null_machine()),
            reps,
        )
        aux = res.stats.aux["parallel"]
        tiers[str(workers)] = {
            "wall_s": wall,
            "speedup_vs_sequential": seq_wall / wall,
            "speedup_vs_rootset_vec_warm": vec_warm / wall,
            "fanout_steps": aux["fanout_steps"],
            "local_steps": aux["local_steps"],
            "split": aux["split"],
            "worker_busy_s": aux["worker_busy_s"],
            "barrier_wait_s": aux["barrier_wait_s"],
            "bit_identical_to_sequential": True,
        }
        shutdown_executors()

    return {
        "sequential_wall_s": seq_wall,
        "rootset_vec_wall_cold_s": vec_cold,
        "rootset_vec_wall_warm_s": vec_warm,
        "cold_warm_ratio": vec_cold / vec_warm,
        "parallel_vec": tiers,
    }


def _bench_service(graph, requests, smoke):
    """Median submit→result latency: pickled vs registered payloads."""
    ranks = random_priorities(graph.num_vertices, seed=SEED)

    def _run(svc):
        lat = []
        for _ in range(requests):
            t0 = time.perf_counter()
            svc.submit(SolveRequest(
                problem="mis", payload=graph, ranks=ranks,
                method="rootset-vec",
            )).result()
            lat.append(time.perf_counter() - t0)
        return lat

    svc = SolverService(ServiceConfig(workers=1)).start()
    try:
        _run(svc)  # warm the worker (imports, partition caches)
        pickled = _run(svc)
        svc.register_graph(graph, ranks)
        shared = _run(svc)
        svc.release_graph(graph)
    finally:
        svc.shutdown()
    return {
        "requests": requests,
        "pickled_median_s": float(np.median(pickled)),
        "shared_median_s": float(np.median(shared)),
        "shared_over_pickled": float(np.median(shared) / np.median(pickled)),
    }


def _bench_gateway(graph, requests):
    """End-to-end HTTP latency: uncached vs warm-hit vs serve-stale.

    Latency is measured as a real warm client sees it: request written
    and the full response body read off one persistent (keep-alive)
    connection.  The raw bytes are kept — client-side JSON decoding is
    the client's business, not gateway latency — and double as the
    byte-identity evidence for warm vs stale serving.
    """
    import http.client

    from repro.core.engines import engine_methods
    from repro.service.http import GatewayConfig, HTTPGateway

    ranks = random_priorities(graph.num_vertices, seed=SEED)
    gateway = HTTPGateway(
        config=GatewayConfig(port=0),
        workers=1,
        cache_entries=max(64, 2 * requests),
    )
    gateway.add_graph("bench", graph, ranks)

    with gateway:
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=300)

        def _time(body, expect_source):
            payload = json.dumps(body).encode()
            t0 = time.perf_counter()
            conn.request(
                "POST", "/v1/solve", payload,
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            raw = resp.read()
            wall = time.perf_counter() - t0
            assert resp.status == 200, f"gateway solve failed: {resp.status}"
            source = resp.headers.get("X-Repro-Cache")
            assert source == expect_source, (
                f"expected {expect_source}, served {source}"
            )
            return wall, raw

        # Warm the worker (imports, partition caches) off the record.
        _time({"graph": "bench", "seed": 10**6}, "miss")

        uncached = [
            _time({"graph": "bench", "seed": 10**6 + 1 + i}, "miss")[0]
            for i in range(requests)
        ]
        warm_samples = [
            _time({"graph": "bench"}, "hit") for _ in range(requests)
        ]
        # Serve-stale: open every MIS breaker so the backend is
        # unreachable, then hit the warmed entry through get_stale.
        breakers = [
            gateway.service.breaker("mis", m) for m in engine_methods("mis")
        ]
        for breaker in breakers:
            for _ in range(gateway.service.config.breaker_threshold):
                breaker.record_failure()
        gateway.service.cache.ttl_s = 1e-9  # expire the fresh path
        stale_samples = [
            _time({"graph": "bench"}, "stale") for _ in range(requests)
        ]
        gateway.service.cache.ttl_s = None
        for breaker in breakers:
            breaker.record_success()
        conn.close()

    warm = [wall for wall, _ in warm_samples]
    stale = [wall for wall, _ in stale_samples]
    bodies = {raw for _, raw in warm_samples} | {raw for _, raw in stale_samples}
    uncached_median = float(np.median(uncached))
    warm_median = float(np.median(warm))
    stale_median = float(np.median(stale))
    return {
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "requests": requests,
        "uncached_median_s": uncached_median,
        "warm_hit_median_s": warm_median,
        "stale_median_s": stale_median,
        "warm_speedup_vs_uncached": uncached_median / warm_median,
        "stale_speedup_vs_uncached": uncached_median / stale_median,
        "responses_byte_identical": len(bodies) == 1,
    }


def _bench_dynamic(smoke):
    """Incremental re-peel vs from-scratch under localized mutations.

    Each workload alternates *toggle* batches: odd batches delete a few
    random live edges, even batches re-insert the edges deleted by the
    previous batch — every mutation is localized to an existing
    neighborhood, the paper-flavored regime where the perturbed
    priority-DAG region stays geometrically small.  After the run the
    maintainer's result is asserted bit-identical to a from-scratch
    ``rootset-vec`` solve of the final graph, so the work-ratio numbers
    are for an *exact* maintenance scheme, not an approximation.
    """
    from repro.dynamic import IncrementalMatching, IncrementalMIS
    from repro.graphs.generators import (
        powerlaw_cluster_graph,
        triangular_grid_graph,
    )

    if smoke:
        workloads = {
            "tri_grid": triangular_grid_graph(20, 20),
            "powerlaw_cluster": powerlaw_cluster_graph(400, 4, 0.5, seed=SEED),
        }
        batches, per_batch = 8, 3
    else:
        workloads = {
            "tri_grid": triangular_grid_graph(64, 64),
            "powerlaw_cluster": powerlaw_cluster_graph(4000, 6, 0.5, seed=SEED),
        }
        batches, per_batch = 48, 4

    out = {"workloads": {}, "session": None}
    for wi, (name, graph) in enumerate(workloads.items()):
        el = graph.edge_list()
        entry = {
            "n": graph.num_vertices,
            "m": el.num_edges,
            "batches": batches,
            "edges_per_batch": per_batch,
            "problems": {},
        }
        for pi, problem in enumerate(("mis", "mm")):
            rng = np.random.default_rng((SEED, wi, pi))
            if problem == "mis":
                ranks = random_priorities(graph.num_vertices, seed=SEED)
                maintainer = IncrementalMIS(graph, ranks)
                items = graph.num_vertices
            else:
                maintainer = IncrementalMatching(el, seed=SEED)
                items = el.num_edges
            live = sorted(zip(el.u.tolist(), el.v.tolist()))
            affected = []
            pending = []
            t0 = time.perf_counter()
            for _ in range(batches):
                idx = rng.choice(len(live), size=per_batch, replace=False)
                deleted = [live[i] for i in sorted(idx.tolist())]
                stats = maintainer.apply_batch(
                    insertions=pending, deletions=deleted,
                )
                live = sorted(
                    (set(live) - set(deleted)) | set(map(tuple, pending))
                )
                pending = deleted
                affected.append(int(stats["affected"]))
            incremental_wall = time.perf_counter() - t0

            incremental = maintainer.result()
            if problem == "mis":
                final_graph = maintainer.graph()
                scratch_wall = _best(
                    lambda: rootset_mis_vectorized(
                        final_graph, maintainer.ranks, machine=null_machine(),
                    ),
                    3,
                )
                scratch = rootset_mis_vectorized(
                    final_graph, maintainer.ranks, machine=null_machine(),
                )
            else:
                final_el = maintainer.edge_list()
                final_ranks = maintainer.current_ranks()
                scratch_wall = _best(
                    lambda: rootset_matching_vectorized(
                        final_el, final_ranks, machine=null_machine(),
                    ),
                    3,
                )
                scratch = rootset_matching_vectorized(
                    final_el, final_ranks, machine=null_machine(),
                )
            assert np.array_equal(incremental.status, scratch.status), (
                f"{name}/{problem}: incremental result diverged from scratch"
            )

            dyn = maintainer.counters.aux()
            assert dyn["total_work_ratio"] < 1.0, (
                f"{name}/{problem}: localized mutations must re-peel less "
                f"than from-scratch work, got {dyn['total_work_ratio']}"
            )
            entry["problems"][problem] = {
                "total_work": dyn["total_work"],
                "total_scratch_work": dyn["total_scratch_work"],
                "total_work_ratio": dyn["total_work_ratio"],
                "mean_affected": float(np.mean(affected)),
                "max_affected": int(np.max(affected)),
                "mean_affected_fraction": float(np.mean(affected) / items),
                "incremental_batch_mean_s": incremental_wall / batches,
                "scratch_solve_s": scratch_wall,
                "bit_identical_to_scratch": True,
            }
        out["workloads"][name] = entry

    # Session mutate round-trip through the worker-pool service: the
    # maintainer state lives worker-side (keyed cache) with the parent
    # committing returned state, so a mutate pays one job dispatch.
    sess_graph = next(iter(workloads.values()))
    el = sess_graph.edge_list()
    svc = SolverService(ServiceConfig(workers=1)).start()
    try:
        info = svc.create_session(
            "mis", sess_graph,
            random_priorities(sess_graph.num_vertices, seed=SEED),
        )
        live = sorted(zip(el.u.tolist(), el.v.tolist()))
        rng = np.random.default_rng((SEED, 99))
        requests = 5 if smoke else 20
        lat = []
        pending = []
        for _ in range(requests):
            idx = rng.choice(len(live), size=2, replace=False)
            deleted = [live[i] for i in sorted(idx.tolist())]
            t0 = time.perf_counter()
            svc.mutate_session(
                info.session_id, insertions=pending, deletions=deleted,
            )
            lat.append(time.perf_counter() - t0)
            live = sorted((set(live) - set(deleted)) | set(map(tuple, pending)))
            pending = deleted
        final = svc.session_info(info.session_id)
        svc.close_session(info.session_id)
        out["session"] = {
            "n": sess_graph.num_vertices,
            "m": el.num_edges,
            "mutations": requests,
            "final_version": final.version,
            "mutate_median_s": float(np.median(lat)),
        }
    finally:
        svc.shutdown()
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    if smoke:
        argv.remove("--smoke")
    gateway_only = "--gateway-only" in argv
    if gateway_only:
        argv.remove("--gateway-only")
    dynamic_only = "--dynamic-only" in argv
    if dynamic_only:
        argv.remove("--dynamic-only")
    out_path = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent
        / ("BENCH_9.json" if dynamic_only
           else "BENCH_8.json" if gateway_only
           else "BENCH_6.json")
    )

    if smoke:
        workloads = {"random": uniform_random_graph(2000, 8000, seed=SEED)}
        worker_counts = (1, 2)
        reps, requests = 2, 3
    else:
        workloads = {
            "random": paper_random_graph("small"),
            "rmat": paper_rmat_graph("small"),
        }
        worker_counts = (1, 2, 4, 8)
        reps, requests = 9, 15

    if dynamic_only:
        record = {
            "meta": {
                "scale": "smoke" if smoke else "small",
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
                "method": (
                    "alternating toggle batches (delete a few random live "
                    "edges, re-insert the previous batch's deletions) on a "
                    "triangular grid and a Holme-Kim power-law cluster "
                    "graph; work = affected items + scanned arcs per "
                    "re-peel, scratch_work = items + 2*arcs of a "
                    "from-scratch pass over the current graph; final state "
                    "asserted bit-identical to a from-scratch rootset-vec "
                    "solve; session block = median mutate round-trip "
                    "through a 1-worker SolverService session"
                ),
            },
            "dynamic": _bench_dynamic(smoke),
        }
        for name, entry in record["dynamic"]["workloads"].items():
            for problem, stats in entry["problems"].items():
                print(f"[bench] dynamic {name}/{problem}: "
                      f"work_ratio={stats['total_work_ratio']:.5f} "
                      f"affected~{stats['mean_affected']:.1f}"
                      f"/{entry['n' if problem == 'mis' else 'm']} "
                      f"batch={stats['incremental_batch_mean_s']*1e3:.2f}ms "
                      f"scratch={stats['scratch_solve_s']*1e3:.2f}ms")
        sess = record["dynamic"]["session"]
        print(f"[bench] dynamic session: mutate_median="
              f"{sess['mutate_median_s']*1e3:.2f}ms "
              f"({sess['mutations']} mutations, "
              f"final_version={sess['final_version']})")
        out_path.write_text(json.dumps(record, indent=1))
        print(f"[bench] wrote {out_path}")
        return 0

    if gateway_only:
        gw_graph = next(iter(workloads.values()))
        record = {
            "meta": {
                "scale": "smoke" if smoke else "small",
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
                "method": (
                    "median end-to-end HTTP latency (request written to "
                    "full body read, one persistent loopback connection; "
                    "client-side JSON decode excluded), 1 worker; "
                    "uncached = fresh seed per request (content-address "
                    "miss, solved through the pool), warm = repeated "
                    "requests for one warmed content address (served "
                    "from the result cache plus the gateway's "
                    "encoded-response cache, so the hit skips both the "
                    "solve and re-serialization), stale = same address "
                    "via get_stale with every MIS breaker forced open; "
                    "warm/stale bodies asserted byte-identical"
                ),
            },
            "gateway": _bench_gateway(gw_graph, requests),
        }
        gw = record["gateway"]
        print(f"[bench] gateway: uncached={gw['uncached_median_s']:.4f}s "
              f"hit={gw['warm_hit_median_s']:.5f}s "
              f"stale={gw['stale_median_s']:.5f}s "
              f"(warm speedup {gw['warm_speedup_vs_uncached']:.1f}x)")
        if not smoke:
            # The committed claim (ISSUE acceptance): on the paper's
            # small workloads a warm hit beats an uncached solve >= 5x.
            # At smoke scale the solve is so cheap that HTTP framing
            # dominates both paths, so the ratio is not meaningful.
            assert gw["warm_speedup_vs_uncached"] >= 5.0, (
                "warm cache hits must be >= 5x faster than uncached solves"
            )
        out_path.write_text(json.dumps(record, indent=1))
        print(f"[bench] wrote {out_path}")
        return 0

    record = {
        "meta": {
            "scale": "smoke" if smoke else "small",
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "worker_counts": list(worker_counts),
            "method": (
                "wall clock = best of N interleaved runs; cold clears the "
                "memoized partition/incidence caches per run; parallel-vec "
                "forced to fan out every step (min_fanout=0); every "
                "configuration asserted bit-identical to sequential greedy"
            ),
            "caveat": (
                "speedups are honest wall clock on this machine; with "
                f"cpu_count={os.cpu_count()} the shard processes time-share "
                "cores, so parallel-vec cannot beat the single-process "
                "engine unless cpu_count exceeds the worker count"
            ),
        },
        "workloads": {},
        "service": None,
    }

    for name, graph in workloads.items():
        entry = {"n": graph.num_vertices, "m": graph.num_edges}
        for problem in ("mis", "mm"):
            entry[problem] = _bench_problem(problem, graph, worker_counts, reps)
            print(f"[bench] {name}/{problem}: "
                  f"seq={entry[problem]['sequential_wall_s']:.4f}s "
                  f"vec-warm={entry[problem]['rootset_vec_wall_warm_s']:.4f}s")
        record["workloads"][name] = entry

    svc_graph = next(iter(workloads.values()))
    record["service"] = _bench_service(svc_graph, requests, smoke)
    print(f"[bench] service: pickled={record['service']['pickled_median_s']:.4f}s "
          f"shared={record['service']['shared_median_s']:.4f}s")

    out_path.write_text(json.dumps(record, indent=1))
    print(f"[bench] wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
