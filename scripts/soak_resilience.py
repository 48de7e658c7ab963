#!/usr/bin/env python
"""Run the declarative chaos scenarios and write the resilience report.

The one chaos runner: it executes :data:`repro.resilience.SCENARIOS` —
kernel faults, worker kills pre/post compute, the mixed kill-and-fault
request storm, shard kills mid-barrier, shared-memory segment attacks,
deadline storms, queue floods, the HTTP gateway storm and network
attacks, session churn and ambiguous session retries — via
:func:`repro.resilience.run_scenario`, then checks the invariants each
scenario is allowed to bend and the ones it never may:

* typed :class:`repro.errors.ReproError` failures and shed load are
  *expected* under chaos;
* every requested operation ends exactly once, as an answer
  bit-identical to sequential greedy, a typed failure or shed load;
* untyped errors, mismatches, leaked ``/dev/shm`` segments surviving
  the reap, and stray worker processes are *never* acceptable.

The report is written as Markdown (default
``results/soak_resilience.md``) so a run's evidence can be committed.
It splits each service row's chaos counts into those the seed fixes
and those that depend on completion order.

Usage:
    python scripts/soak_resilience.py                  # full volume
    python scripts/soak_resilience.py --scale 0.34     # smoke volume
    python scripts/soak_resilience.py --only segment-corrupt --out -
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.resilience import (
    SCENARIOS,
    SEEDED_COUNTS,
    TIMING_COUNTS,
    run_scenario,
    scenario_by_name,
)


def run_suite(args):
    """Run the selected scenarios, returning their outcomes in order."""
    scenarios = (
        [scenario_by_name(name) for name in args.only]
        if args.only
        else list(SCENARIOS)
    )
    outcomes = []
    for scenario in scenarios:
        if args.scale != 1.0:
            scenario = scenario.scaled(args.scale)
        print(f"running {scenario.name} ({scenario.requests} requests)...",
              flush=True)
        outcome = run_scenario(scenario, seed_offset=args.seed)
        verdict = "ok" if outcome.ok else "FAILED"
        print(f"  {verdict}: {outcome.completed}/{outcome.requests} verified,"
              f" {outcome.failed} typed failures, {outcome.shed} shed,"
              f" {outcome.checks} checks,"
              f" {len(outcome.reaped_segments)} reaped,"
              f" {outcome.duration_s:.1f}s", flush=True)
        outcomes.append((scenario, outcome))
    return outcomes


def _plural(k: int, word: str) -> str:
    return f"{k} {word}{'' if k == 1 else 's'}"


def render_report(outcomes, args) -> str:
    ok = all(o.ok for _, o in outcomes)

    def total(attr):
        return sum(getattr(o, attr) for _, o in outcomes)

    leaked = sum(len(o.leaked_segments) for _, o in outcomes)
    reaped = sum(len(o.reaped_segments) for _, o in outcomes)
    command = f"python scripts/soak_resilience.py --seed {args.seed}"
    if args.scale != 1.0:
        command += f" --scale {args.scale}"
    if args.only:
        command += " --only " + " ".join(args.only)
    lines = [
        "# Resilience soak report",
        "",
        f"Verdict: **{'SURVIVED' if ok else 'FAILED'}** — "
        f"{len(outcomes)} chaos scenarios, {total('completed')}/"
        f"{total('requests')} requested operations verified, "
        f"{total('failed')} typed failures, {total('shed')} shed, "
        f"{_plural(total('checks'), 'check')} passed, "
        f"{_plural(reaped, 'orphaned segment')} reaped, "
        f"{_plural(leaked, 'leaked segment')}, "
        f"in {total('duration_s'):.1f}s.",
        "",
        "Reproduce with:",
        "",
        "```",
        command,
        "```",
        "",
        "Each requested operation (a solve, a reap round, or one session "
        "mutation per session per batch) ends exactly once: verified "
        "bit-identical to a sequential greedy solve of the same instance, "
        "a typed failure (deadline exceeded, worker crash, invalid "
        "ordering after corruption), or shed load.  Checks are verified "
        "answers the runner asks for on its own: re-solves after a shard "
        "kill, each session's final answer, the cache-poison probe and a "
        "fresh gateway's serve.  Untyped errors, mismatches, unaccounted "
        "operations, leaked segments and stray processes fail the soak.",
        "",
        "| scenario | requests | verified | typed failures | shed | checks "
        "| reaped | leaked | strays | time (s) | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for scenario, o in outcomes:
        failures = (
            ", ".join(f"{k}×{v}" for k, v in sorted(o.failures.items()))
            or "—"
        )
        lines.append(
            f"| {scenario.name} | {o.requests} | {o.completed} "
            f"| {failures} | {o.shed} | {o.checks} "
            f"| {len(o.reaped_segments)} | {len(o.leaked_segments)} "
            f"| {len(o.stray_processes)} | {o.duration_s:.1f} "
            f"| {'ok' if o.ok else 'FAILED'} |"
        )
    chaos = [(s, o) for s, o in outcomes if any(o.counts.values())]
    if chaos:
        lines += [
            "",
            "## Chaos counts",
            "",
            "The seed fixes the first five columns when requests are "
            "submitted in order, as the in-process service rows submit "
            "them: an attempt's kill, and its fault on a given engine, "
            "come from a stream keyed by (chaos seed, request id, "
            "attempt), and a fault is drawn only from the kinds whose "
            "kernel the attempt's engine binds.  Breaker trips and "
            "degraded serves depend on completion order: a breaker opens "
            "on consecutive failures across workers.  An attempt that an "
            "open breaker moves to another engine draws from that engine's "
            "faults, and a request every breaker refuses ends early, so a "
            "row whose breakers trip can move the seeded counts too.  Over "
            "HTTP, concurrent clients take request ids in arrival order, so "
            "gateway rows replay none of these counts.",
            "",
            "| scenario | " + " | ".join(
                c.replace("_", " ") for c in SEEDED_COUNTS + TIMING_COUNTS
            ) + " |",
            "|---|" + "---|" * len(SEEDED_COUNTS + TIMING_COUNTS),
        ]
        for scenario, o in chaos:
            lines.append(
                f"| {scenario.name} | " + " | ".join(
                    str(o.counts[c]) for c in SEEDED_COUNTS + TIMING_COUNTS
                ) + " |"
            )
    lines += ["", "## Scenarios", ""]
    for scenario, o in outcomes:
        lines.append(f"- **{scenario.name}** — {scenario.description}")
        for note in o.notes:
            lines.append(f"  - {note}")
        for title, items in (("untyped", o.untyped_failures),
                             ("mismatch", o.mismatches),
                             ("leaked", o.leaked_segments),
                             ("stray", o.stray_processes)):
            for item in items:
                lines.append(f"  - **{title}**: {item}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the declarative chaos-scenario suite and write "
        "a resilience soak report."
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed offset mixed into every scenario stream")
    parser.add_argument("--only", nargs="*", default=None, metavar="NAME",
                        help="run only the named scenarios")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-volume factor (0.34 = smoke volume)")
    parser.add_argument("--out", default="results/soak_resilience.md",
                        help="report path ('-' = stdout only)")
    args = parser.parse_args(argv)

    outcomes = run_suite(args)
    report = render_report(outcomes, args)
    print()
    print(report)
    if args.out != "-":
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"report written to {path}")
    return 0 if all(o.ok for _, o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
