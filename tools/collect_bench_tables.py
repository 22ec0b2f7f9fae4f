#!/usr/bin/env python3
"""Regenerate the experiment tables embedded in EXPERIMENTS.md.

Runs the benchmark suite (or consumes an existing log) and extracts every
experiment report block — the lines each bench prints through its `show`
fixture — into one text file for easy diffing against EXPERIMENTS.md.

Also runs a small routing-engine benchmark and writes a machine-readable
``BENCH_engine.json`` (instance size, algorithm, wall-time, cache-hit
rate, active DP kernel) so the performance trajectory of
:mod:`repro.engine` is trackable across PRs, and folds in the
DP-kernel-vs-reference timings from
:mod:`repro.analysis.kernel_bench` (also available standalone as
``segroute bench``) and the deadline-overrun sweep quoted in
docs/ENGINE.md.

Usage:
    python tools/collect_bench_tables.py                 # runs the benches
    python tools/collect_bench_tables.py --from-log F    # parse existing log
    python tools/collect_bench_tables.py -o tables.txt
    python tools/collect_bench_tables.py --engine-only   # just BENCH_engine.json
    python tools/collect_bench_tables.py --no-engine     # skip the engine bench
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

#: Experiment report headers, as printed by the benches.
HEADER = re.compile(
    r"^(FIG|NPC|THM|LP60|DAC90|DELAY|SCALE|ABLATION|ANALYTIC|FAMILIES|"
    r"ECO|OPEN|DECOMP)"
)
#: Lines that terminate a report block.
TERMINATOR = re.compile(r"^\.+\s*(\[|$)|benchmark: \d+ tests")

#: Engine-bench corpus shapes: (n_tracks, n_columns, n_connections, count).
#: Sized so one full run stays in the tens of seconds on a single CPU —
#: larger shapes cross into the exponential DP regime.
ENGINE_CORPUS = (
    (4, 30, 8, 60),
    (8, 60, 16, 40),
    (10, 80, 20, 8),
)


def extract_tables(text: str) -> str:
    """Pull the report blocks out of a pytest-benchmark log."""
    out: list[str] = []
    active = False
    for line in text.splitlines():
        if HEADER.match(line):
            if out:
                out.append("")
            active = True
        elif active and TERMINATOR.search(line):
            active = False
            continue
        if active:
            out.append(line.rstrip())
    return "\n".join(out) + "\n"


def run_engine_bench(jobs: int = 0) -> dict:
    """Route a random corpus sequentially, in parallel, and repeated.

    Returns the ``BENCH_engine.json`` payload: one entry per corpus
    shape with wall-times for ``jobs=1`` vs ``jobs=N`` plus the cache-hit
    rate of a repeated pass over the same corpus.
    """
    from repro.engine import EngineConfig, RoutingEngine, default_jobs
    from repro.generators.random_instances import (
        random_channel,
        random_feasible_instance,
    )

    from repro.core.kernels import active_kernel

    jobs = jobs or default_jobs()
    kernel = active_kernel()
    entries = []
    for n_tracks, n_columns, n_connections, count in ENGINE_CORPUS:
        instances = []
        for s in range(count):
            channel = random_channel(
                n_tracks, n_columns, 5.0, seed=s + n_tracks * 1000
            )
            conns = random_feasible_instance(
                channel, n_connections, seed=s + n_tracks * 1000 + 1
            )
            instances.append((channel, conns))

        engine = RoutingEngine(EngineConfig(seed=0))
        start = time.perf_counter()
        sequential = engine.route_many(instances, jobs=1)
        sequential_s = time.perf_counter() - start

        engine.clear_cache()
        engine.reset_stats()
        start = time.perf_counter()
        parallel = engine.route_many(instances, jobs=jobs)
        parallel_s = time.perf_counter() - start

        engine.reset_stats()
        engine.route_many(instances, jobs=1)  # repeated pass: cache hits
        snapshot = engine.stats()

        entries.append({
            "n_tracks": n_tracks,
            "n_columns": n_columns,
            "n_connections": n_connections,
            "instances": count,
            "algorithm": "auto",
            "kernel": kernel,
            "cpus": os.cpu_count(),
            "ok": sum(1 for r in sequential if r.ok),
            "sequential_s": round(sequential_s, 4),
            "parallel_s": round(parallel_s, 4),
            "jobs": jobs,
            "speedup": round(sequential_s / parallel_s, 3) if parallel_s else None,
            "results_identical": all(
                (a.routing and a.routing.assignment)
                == (b.routing and b.routing.assignment)
                for a, b in zip(sequential, parallel)
            ),
            "cache_hit_rate": round(
                snapshot["derived"].get("cache.hit_rate", 0.0), 4
            ),
        })
    from repro.analysis.kernel_bench import run_kernel_bench

    return {
        "generated_unix": int(time.time()),
        "cpus": os.cpu_count(),
        "kernel": kernel,
        "entries": entries,
        "kernels": run_kernel_bench(quick=True)["batches"],
        "deadline_overrun": run_deadline_overrun_bench(),
    }


#: Deadline-overrun sweep: 20 budgets from 50 to 430 ms per exact solver.
OVERRUN_BUDGETS_MS = tuple(range(50, 431, 20))


def run_deadline_overrun_bench() -> dict:
    """Measure how far a deadline-bounded solve runs past its budget.

    Runs :func:`repro.engine.executor.attempt_route` on the Theorem-2
    reduction of the paper's Example-1 NMTS instance (each exact solver
    needs seconds on it) once per budget in :data:`OVERRUN_BUDGETS_MS`
    for ``exact``, ``dp`` and ``dp_types``, and returns the overrun
    (elapsed minus budget; 0 for a solve that finishes early) p50 and
    max per solver in ms.
    """
    import statistics

    from repro.core.errors import EngineTimeout
    from repro.core.npc import build_two_segment_instance, normalize_nmts
    from repro.engine.executor import attempt_route
    from repro.generators.paper_examples import example1_nmts

    norm, _, _ = normalize_nmts(example1_nmts())
    built = build_two_segment_instance(norm)
    overrun_ms = {}
    for algorithm in ("exact", "dp", "dp_types"):
        overruns = []
        for budget_ms in OVERRUN_BUDGETS_MS:
            started = time.monotonic()
            try:
                attempt_route(built.channel, built.connections, 2, None,
                              algorithm, budget_ms / 1000.0)
            except EngineTimeout:
                pass
            elapsed_ms = (time.monotonic() - started) * 1000.0
            overruns.append(max(0.0, elapsed_ms - budget_ms))
        overrun_ms[algorithm] = {
            "p50": round(statistics.median(overruns), 1),
            "max": round(max(overruns), 1),
        }
    return {
        "cpus": os.cpu_count(),
        "budgets_ms": list(OVERRUN_BUDGETS_MS),
        "overrun_ms": overrun_ms,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--from-log", help="parse an existing bench log")
    parser.add_argument(
        "-o", "--output", default="bench_tables.txt",
        help="where to write the extracted tables",
    )
    parser.add_argument(
        "--engine-json", default="BENCH_engine.json",
        help="where to write the engine benchmark JSON",
    )
    parser.add_argument(
        "--engine-only", action="store_true",
        help="run only the engine benchmark (skip the pytest benches)",
    )
    parser.add_argument(
        "--no-engine", action="store_true",
        help="skip the engine benchmark",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker count for the engine benchmark (default: per CPU)",
    )
    args = parser.parse_args(argv)

    if not args.engine_only:
        if args.from_log:
            text = Path(args.from_log).read_text()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "benchmarks/",
                 "--benchmark-only"],
                capture_output=True, text=True, cwd=_REPO_ROOT,
            )
            text = proc.stdout + proc.stderr
            if proc.returncode != 0:
                print("warning: bench run exited nonzero", file=sys.stderr)
        tables = extract_tables(text)
        Path(args.output).write_text(tables)
        print(f"wrote {args.output} ({tables.count(chr(10))} lines)")

    if not args.no_engine:
        payload = run_engine_bench(jobs=args.jobs)
        Path(args.engine_json).write_text(json.dumps(payload, indent=2) + "\n")
        overrun = payload["deadline_overrun"]["overrun_ms"]
        print(
            f"wrote {args.engine_json} "
            f"({len(payload['entries'])} corpus shapes, "
            f"{payload['cpus']} cpus; deadline overrun p50/max ms: "
            + ", ".join(
                f"{alg} {row['p50']}/{row['max']}"
                for alg, row in overrun.items()
            )
            + ")"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
