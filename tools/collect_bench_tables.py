#!/usr/bin/env python3
"""Regenerate the experiment tables embedded in EXPERIMENTS.md.

Runs the benchmark suite (or consumes an existing log) and extracts every
experiment report block — the lines each bench prints through its `show`
fixture — into one text file for easy diffing against EXPERIMENTS.md.

Also runs a small routing-engine benchmark and writes a machine-readable
``BENCH_engine.json`` (instance size, algorithm, wall-time, cache-hit
rate, active DP kernel) so the performance trajectory of
:mod:`repro.engine` is trackable across PRs, and folds in the
reference-vs-packed kernel timings from
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


#: Serve-bench runs: (label, mode, requests, concurrency, rate, deadline_ms).
#: A calm closed loop (digest-verified against the offline engine), a
#: saturating closed loop, and an open loop hot enough to trigger the
#: admission layer on a 1-CPU host.
SERVE_RUNS = (
    ("closed_calm", "closed", 32, 4, None, None),
    ("closed_saturated", "closed", 64, 16, None, None),
    ("open_overload", "open", 256, 0, 4000.0, 20.0),
)


def _run_serve_scenarios(seed: int, corpus, wire: str) -> dict:
    """One framing's measurement: fresh server, warmup pass, then
    every :data:`SERVE_RUNS` shape through ``run_loadgen``.

    A fresh server per framing keeps the comparison honest (neither
    framing inherits the other's cache warmth), and the discarded
    warmup pass makes the measured runs steady-state — the regime a
    long-lived serving tier actually operates in.
    """
    import asyncio
    import threading

    from repro.serve import RoutingServer, ServeConfig
    from repro.serve.loadgen import run_loadgen

    server = RoutingServer(ServeConfig(
        port=0, http_port=0, seed=seed, max_queue=16,
    ))
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def serve() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_until_complete(server.serve_forever())
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not ready.wait(30):
        raise RuntimeError("serve bench: server failed to start")

    try:
        # Warmup: one full pass over the corpus, report discarded.
        run_loadgen(
            "127.0.0.1", server.port, corpus=corpus,
            requests=len(corpus), mode="closed", concurrency=4,
            seed=seed, include_server_stats=False, wire=wire,
        )
        runs = {}
        for label, mode, requests, concurrency, rate, deadline_ms in SERVE_RUNS:
            runs[label] = run_loadgen(
                "127.0.0.1", server.port, corpus=corpus,
                requests=requests, mode=mode, concurrency=concurrency,
                rate=rate, deadline_ms=deadline_ms, seed=seed, wire=wire,
            )
    finally:
        loop.call_soon_threadsafe(server.request_drain)
        thread.join(30)
    return runs


def run_serve_bench(seed: int = 0) -> dict:
    """Serve a corpus over loopback and measure the serving stack.

    Runs every :data:`SERVE_RUNS` traffic shape twice — once per wire
    framing (NDJSON v1, binary v2), each against its own freshly
    started :class:`repro.serve.RoutingServer` with a warmup pass — and
    digest-checks both calm runs against an offline ``route_many`` of
    the same corpus.  Returns the ``BENCH_serve.json`` payload: binary
    v2 under ``runs`` (the recommended framing), NDJSON v1 under
    ``runs_v1``, and a ``wire`` section comparing the two.
    """
    from repro.engine import EngineConfig, RoutingEngine
    from repro.io.results import result_stream_digest
    from repro.serve.loadgen import build_corpus

    corpus = build_corpus(32, seed)
    runs_v1 = _run_serve_scenarios(seed, corpus, "v1")
    runs = _run_serve_scenarios(seed, corpus, "v2")

    offline = RoutingEngine(EngineConfig(seed=seed)).route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    offline_digest = result_stream_digest(offline)
    p50_v1 = runs_v1["closed_calm"]["latency_ms"]["p50"]
    p50_v2 = runs["closed_calm"]["latency_ms"]["p50"]
    return {
        "generated_unix": int(time.time()),
        "cpus": os.cpu_count(),
        "corpus_size": len(corpus),
        "offline_digest": offline_digest,
        "digest_identical": (
            runs["closed_calm"].get("digest") == offline_digest
            and runs_v1["closed_calm"].get("digest") == offline_digest
        ),
        "wire": {
            "closed_calm_p50_ms_v1": p50_v1,
            "closed_calm_p50_ms_v2": p50_v2,
            "closed_calm_p50_speedup": (
                round(p50_v1 / p50_v2, 3) if p50_v2 else None
            ),
            "negotiated_v1": runs_v1["closed_calm"]["wire"]["negotiated"],
            "negotiated_v2": runs["closed_calm"]["wire"]["negotiated"],
        },
        "runs": runs,
        "runs_v1": runs_v1,
        "replicated_faulted": run_replicated_fault_bench(seed),
        "warm_restart": run_warm_restart_bench(seed),
    }


def run_warm_restart_bench(seed: int = 0, requests: int = 32) -> dict:
    """Persistent-cache warm restart: SIGKILL a server, relaunch, reuse.

    Launches a real ``segroute serve`` subprocess with ``--cache-dir``,
    drives one calm loadgen pass (the *cold* life: every instance is
    solved and written through to the shared cache), SIGKILLs the
    process — no drain, no fsync courtesy — relaunches it on the same
    cache directory, and repeats the pass.  The warm life must answer
    from the persistent tier (``cache.persist.hits`` > 0, every request
    a ``serve.cache_fastpath`` hit) with answers digest-identical to the
    cold life and to the offline engine.  Recorded in
    ``BENCH_serve.json`` so the restart win (and its latency shape) is
    tracked release over release.
    """
    import json as _json
    import signal
    import tempfile

    from repro.engine import EngineConfig, RoutingEngine
    from repro.io.results import result_stream_digest
    from repro.serve.loadgen import build_corpus, run_loadgen
    from repro.serve.replica import ReplicaSet

    corpus = build_corpus(16, seed)

    def one_life(workdir: str, cache_dir: str, life: int):
        port_file = os.path.join(workdir, f"life-{life}.json")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
                "--port-file", port_file,
                "--seed", str(seed),
                "--cache-dir", cache_dir,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=ReplicaSet._child_env(),
        )
        deadline = time.monotonic() + 30
        port = None
        while time.monotonic() < deadline:
            try:
                with open(port_file, encoding="utf-8") as fh:
                    port = int(_json.load(fh)["port"])
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        if port is None:
            proc.kill()
            raise RuntimeError("warm-restart bench: server failed to start")
        report = run_loadgen(
            "127.0.0.1", port, corpus=corpus,
            requests=requests, mode="closed", concurrency=4, seed=seed,
        )
        return proc, report

    with tempfile.TemporaryDirectory(prefix="segroute-warmbench-") as workdir:
        cache_dir = os.path.join(workdir, "cache")
        proc, cold = one_life(workdir, cache_dir, 0)
        # SIGKILL: the ungraceful death the persistent tier must absorb.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc, warm = one_life(workdir, cache_dir, 1)
        proc.terminate()
        proc.wait(timeout=15)

    offline = RoutingEngine(EngineConfig(seed=seed)).route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    offline_digest = result_stream_digest(offline)
    warm_counters = (warm.get("server") or {}).get("counters", {})
    return {
        "requests": requests,
        "corpus_size": len(corpus),
        "cold_p50_ms": cold["latency_ms"]["p50"],
        "warm_p50_ms": warm["latency_ms"]["p50"],
        "persist_hits": warm_counters.get("cache.persist.hits", 0),
        "fastpath_hits": warm_counters.get("serve.cache_fastpath", 0),
        "digest_identical": (
            cold.get("digest") == offline_digest
            and warm.get("digest") == offline_digest
        ),
    }


def run_replicated_fault_bench(
    seed: int = 0, replicas: int = 3, requests: int = 100
) -> dict:
    """Availability under faults: loadgen a replicated tier being killed.

    Starts a :class:`repro.serve.ReplicaSet` of real replica processes
    behind a :class:`repro.serve.RoutingRouter`, with a seeded
    :class:`~repro.engine.resilience.faults.FaultPlan` that SIGKILLs one
    replica a third of the way through the run, then drives a closed
    loadgen through the router.  The scenario's contract — zero
    client-visible failures, at least one recorded failover, digest
    identical to the offline engine — is what the ``serve-chaos`` CI job
    asserts; here the same run is recorded into ``BENCH_serve.json``
    with per-replica failover/shed counts.
    """
    import asyncio
    import threading

    from repro.engine import EngineConfig, RoutingEngine
    from repro.engine.resilience.faults import FaultPlan
    from repro.io.results import result_stream_digest
    from repro.serve import ReplicaSet, RouterConfig, RoutingRouter
    from repro.serve.loadgen import build_corpus, run_loadgen

    corpus = build_corpus(25, seed)
    plan = FaultPlan(kill_replica_after=requests // 3, seed=seed + 7)
    replica_set = ReplicaSet(
        replicas, seed=seed, fault_plan=plan, heartbeat_interval=0.2,
    )
    router = RoutingRouter(
        replica_set,
        RouterConfig(port=0, http_port=0, seed=seed, forward_timeout=10.0),
        fault_plan=plan,
        own_replica_set=True,
    )
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def serve() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(router.start())
        ready.set()
        loop.run_until_complete(router.serve_forever())
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not ready.wait(60):
        raise RuntimeError("replicated bench: router failed to start")

    try:
        report = run_loadgen(
            "127.0.0.1", router.port, corpus=corpus,
            requests=requests, mode="closed", concurrency=8, seed=seed,
        )
    finally:
        loop.call_soon_threadsafe(router.request_drain)
        thread.join(60)

    offline = RoutingEngine(EngineConfig(seed=seed)).route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    server_stats = report.get("server") or {}
    counters = server_stats.get("counters", {})
    statuses = report["statuses"]
    completed = report["completed"] or 1
    return {
        "replicas": replicas,
        "requests": requests,
        "faults": plan.as_spec(),
        "availability": round(statuses.get("ok", 0) / completed, 4),
        "statuses": statuses,
        "shed": report["shed"],
        "failovers": counters.get("serve.router.failovers", 0),
        "breaker_opens": counters.get("serve.router.breaker_opens", 0),
        "hedges": counters.get("serve.router.hedges", 0),
        "replica_kills": counters.get("serve.replica.fault_kills", 0),
        "restarts": counters.get("serve.replica.restarts", 0),
        "digest_identical": (
            report.get("digest") == result_stream_digest(offline)
        ),
        "per_replica": server_stats.get("replicas", {}),
        "latency_ms": report["latency_ms"],
    }


#: Pipeline-bench corpus: seeded 3-row chips at mixed track counts, so
#: the sweep covers converging, partially-failing, and negotiation-heavy
#: chips.  Mixed outcomes matter: only successful per-channel solves
#: land in the canonical cache, so an all-infeasible corpus would make
#: the warm-resubmit measurement vacuous.
PIPELINE_CHIPS = 24
PIPELINE_NETS = 14


def _pipeline_corpus():
    from repro.fpga.netlist import random_netlist
    from repro.io.netlist_format import dumps_netlist
    from repro.jobs import ChipSpec

    specs = []
    for seed in range(PIPELINE_CHIPS):
        specs.append(ChipSpec(
            netlist_text=dumps_netlist(
                random_netlist(PIPELINE_NETS, 3, seed=seed)
            ),
            rows=3, cells_per_row=6, tracks=4 + seed % 3, seg_types=2,
            seed=seed, max_rounds=8,
        ))
    return specs


def run_pipeline_bench(jobs: int = 0) -> dict:
    """Route a corpus of chips through the jobs pipeline three ways.

    Serial (in-process per-channel solves), engine-backed (batched
    ``route_many`` with a persistent cache dir), and a warm resubmit of
    the same corpus against the already-populated cache — the second
    ``job.submit`` a long-lived serving tier actually sees.  Returns
    the ``BENCH_pipeline.json`` payload with wall-times, channel
    throughput, the warm cache-hit rate, and the digest-parity verdict
    across all three passes.
    """
    import tempfile

    from repro.engine import EngineConfig, RoutingEngine, default_jobs
    from repro.jobs import run_chip_pipeline

    jobs = jobs or default_jobs()
    specs = _pipeline_corpus()

    start = time.perf_counter()
    serial = [run_chip_pipeline(spec) for spec in specs]
    serial_s = time.perf_counter() - start
    channels = sum(
        sum(r.n_solved for r in result.rounds) for result in serial
    )

    with tempfile.TemporaryDirectory(prefix="segroute-pipebench-") as cache:
        engine = RoutingEngine(
            EngineConfig(jobs=jobs, seed=0, cache_dir=cache)
        )
        try:
            start = time.perf_counter()
            engined = [
                run_chip_pipeline(spec, engine=engine) for spec in specs
            ]
            engine_s = time.perf_counter() - start

            engine.reset_stats()
            start = time.perf_counter()
            warm = [
                run_chip_pipeline(spec, engine=engine) for spec in specs
            ]
            warm_s = time.perf_counter() - start
            snapshot = engine.stats()
        finally:
            engine.close()

    return {
        "generated_unix": int(time.time()),
        "cpus": os.cpu_count(),
        "chips": len(specs),
        "nets_per_chip": PIPELINE_NETS,
        "converged_chips": sum(1 for r in serial if r.ok),
        "channel_solves": channels,
        "jobs": jobs,
        "serial_s": round(serial_s, 4),
        "engine_s": round(engine_s, 4),
        "warm_submit_s": round(warm_s, 4),
        "serial_channels_per_s": round(channels / serial_s, 1),
        "engine_channels_per_s": round(channels / engine_s, 1),
        "warm_channels_per_s": round(channels / warm_s, 1),
        "engine_speedup": round(serial_s / engine_s, 3) if engine_s else None,
        "warm_speedup": round(serial_s / warm_s, 3) if warm_s else None,
        "warm_cache_hit_rate": round(
            snapshot["derived"].get("cache.hit_rate", 0.0), 4
        ),
        "digest_identical": all(
            a.digest == b.digest == c.digest
            for a, b, c in zip(serial, engined, warm)
        ),
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
        "--serve-json", default="BENCH_serve.json",
        help="where to write the serving benchmark JSON",
    )
    parser.add_argument(
        "--serve-only", action="store_true",
        help="run only the serving benchmark (implies --no-engine)",
    )
    parser.add_argument(
        "--no-serve", action="store_true",
        help="skip the serving benchmark",
    )
    parser.add_argument(
        "--pipeline-json", default="BENCH_pipeline.json",
        help="where to write the chip-pipeline benchmark JSON",
    )
    parser.add_argument(
        "--pipeline-only", action="store_true",
        help="run only the chip-pipeline benchmark",
    )
    parser.add_argument(
        "--no-pipeline", action="store_true",
        help="skip the chip-pipeline benchmark",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker count for the engine benchmark (default: per CPU)",
    )
    args = parser.parse_args(argv)

    if args.serve_only:
        args.no_engine = True
        args.no_pipeline = True
    if args.engine_only:
        args.no_pipeline = True
    if args.pipeline_only:
        args.no_engine = True
        args.no_serve = True

    if not args.engine_only and not args.serve_only and not args.pipeline_only:
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

    if not args.no_pipeline:
        payload = run_pipeline_bench(jobs=args.jobs)
        Path(args.pipeline_json).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(
            f"wrote {args.pipeline_json} "
            f"({payload['channel_solves']} channel solves over "
            f"{payload['chips']} chips, "
            f"{payload['converged_chips']} converged; serial "
            f"{payload['serial_channels_per_s']}/s, engine "
            f"{payload['engine_channels_per_s']}/s, warm resubmit "
            f"{payload['warm_channels_per_s']}/s, digest "
            f"{'identical' if payload['digest_identical'] else 'DIVERGED'})"
        )

    if not args.no_serve:
        payload = run_serve_bench()
        Path(args.serve_json).write_text(json.dumps(payload, indent=2) + "\n")
        faulted = payload["replicated_faulted"]
        warm = payload["warm_restart"]
        print(
            f"wrote {args.serve_json} "
            f"({len(payload['runs'])} traffic shapes, digest "
            f"{'identical' if payload['digest_identical'] else 'DIVERGED'}; "
            f"replicated availability {faulted['availability']:.2%} with "
            f"{faulted['failovers']} failovers under faults; warm restart "
            f"{warm['persist_hits']} persist hits, digest "
            f"{'identical' if warm['digest_identical'] else 'DIVERGED'})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
