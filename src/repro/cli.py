"""Command-line interface.

Usage (also available as ``python -m repro``)::

    segroute route INSTANCE.sch|@name [--k K] [--algorithm ALG] [--weight length]
                                 [--format text|csv|json]
                                 [--jobs N] [--timeout S] [--stats]
                                 [--trace TRACE.jsonl] [--metrics-out STATS.json]
    segroute batch [INSTANCE ...] [--manifest FILE.jsonl] [--jobs N]
                   [--timeout S] [--k K] [--algorithm ALG] [--weight length]
                   [--format text|json] [--stats]
                   [--trace TRACE.jsonl] [--metrics-out STATS.json]
                   [--checkpoint FILE.jsonl [--resume]] [--watchdog S]
                   [--inject-faults SPEC]
    segroute stats [STATS.json] [--format text|json|prom]
    segroute render INSTANCE.sch [--routed] [--k K]
    segroute generate --tracks T --columns N --connections M [--k K]
                      [--seed S] [--mean-segment L] -o OUT.sch
    segroute reduce --x 2,5,8 --y 9,11,12 --z 11,17,19 [--two-segment]
                    -o OUT.sch
    segroute chip [NETLIST.net] --rows R --cells-per-row C [--timing]
                  [--synthetic N] [--pipeline | --connect HOST:PORT]
                  [--tracks T] [--channel-kind geometric|uniform]
                  [--seg-length L] [--seg-ratio X] [--seg-types S]
                  [--max-rounds R] [--jobs N] [--job-id ID]
                  [--deadline S] [-o REPORT.json]
    segroute bench [--quick] [--check] [--repeats N] [-o BENCH_kernels.json]
    segroute serve [--port P] [--http-port P] [--max-batch B]
                   [--max-wait-ms MS] [--max-queue Q] [--rate R]
                   [--jobs N] [--timeout S] [--trace TRACE.jsonl]
                   [--replicas N] [--hedge-ms MS] [--inject-faults SPEC]
                   [--port-file FILE] [--jobs-dir DIR]
                   [--max-active-jobs N] [--job-deadline S]
    segroute loadgen [INSTANCE ...] [--manifest FILE.jsonl]
                     [--requests N] [--mode closed|open] [--concurrency C]
                     [--rate R] [--deadline-ms MS] [--wire auto|v1|v2]
                     [-o REPORT.json]

Subcommands map 1:1 onto the library: ``route`` runs any of the paper's
algorithms on an ``.sch`` instance, ``batch`` routes many instances
through the :mod:`repro.engine` worker pool, ``render`` draws an
instance, ``generate`` writes a random feasible one, ``reduce``
emits a Theorem-1/2 NP-completeness instance from a numerical matching
problem, ``bench`` runs the DP kernel against its reference oracle
(the perf-regression harness; see docs/PERFORMANCE.md), ``serve``
exposes the engine over the network — ``--replicas N`` runs N
supervised engine replicas behind a failover/hedging router (see
docs/SERVING.md) — and ``loadgen`` drives open-/closed-loop traffic at
a running server or router.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.api import ALGORITHMS, route
from repro.core.errors import ReproError
from repro.core.npc import (
    NMTSInstance,
    build_two_segment_instance,
    build_unlimited_instance,
    normalize_nmts,
)
from repro.core.routing import occupied_length_weight, segment_count_weight
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.io.registry import load_named_instance
from repro.io.results import routing_report, routing_to_csv, routing_to_json
from repro.io.text_format import dump_instance, load_instance
from repro.viz.render import render_channel, render_connections, render_routing

__all__ = ["main"]


def _version() -> str:
    """Version of the code that is actually running.

    ``repro.__version__`` is the single source of truth
    (``pyproject.toml`` reads the same attribute via
    ``[tool.setuptools.dynamic]``); ``importlib.metadata`` is only the
    fallback for exotic installs where the attribute is absent, since
    dist metadata can be stale next to a newer source tree.
    """
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - broken install
        from importlib.metadata import version

        return version("repro")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segroute",
        description="Segmented channel routing (Roychowdhury/Greene/El Gamal)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route an .sch instance")
    p_route.add_argument(
        "instance", help=".sch file path, or @name for a registry instance"
    )
    p_route.add_argument("--k", type=int, default=None, help="K-segment limit")
    p_route.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto",
        help="routing algorithm (default: auto)",
    )
    p_route.add_argument(
        "--weight", choices=("none", "length", "segments"), default="none",
        help="Problem-3 objective to minimize",
    )
    p_route.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        dest="out_format", help="output format",
    )
    p_route.add_argument(
        "--generalized", action="store_true",
        help="allow connections to change tracks (Problem 4)",
    )
    p_route.add_argument(
        "--min-switches", action="store_true",
        help="with --generalized: minimize programmed switches",
    )
    p_route.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; >1 races the portfolio candidates "
             "through the engine (default: 1, classic in-process routing)",
    )
    p_route.add_argument(
        "--timeout", type=float, default=None,
        help="deadline in seconds; on expiry the engine degrades "
             "exact -> lp -> greedy before giving up",
    )
    p_route.add_argument(
        "--stats", action="store_true",
        help="print engine stats (latency, cache, timeouts) after routing",
    )
    p_route.add_argument(
        "--trace", metavar="TRACE.jsonl",
        help="write one JSON span per line for the request "
             "(see docs/OBSERVABILITY.md)",
    )
    p_route.add_argument(
        "--metrics-out", metavar="STATS.json",
        help="write the engine metrics snapshot as JSON "
             "(render later with `segroute stats`)",
    )
    p_route.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent shared result cache: previously-solved "
             "instances (any process pointing at DIR) are answered "
             "from disk (see docs/SERVING.md)",
    )

    p_batch = sub.add_parser(
        "batch", help="route many instances through the engine worker pool"
    )
    p_batch.add_argument(
        "instances", nargs="*",
        help=".sch paths or @name registry instances",
    )
    p_batch.add_argument(
        "--manifest",
        help="JSONL manifest: one {\"path\": ..., \"k\": ...} per line "
             "(\"instance\" is accepted as an alias for \"path\")",
    )
    p_batch.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (default: one per CPU)",
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds",
    )
    p_batch.add_argument("--k", type=int, default=None, help="K-segment limit")
    p_batch.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto",
        help="routing algorithm (default: auto)",
    )
    p_batch.add_argument(
        "--weight", choices=("none", "length", "segments"), default="none",
        help="Problem-3 objective to minimize",
    )
    p_batch.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="out_format", help="report format",
    )
    p_batch.add_argument(
        "--stats", action="store_true",
        help="print per-algorithm latency and cache counters",
    )
    p_batch.add_argument(
        "--trace", metavar="TRACE.jsonl",
        help="write one JSON span per line, one connected span tree per "
             "request (see docs/OBSERVABILITY.md); analyze with "
             "tools/trace_report.py",
    )
    p_batch.add_argument(
        "--metrics-out", metavar="STATS.json",
        help="write the engine metrics snapshot as JSON "
             "(render later with `segroute stats`)",
    )
    p_batch.add_argument(
        "--checkpoint", metavar="FILE.jsonl",
        help="journal each completed result to this checksummed JSONL "
             "file as it finishes (see docs/RESILIENCE.md)",
    )
    p_batch.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: restore journaled results and re-run "
             "only the instances lost to the interruption",
    )
    p_batch.add_argument(
        "--watchdog", type=float, default=None, metavar="S",
        help="SIGKILL a worker whose task has run S seconds without "
             "returning, rebuild the pool, and retry the task",
    )
    p_batch.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos-testing only: deterministic fault plan, e.g. "
             "\"crash=0.1,hang=0.05,seed=7\" (falls back to the "
             "ENGINE_FAULT_PLAN environment variable)",
    )
    p_batch.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent shared result cache: instances already solved "
             "by any process pointing at DIR are answered from disk, "
             "and this batch's solves are written back for the next run",
    )

    p_stats = sub.add_parser(
        "stats",
        help="render a saved metrics snapshot (or the live default engine)",
    )
    p_stats.add_argument(
        "snapshot", nargs="?", default=None,
        help="metrics snapshot JSON written by --metrics-out "
             "(default: the in-process default engine's live snapshot)",
    )
    p_stats.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        dest="out_format",
        help="text (human), json (snapshot dict), or prom "
             "(Prometheus text exposition)",
    )

    p_render = sub.add_parser("render", help="draw an .sch instance")
    p_render.add_argument("instance")
    p_render.add_argument(
        "--routed", action="store_true", help="also route and draw the result"
    )
    p_render.add_argument("--k", type=int, default=None)

    p_gen = sub.add_parser(
        "generate", help="write a random feasible instance"
    )
    p_gen.add_argument("--tracks", type=int, required=True)
    p_gen.add_argument("--columns", type=int, required=True)
    p_gen.add_argument("--connections", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--mean-segment", type=float, default=5.0,
        help="mean segment length of the random channel",
    )
    p_gen.add_argument("-o", "--output", required=True)

    p_red = sub.add_parser(
        "reduce", help="emit a Theorem-1/2 instance from an NMTS problem"
    )
    p_red.add_argument("--x", required=True, help="comma-separated xs")
    p_red.add_argument("--y", required=True, help="comma-separated ys")
    p_red.add_argument("--z", required=True, help="comma-separated zs")
    p_red.add_argument(
        "--two-segment", action="store_true",
        help="build the Theorem-2 (K=2) instance instead of Theorem-1",
    )
    p_red.add_argument("-o", "--output", required=True)

    p_chip = sub.add_parser(
        "chip", help="route a .net netlist through the full FPGA flow"
    )
    p_chip.add_argument(
        "netlist", nargs="?", default=None,
        help="path to the .net file (optional with --synthetic)",
    )
    p_chip.add_argument("--rows", type=int, required=True)
    p_chip.add_argument("--cells-per-row", type=int, required=True)
    p_chip.add_argument("--inputs", type=int, default=3)
    p_chip.add_argument("--k", type=int, default=2)
    p_chip.add_argument("--seed", type=int, default=0)
    p_chip.add_argument(
        "--timing", action="store_true", help="also run static timing analysis"
    )
    p_chip.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="generate a seeded random netlist of N nets instead of "
             "reading a file",
    )
    p_chip.add_argument(
        "--pipeline", action="store_true",
        help="run the explicit chip pipeline (global route + negotiated "
             "per-channel solves with per-round digests) instead of the "
             "one-shot design flow; see docs/PIPELINE.md",
    )
    p_chip.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="submit the chip as a job to a running `segroute serve "
             "--jobs-dir ...` server (or router) and poll it to "
             "completion",
    )
    p_chip.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto",
        help="pipeline mode: per-channel routing algorithm",
    )
    p_chip.add_argument(
        "--tracks", type=int, default=8,
        help="pipeline mode: tracks per channel (default: 8)",
    )
    p_chip.add_argument(
        "--channel-kind", choices=("geometric", "uniform"),
        default="geometric",
        help="pipeline mode: channel segmentation family",
    )
    p_chip.add_argument(
        "--seg-length", type=int, default=4,
        help="pipeline mode: shortest (geometric) or uniform segment "
             "length (default: 4)",
    )
    p_chip.add_argument(
        "--seg-ratio", type=float, default=2.0,
        help="pipeline mode: geometric length ratio (default: 2)",
    )
    p_chip.add_argument(
        "--seg-types", type=int, default=3,
        help="pipeline mode: geometric segment-length types (default: 3)",
    )
    p_chip.add_argument(
        "--max-rounds", type=int, default=8,
        help="pipeline mode: congestion negotiation rounds (default: 8)",
    )
    p_chip.add_argument(
        "--jobs", type=int, default=0,
        help="offline pipeline: engine workers for per-channel solves "
             "(default: 0, serial)",
    )
    p_chip.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="offline pipeline with --jobs: persistent shared result "
             "cache directory",
    )
    p_chip.add_argument(
        "--job-id", default=None,
        help="with --connect: explicit job id (resubmitting the same "
             "id + spec re-attaches to the existing job)",
    )
    p_chip.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="with --connect: server-side job deadline in seconds",
    )
    p_chip.add_argument(
        "--poll-interval", type=float, default=0.3, metavar="S",
        help="with --connect: job.status poll period (default: 0.3)",
    )
    p_chip.add_argument(
        "--wait-timeout", type=float, default=None, metavar="S",
        help="with --connect: give up polling after S seconds",
    )
    p_chip.add_argument(
        "-o", "--output", default=None,
        help="pipeline mode: write a JSON report (rounds + digest)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the DP kernel against the reference kernel",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small smoke set (what CI's bench-smoke job runs)",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="exit 1 if the kernel is >10%% slower than reference on any "
             "batch, or if any result digest diverges",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per batch; best-of is reported (default: 3)",
    )
    p_bench.add_argument(
        "-o", "--output", default="BENCH_kernels.json",
        help="report path (default: BENCH_kernels.json)",
    )

    p_serve = sub.add_parser(
        "serve", help="serve the engine over newline-delimited JSON"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7455,
        help="protocol port (0 picks an ephemeral port; default: 7455)",
    )
    p_serve.add_argument(
        "--http-port", type=int, default=7456,
        help="admin port: /healthz /readyz /metrics (default: 7456)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1,
        help="engine workers per micro-batch (default: 1)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-request engine deadline in seconds",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch window size bound (default: 16)",
    )
    p_serve.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="micro-batch window age bound in ms (default: 5)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound on in-flight requests (default: 64)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None,
        help="token-bucket rate in req/s (default: unlimited)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket burst capacity (default: 1s of --rate)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to wait for in-flight work on SIGTERM (default: 10)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--trace", metavar="TRACE.jsonl",
        help="write one JSON span per line for every request",
    )
    p_serve.add_argument(
        "--port-file", metavar="FILE",
        help="write {\"port\", \"http_port\", \"pid\"} JSON after binding "
             "(how a supervisor discovers ephemeral ports)",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="replicated mode: supervise N engine replica processes "
             "behind a failover router on --port (default: 0, single "
             "server)",
    )
    p_serve.add_argument(
        "--hedge-ms", type=float, default=None, metavar="MS",
        help="replicated mode: hedge straggler requests against a "
             "second replica after MS milliseconds",
    )
    p_serve.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos-testing only: seeded serve-layer fault plan, e.g. "
             "'conn_drop=0.05,kill_replica_after=20,seed=7'",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent shared result cache directory; with --replicas "
             "all replicas share it, so solved instances survive "
             "replica restarts and cross replica boundaries",
    )
    p_serve.add_argument(
        "--jobs-dir", metavar="DIR", default=None,
        help="durable state directory for chip-routing jobs (job.* "
             "ops / `segroute chip --connect`): specs, per-round "
             "journals, and results live here, so a killed server "
             "resumes its jobs bit-identically on restart "
             "(see docs/PIPELINE.md)",
    )
    p_serve.add_argument(
        "--max-active-jobs", type=int, default=1,
        help="chip jobs run concurrently (job-class admission; "
             "default: 1)",
    )
    p_serve.add_argument(
        "--max-queued-jobs", type=int, default=16,
        help="queued chip jobs before job.submit answers overloaded "
             "(default: 16)",
    )
    p_serve.add_argument(
        "--job-deadline", type=float, default=None, metavar="S",
        help="default per-job wall-clock deadline in seconds",
    )

    p_load = sub.add_parser(
        "loadgen", help="drive open-/closed-loop traffic at a server"
    )
    p_load.add_argument(
        "instances", nargs="*",
        help=".sch paths or @name registry instances for the corpus "
             "(default: a generated corpus of --corpus-size instances)",
    )
    p_load.add_argument(
        "--manifest",
        help="JSONL manifest: one {\"path\": ..., \"k\": ...} per line",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=7455)
    p_load.add_argument(
        "--requests", type=int, default=100,
        help="total requests to send (default: 100)",
    )
    p_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: --concurrency workers; open: --rate arrivals/s",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop worker count (default: 8)",
    )
    p_load.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate in req/s",
    )
    p_load.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request latency budget carried to the admission layer",
    )
    p_load.add_argument("--k", type=int, default=None, help="K-segment limit")
    p_load.add_argument(
        "--weight", choices=("none", "length", "segments"), default="none",
    )
    p_load.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto",
    )
    p_load.add_argument(
        "--corpus-size", type=int, default=16,
        help="generated corpus size when no instances are given",
    )
    p_load.add_argument(
        "--timeout", type=float, default=30.0,
        help="client-side per-request timeout in seconds",
    )
    p_load.add_argument(
        "--wire", choices=("auto", "v1", "v2"), default="auto",
        help="client framing: auto negotiates binary when the server "
             "offers it, v1 forces NDJSON, v2 requires binary",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "-o", "--output", default=None,
        help="also write the JSON report here",
    )
    return parser


def _load(spec: str):
    """Load an instance from a path, or from the registry via ``@name``."""
    if spec.startswith("@"):
        return load_named_instance(spec[1:])
    return load_instance(spec)


def _trace_sink(args: argparse.Namespace):
    """Open the ``--trace`` JSONL sink, or None when tracing is off."""
    if not getattr(args, "trace", None):
        return None
    from repro.obs.trace import JsonlTraceSink

    return JsonlTraceSink(args.trace)


def _write_metrics(engine, args: argparse.Namespace) -> None:
    """Honor ``--metrics-out``: dump the engine snapshot as JSON."""
    if not getattr(args, "metrics_out", None):
        return
    import json as _json

    with open(args.metrics_out, "w", encoding="utf-8") as fh:
        _json.dump(engine.stats(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_route(args: argparse.Namespace) -> int:
    channel, conns = _load(args.instance)
    if args.generalized:
        return _route_generalized(channel, conns, args)
    weight = None
    if args.weight == "length":
        weight = occupied_length_weight(channel)
    elif args.weight == "segments":
        weight = segment_count_weight(channel)
    engine = None
    if (
        args.timeout is not None or args.jobs > 1 or args.stats
        or args.trace or args.metrics_out or args.cache_dir
    ):
        # Engine path: deadline enforcement, portfolio racing,
        # persistent caching, and/or observability (tracing and
        # metrics export).
        from repro.engine import EngineConfig, RoutingEngine

        sink = _trace_sink(args)
        try:
            engine = RoutingEngine(
                EngineConfig(cache_dir=args.cache_dir), trace_sink=sink
            )
            routing = engine.route(
                channel, conns, max_segments=args.k,
                weight=None if args.weight == "none" else args.weight,
                algorithm=args.algorithm, timeout=args.timeout,
                portfolio=args.jobs > 1,
            )
        finally:
            if engine is not None:
                engine.close()
            if sink is not None:
                sink.close()
        _write_metrics(engine, args)
    else:
        routing = route(
            channel, conns, max_segments=args.k, weight=weight,
            algorithm=args.algorithm,
        )
    if args.out_format == "csv":
        sys.stdout.write(routing_to_csv(routing))
    elif args.out_format == "json":
        sys.stdout.write(routing_to_json(routing) + "\n")
    else:
        sys.stdout.write(routing_report(routing, weight))
    if args.stats:
        sys.stdout.write(engine.render_stats())
    return 0


def _load_batch_specs(args: argparse.Namespace) -> list[tuple[str, Optional[int]]]:
    """Resolve the batch's (instance spec, K) list from args + manifest.

    Raises :class:`~repro.core.errors.ManifestError` — naming the
    manifest path and 1-based line number — for any malformed line:
    invalid JSON, a non-object record, a missing/non-string instance
    path, or a non-integer ``k``.
    """
    import json as _json

    from repro.core.errors import ManifestError

    specs: list[tuple[str, Optional[int]]] = [
        (spec, args.k) for spec in args.instances
    ]
    if args.manifest:
        try:
            with open(args.manifest) as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        record = _json.loads(line)
                        if not isinstance(record, dict):
                            raise TypeError(
                                f"expected a JSON object, got "
                                f"{type(record).__name__}"
                            )
                        spec = record.get("path") or record["instance"]
                        if not isinstance(spec, str):
                            raise TypeError(
                                "instance path must be a string, got "
                                f"{spec!r}"
                            )
                        k = record.get("k", args.k)
                        if k is not None and not isinstance(k, int):
                            raise TypeError(f"k must be an integer, got {k!r}")
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ManifestError(
                            f"{args.manifest}:{line_no}: bad manifest line "
                            f"({exc})"
                        ) from exc
                    specs.append((spec, k))
        except OSError as exc:
            raise ManifestError(f"cannot read manifest: {exc}") from exc
    if not specs:
        raise ReproError("batch needs instance paths and/or --manifest")
    return specs


def _fault_plan(args: argparse.Namespace):
    """Resolve the fault plan from ``--inject-faults`` / ``ENGINE_FAULT_PLAN``."""
    import os

    from repro.engine.resilience import FaultPlan

    spec = args.inject_faults or os.environ.get("ENGINE_FAULT_PLAN")
    return FaultPlan.parse(spec) if spec else None


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine import EngineConfig, RoutingEngine
    from repro.engine.resilience import CheckpointJournal
    from repro.io.results import batch_report, batch_to_json

    if args.jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {args.jobs}")
    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint")
    specs = _load_batch_specs(args)
    instances = [_load(spec) for spec, _ in specs]
    sink = _trace_sink(args)
    engine = RoutingEngine(EngineConfig(
        jobs=args.jobs, watchdog=args.watchdog, fault_plan=_fault_plan(args),
        cache_dir=args.cache_dir,
    ), trace_sink=sink)
    journal = None
    if args.checkpoint:
        # --resume on a missing/empty journal is an operator error (wrong
        # path, or nothing was checkpointed): fail with a typed message.
        journal = CheckpointJournal(
            args.checkpoint, resume=args.resume, require_records=args.resume,
        )
    try:
        results = engine.route_many(
            instances,
            max_segments=[k for _, k in specs],
            weight=None if args.weight == "none" else args.weight,
            algorithm=args.algorithm,
            timeout=args.timeout,
            journal=journal,
        )
    finally:
        engine.close()
        if journal is not None:
            journal.close()
        if sink is not None:
            sink.close()
    _write_metrics(engine, args)
    labels = [spec for spec, _ in specs]
    if args.out_format == "json":
        sys.stdout.write(batch_to_json(results, labels) + "\n")
    else:
        sys.stdout.write(batch_report(results, labels))
    if args.stats:
        sys.stdout.write(engine.render_stats())
    return 0 if all(r.ok for r in results) else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    if args.snapshot is not None:
        try:
            with open(args.snapshot, encoding="utf-8") as fh:
                snap = _json.load(fh)
        except OSError as exc:
            raise ReproError(f"cannot read snapshot: {exc}") from exc
        except ValueError as exc:
            raise ReproError(
                f"{args.snapshot}: not a metrics snapshot ({exc})"
            ) from exc
        if not isinstance(snap, dict) or "counters" not in snap:
            raise ReproError(
                f"{args.snapshot}: not a metrics snapshot "
                f"(expected a JSON object with a 'counters' key)"
            )
        snap.setdefault("derived", {})
        snap.setdefault("histograms", {})
    else:
        from repro.engine import stats

        snap = stats()
    if args.out_format == "json":
        sys.stdout.write(_json.dumps(snap, indent=2, sort_keys=True) + "\n")
    elif args.out_format == "prom":
        from repro.obs.prom import render_prometheus

        sys.stdout.write(render_prometheus(snap))
    else:
        from repro.engine.metrics import render_snapshot

        sys.stdout.write(render_snapshot(snap))
    return 0


def _route_generalized(channel, conns, args: argparse.Namespace) -> int:
    from repro.core.generalized import (
        generalized_switch_count,
        route_generalized,
        route_generalized_min_switches,
    )
    from repro.viz.render import render_generalized_routing

    if args.min_switches:
        g, n_switches = route_generalized_min_switches(channel, conns)
    else:
        g = route_generalized(channel, conns)
        n_switches = generalized_switch_count(g)
    g.validate()
    print(render_generalized_routing(g))
    print(f"programmed switches: {n_switches}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    channel, conns = _load(args.instance)
    print(render_connections(conns, channel.n_columns))
    print()
    print(render_channel(channel))
    if args.routed:
        routing = route(channel, conns, max_segments=args.k)
        print()
        print(render_routing(routing))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    channel = random_channel(
        args.tracks, args.columns, args.mean_segment, seed=args.seed
    )
    conns = random_feasible_instance(
        channel, args.connections, seed=args.seed + 1, max_segments=args.k
    )
    dump_instance(args.output, channel, conns)
    print(
        f"wrote {args.output}: T={channel.n_tracks} N={channel.n_columns} "
        f"M={len(conns)}"
    )
    return 0


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ReproError(f"expected comma-separated integers, got {text!r}")


def _cmd_reduce(args: argparse.Namespace) -> int:
    nmts = NMTSInstance(
        tuple(sorted(_parse_ints(args.x))),
        tuple(sorted(_parse_ints(args.y))),
        tuple(sorted(_parse_ints(args.z))),
    )
    norm, m, p = normalize_nmts(nmts)
    builder = (
        build_two_segment_instance if args.two_segment else build_unlimited_instance
    )
    instance = builder(norm)
    dump_instance(args.output, instance.channel, instance.connections)
    k_note = " (route with --k 2)" if args.two_segment else ""
    print(
        f"wrote {args.output}: {instance.kind} instance, "
        f"T={instance.channel.n_tracks} M={len(instance.connections)} "
        f"(normalized with m={m}, p={p}){k_note}"
    )
    return 0


def _chip_spec(args: argparse.Namespace):
    """Build the :class:`~repro.jobs.ChipSpec` for the pipeline modes."""
    from repro.fpga.netlist import random_netlist
    from repro.io.netlist_format import dumps_netlist
    from repro.jobs import ChipSpec

    if args.synthetic is not None:
        text = dumps_netlist(
            random_netlist(args.synthetic, args.inputs, seed=args.seed)
        )
    elif args.netlist:
        try:
            with open(args.netlist, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ReproError(f"cannot read netlist: {exc}") from exc
    else:
        raise ReproError("chip needs a netlist path or --synthetic N")
    return ChipSpec(
        netlist_text=text,
        rows=args.rows,
        cells_per_row=args.cells_per_row,
        inputs=args.inputs,
        tracks=args.tracks,
        channel_kind=args.channel_kind,
        seg_length=args.seg_length,
        seg_ratio=args.seg_ratio,
        seg_types=args.seg_types,
        max_segments=args.k,
        algorithm=args.algorithm,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )


def _write_chip_report(args: argparse.Namespace, report: dict) -> None:
    if not args.output:
        return
    import json as _json

    with open(args.output, "w", encoding="utf-8") as fh:
        _json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")


def _cmd_chip_offline(args: argparse.Namespace) -> int:
    """``segroute chip --pipeline``: the explicit pipeline, in-process."""
    from repro.jobs import run_chip_pipeline

    spec = _chip_spec(args)
    engine = None
    if args.jobs and args.jobs > 0:
        from repro.engine import EngineConfig, RoutingEngine

        engine = RoutingEngine(EngineConfig(
            jobs=args.jobs, seed=spec.seed, cache_dir=args.cache_dir,
        ))

    def on_round(report) -> None:
        failed = ",".join(str(c) for c in report.failed_channels) or "-"
        print(
            f"round {report.round_index}: ok={report.ok} "
            f"failed=[{failed}] moved={report.moved} "
            f"digest={report.digest[:16]}"
        )

    try:
        result = run_chip_pipeline(spec, engine=engine, on_round=on_round)
    finally:
        if engine is not None:
            engine.close()
    print(
        f"pipeline {'ok' if result.ok else 'FAILED'}: "
        f"{len(result.rounds)} round(s), best round "
        f"{result.best_round}, digest {result.digest}"
    )
    _write_chip_report(args, {
        "mode": "offline",
        "spec": spec.to_payload(),
        "ok": result.ok,
        "digest": result.digest,
        "best_round": result.best_round,
        "rounds": [r.to_payload() for r in result.rounds],
        "duration_s": result.duration_s,
    })
    return 0 if result.ok else 1


def _cmd_chip_connect(args: argparse.Namespace) -> int:
    """``segroute chip --connect``: submit as a job and poll it home."""
    from repro.serve.client import RoutingClient

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        ) from None
    spec = _chip_spec(args)
    with RoutingClient(host or "127.0.0.1", port) as client:
        job = client.submit_job(
            spec, job_id=args.job_id, deadline_s=args.deadline
        )
        job_id = job["job_id"]
        print(f"submitted job {job_id}: {job['state']}")
        status = client.wait_job(
            job_id, poll_interval=args.poll_interval,
            timeout=args.wait_timeout,
        )
        report = {"mode": "connect", "job": status}
        if status["state"] != "done":
            print(
                f"job {job_id} {status['state']}: "
                f"{status.get('error_type')}: {status.get('error')}"
            )
            _write_chip_report(args, report)
            return 2
        page = client.fetch_job_records(job_id)
        report["digest"] = page["digest"]
        report["n_records"] = len(page["records"])
        print(
            f"job {job_id} done: ok={status['ok']} "
            f"rounds={status['n_rounds']} resumed={status['resumed']} "
            f"records={len(page['records'])}"
        )
        print(f"digest {page['digest']}")
        _write_chip_report(args, report)
        return 0 if status.get("ok") else 1


def _cmd_chip(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_chip_connect(args)
    if args.pipeline:
        return _cmd_chip_offline(args)
    from repro.fpga.delay import DelayModel
    from repro.fpga.design_link import design_chip
    from repro.fpga.timing import analyze_timing
    from repro.io.netlist_format import load_netlist

    if not args.netlist:
        raise ReproError("chip needs a netlist path (or --pipeline "
                         "--synthetic N)")
    netlist = load_netlist(args.netlist)
    closure = design_chip(
        netlist, args.rows, args.cells_per_row, args.inputs,
        max_segments=args.k, seed=args.seed,
    )
    print(closure.summary())
    print()
    print(closure.routing.summary())
    if not closure.routing.ok:
        return 1
    if args.timing:
        report = analyze_timing(closure.routing, DelayModel())
        print()
        print(report.summary())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.kernel_bench import (
        check_report,
        render_report,
        run_kernel_bench,
        write_report,
    )

    if args.repeats < 1:
        raise ReproError(f"--repeats must be >= 1, got {args.repeats}")
    report = run_kernel_bench(quick=args.quick, repeats=args.repeats)
    write_report(report, args.output)
    print(render_report(report))
    print(f"wrote {args.output}")
    if args.check:
        failures = check_report(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("check passed: kernels within budget, results identical")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import RoutingServer, ServeConfig

    sink = _trace_sink(args)
    if args.replicas and args.replicas > 0:
        from repro.serve.replica import ReplicaSet
        from repro.serve.router import RouterConfig, RoutingRouter

        plan = _fault_plan(args)
        replica_set = ReplicaSet(
            args.replicas,
            host=args.host,
            seed=args.seed,
            jobs=args.jobs,
            timeout=args.timeout,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            cache_dir=args.cache_dir,
            fault_plan=plan,
        )
        # Admission is lifted to the router in replicated mode: --rate /
        # --burst shape the per-replica token buckets at the front.
        router = RoutingRouter(
            replica_set,
            RouterConfig(
                host=args.host, port=args.port, http_port=args.http_port,
                hedge_ms=args.hedge_ms,
                replica_rate=args.rate, replica_burst=args.burst,
                replica_queue=args.max_queue,
                drain_grace=args.drain_grace, seed=args.seed,
                port_file=args.port_file,
            ),
            trace_sink=sink,
            fault_plan=plan,
            own_replica_set=True,
        )
        try:
            asyncio.run(router.run())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            if sink is not None:
                sink.close()
        return 0

    server = RoutingServer(ServeConfig(
        host=args.host, port=args.port, http_port=args.http_port,
        jobs=args.jobs, timeout=args.timeout, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, max_queue=args.max_queue,
        rate=args.rate, burst=args.burst, drain_grace=args.drain_grace,
        seed=args.seed, port_file=args.port_file,
        cache_dir=args.cache_dir,
        jobs_dir=args.jobs_dir,
        max_active_jobs=args.max_active_jobs,
        max_queued_jobs=args.max_queued_jobs,
        job_deadline_s=args.job_deadline,
        fault_plan=_fault_plan(args),
    ), trace_sink=sink)
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        if sink is not None:
            sink.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.loadgen import render_report, run_loadgen

    corpus = None
    if args.instances or args.manifest:
        specs = _load_batch_specs(args)
        corpus = [(*_load(spec), k) for spec, k in specs]
    report = run_loadgen(
        args.host, args.port,
        corpus=corpus, corpus_size=args.corpus_size,
        requests=args.requests, mode=args.mode,
        concurrency=args.concurrency, rate=args.rate,
        deadline_ms=args.deadline_ms,
        weight=None if args.weight == "none" else args.weight,
        algorithm=args.algorithm, timeout=args.timeout, seed=args.seed,
        wire=args.wire,
    )
    print(render_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0 if report["protocol_errors"] == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "route": _cmd_route,
        "batch": _cmd_batch,
        "stats": _cmd_stats,
        "render": _cmd_render,
        "generate": _cmd_generate,
        "reduce": _cmd_reduce,
        "chip": _cmd_chip,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
