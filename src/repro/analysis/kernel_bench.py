"""DP kernel benchmark (the perf-regression harness).

Runs the same instance families as ``benchmarks/test_dp_scaling_m.py``
and ``benchmarks/test_dp_scaling_k.py`` through the production DP kernel
(:func:`~repro.core.kernels.run_dp_vectorized`, the one behind
``route_dp``) and the reference kernel, its oracle, and reports, per
batch:

* best-of-``repeats`` wall-clock for each kernel and the speedup
  (production vs reference);
* ``result_stream_digest`` equality — the production kernel must be
  *bit-identical* to the reference, including on infeasible instances;
* assignment-graph node counts before/after dominance pruning.

``scale_k`` includes a *wide* tier — unlimited-segment instances on
10-track channels whose levels hold hundreds of frontiers (the
Theorem 5 ``2^T·T!`` regime) — because that is where the kernel's numpy
path runs; the narrow tiers keep its scalar path honest about
small-level overhead.

The ``segroute bench`` CLI subcommand wraps :func:`run_kernel_bench` and
writes ``BENCH_kernels.json``; CI's ``bench-smoke`` job runs it with
``--quick --check`` and fails when the production kernel is more than
10% slower than the reference on any batch, or any digest diverges.
All numbers are single-process, single-thread — see the CPU caveat in
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import os
import time
from types import SimpleNamespace
from typing import Callable

from repro.core.errors import RoutingInfeasibleError
from repro.core.geometry import channel_geometry
from repro.core.kernels import run_dp_reference, run_dp_vectorized
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.io.results import result_stream_digest

__all__ = [
    "build_batches",
    "run_kernel_bench",
    "check_report",
    "render_report",
]

#: Fail threshold for ``--check``: the production kernel slower than the
#: reference by more than this fraction on any batch.
MAX_SLOWDOWN = 0.10


def _scale_m_batch(sizes: tuple[int, ...]) -> list[tuple]:
    items = []
    for M in sizes:
        ch = random_channel(5, 6 * M + 20, 5.0, seed=3)
        cs = random_feasible_instance(ch, M, seed=53, mean_length=4.0)
        items.append((ch, cs, None))
    return items


#: Wide-tier instances for ``scale_k``: ``(channel_seed, conn_seed)`` on
#: a 10-track, 30-column channel with 24 connections.  Mean level widths
#: run 100-180 frontiers (Theorem 5 growth), which is the regime the
#: vectorized kernel exists for.
_WIDE_CASES = ((2, 42), (2, 41), (1, 41))
_WIDE_CASES_QUICK = ((2, 41),)


def _scale_k_batch(n_instances: int, wide_cases: tuple) -> list[tuple]:
    items = []
    for K in (1, 2, 3, None):
        for seed in range(n_instances):
            ch = random_channel(6, 60, 3.0, seed=seed)
            cs = random_feasible_instance(
                ch, 16, seed=500 + seed, max_segments=1, mean_length=2.5
            )
            items.append((ch, cs, K))
    for seed, cseed in wide_cases:
        ch = random_channel(10, 30, 4.0, seed=seed)
        cs = random_feasible_instance(ch, 24, seed=cseed, mean_length=2.2)
        items.append((ch, cs, None))
    return items


def build_batches(quick: bool = False) -> dict[str, list[tuple]]:
    """Benchmark batches: name -> list of ``(channel, connections, K)``.

    Mirrors the ``benchmarks/test_dp_scaling_*`` families (same
    generators, same seeds) so BENCH_kernels.json speaks about the same
    instances as the pytest benchmarks, plus the wide Theorem-5 tier in
    ``scale_k``.  ``quick`` shrinks the set for CI smoke runs.
    """
    return {
        "scale_m": _scale_m_batch((25, 50) if quick else (25, 50, 100, 200)),
        "scale_k": _scale_k_batch(
            3 if quick else 8,
            _WIDE_CASES_QUICK if quick else _WIDE_CASES,
        ),
    }


def _run_batch(items: list[tuple], kernel: Callable) -> tuple[list, list]:
    """Route every item with ``kernel``; collect digestable records."""
    records = []
    stats_list = []
    for i, (ch, cs, K) in enumerate(items):
        try:
            routing, stats = kernel(ch, cs, K)
            error_type = None
        except RoutingInfeasibleError as exc:
            routing, stats, error_type = None, None, type(exc).__name__
        records.append(
            SimpleNamespace(index=i, routing=routing, error_type=error_type)
        )
        stats_list.append(stats)
    return records, stats_list


def _time_batch(
    items: list[tuple], kernel: Callable, repeats: int
) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for ch, cs, K in items:
            try:
                kernel(ch, cs, K)
            except RoutingInfeasibleError:
                pass
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_bench(quick: bool = False, repeats: int = 3) -> dict:
    """Run the harness; returns the BENCH_kernels.json payload."""
    batches = build_batches(quick)
    out_batches = []
    for name, items in batches.items():
        # Warm the geometry cache outside the timed region: both kernels
        # share it, and in real use it is built once per channel anyway.
        for ch, _, _ in items:
            channel_geometry(ch)

        ref_records, _ = _run_batch(items, run_dp_reference)
        vec_records, vec_stats = _run_batch(items, run_dp_vectorized)
        ref_digest = result_stream_digest(ref_records)
        vec_digest = result_stream_digest(vec_records)

        ref_time = _time_batch(items, run_dp_reference, repeats)
        vec_time = _time_batch(items, run_dp_vectorized, repeats)

        nodes_kept = sum(s.total_nodes for s in vec_stats if s is not None)
        nodes_pruned = sum(s.total_pruned for s in vec_stats if s is not None)
        out_batches.append({
            "name": name,
            "instances": len(items),
            "feasible": sum(1 for r in ref_records if r.routing is not None),
            "reference_s": round(ref_time, 6),
            "vectorized_s": round(vec_time, 6),
            "speedup": round(ref_time / vec_time, 3) if vec_time else None,
            "results_identical": ref_digest == vec_digest,
            "result_stream_digest": vec_digest,
            "dp_nodes_before_pruning": nodes_kept + nodes_pruned,
            "dp_nodes_after_pruning": nodes_kept,
            "dp_nodes_pruned": nodes_pruned,
        })
    speedups = [b["speedup"] for b in out_batches if b["speedup"]]
    return {
        "schema": "kernel-bench/3",
        "quick": quick,
        "repeats": repeats,
        "cpus": os.cpu_count() or 1,
        "batches": out_batches,
        "speedup_min": min(speedups) if speedups else None,
        "speedup_max": max(speedups) if speedups else None,
    }


def check_report(report: dict, max_slowdown: float = MAX_SLOWDOWN) -> list[str]:
    """Regression gate for ``segroute bench --check``: list of failures
    (empty means pass)."""
    failures = []
    for batch in report["batches"]:
        if not batch["results_identical"]:
            failures.append(
                f"{batch['name']}: kernels disagree "
                f"(result_stream_digest mismatch)"
            )
        speedup = batch["speedup"]
        if speedup is not None and speedup < 1.0 - max_slowdown:
            failures.append(
                f"{batch['name']}: vectorized kernel {1 / speedup:.2f}x "
                f"slower than reference (allowed slowdown {max_slowdown:.0%})"
            )
    return failures


def render_report(report: dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"kernel bench (cpus={report['cpus']}, repeats={report['repeats']}"
        f"{', quick' if report['quick'] else ''})",
        f"{'batch':<10} {'inst':>4} {'reference':>10} {'vector':>10} "
        f"{'spdup':>6} {'pruned':>8} {'identical':>9}",
    ]
    for b in report["batches"]:
        lines.append(
            f"{b['name']:<10} {b['instances']:>4} "
            f"{b['reference_s'] * 1000:>8.1f}ms "
            f"{b['vectorized_s'] * 1000:>8.1f}ms "
            f"{b['speedup']:>5.2f}x {b['dp_nodes_pruned']:>8} "
            f"{str(b['results_identical']):>9}"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
