"""Assignment-graph dynamic programming (Section IV-B).

The general algorithm of the paper: process connections in increasing
left-end order, maintaining the set of distinct *frontiers* reachable by
some valid partial routing.  The frontier after routing ``c_1..c_i`` is the
``T``-tuple whose ``t``-th entry is the leftmost unoccupied column of track
``t`` at or to the right of ``left(c_{i+1})``.

Key facts implemented here:

* Connection ``c_{i+1}`` may be assigned to track ``t`` iff
  ``x[t] <= left(c_{i+1})`` (Section IV-B), and, for K-segment routing,
  the span occupies at most ``K`` segments of ``t`` (a property of the
  track geometry alone).
* After assignment, the new frontier entry is the column following the
  right end of the segment containing ``right(c)``; all entries are then
  re-normalized to the next connection's left end, which is what keeps the
  number of distinct frontiers bounded (``2^T T!`` for unlimited routing,
  Theorem 5; ``(K+1)^T`` for K-segment routing, Theorem 6).
* Each node keeps a parent pointer and, for Problem 3, the minimum weight
  over all partial routings reaching it; tracing back from the single
  level-``M`` node yields an optimal routing (the paper's "minor change").

The inner loop lives in :mod:`repro.core.kernels`.  Every call here runs
its packed-frontier kernel with dominance pruning,
:func:`~repro.core.kernels.run_dp_vectorized` (wide levels as numpy
batches, narrow ones as a scalar loop); the tuple-based
:func:`~repro.core.kernels.run_dp_reference` is the oracle it is tested
against (see ``docs/PERFORMANCE.md``).

Instrumentation: :func:`route_dp_with_stats` exposes the per-level node
counts so the Theorem 5/6 bounds can be checked experimentally.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.kernels import (
    DPStats,
    active_kernel,
    kernel_trace_enabled,
    record_kernel_trace,
    run_dp_reference,
    run_dp_vectorized,
)
from repro.core.routing import Routing, WeightFunction

__all__ = ["DPStats", "route_dp", "route_dp_with_stats", "assignment_graph_levels"]

#: All three kernel names stay attributes of this module, so code that wraps
#: them here by name (the ``perfbench`` tracer) keeps working:
#: ``run_dp_reference`` is imported for that alone, and ``run_dp_packed``,
#: the retired scalar kernel's name, is a plain alias that nothing calls.
run_dp_packed = run_dp_vectorized


def _run_dp(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight: Optional[WeightFunction],
    node_limit: int,
    *,
    partial: bool = False,
) -> tuple[Optional[Routing], DPStats]:
    # The kernel is looked up in this module's globals on every call, so a
    # wrapper installed on ``repro.core.dp.run_dp_vectorized`` sees each run.
    if not kernel_trace_enabled():
        return run_dp_vectorized(
            channel, connections, max_segments, weight, node_limit, partial=partial
        )
    ts = time.time()
    t0 = time.perf_counter()
    try:
        routing, stats = run_dp_vectorized(
            channel, connections, max_segments, weight, node_limit, partial=partial
        )
    except BaseException as exc:
        record_kernel_trace({
            "ts": ts, "dur": time.perf_counter() - t0,
            "kernel": active_kernel(), "error": type(exc).__name__,
        })
        raise
    record_kernel_trace({
        "ts": ts, "dur": time.perf_counter() - t0,
        "kernel": stats.kernel, "levels": len(stats.nodes_per_level),
        "nodes": stats.total_nodes, "edges": stats.total_edges,
        "pruned": stats.total_pruned,
    })
    return routing, stats


def route_dp(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
) -> Routing:
    """Solve Problems 1, 2 or 3 exactly with the assignment-graph DP.

    Parameters
    ----------
    max_segments:
        ``K`` of Problem 2; ``None`` for unlimited-segment routing.
    weight:
        ``w(c, t)`` of Problem 3; when given, the returned routing has
        minimum total weight among all valid (K-segment) routings.
    node_limit:
        Guard on total assignment-graph size; exceeded only when ``T`` is
        large and the channel segmentation is adversarial (Theorem 5's
        ``2^T T!`` is a real worst case).
    """
    routing, _ = _run_dp(channel, connections, max_segments, weight, node_limit)
    assert routing is not None
    return routing


def route_dp_with_stats(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
) -> tuple[Routing, DPStats]:
    """Like :func:`route_dp` but also returns assignment-graph statistics
    (used by the Theorem 5/6 bound experiments)."""
    routing, stats = _run_dp(channel, connections, max_segments, weight, node_limit)
    assert routing is not None
    return routing, stats


def assignment_graph_levels(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    node_limit: int = 2_000_000,
) -> list[int]:
    """Per-level distinct-frontier counts, or the counts accumulated up to
    the level where the instance became infeasible.

    Unlike :func:`route_dp_with_stats`, this does not raise on infeasible
    instances (or on instances exceeding ``node_limit``); it reports the
    levels that were built, collected in a single pass.
    """
    _, stats = _run_dp(
        channel, connections, max_segments, None, node_limit, partial=True
    )
    return list(stats.nodes_per_level)
