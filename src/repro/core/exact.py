"""Exact backtracking solvers — the library's ground-truth oracle.

The assignment-graph DP of Section IV-B is also exact, but an independent
implementation with a completely different search strategy is invaluable:
every other router in the library is tested against this one on small
instances.

Key geometric fact (used here and in :mod:`repro.core.dp`): when
connections are processed in increasing left-end order, the occupied
columns of each track at or to the right of the current connection's left
end always form a *prefix*.  Hence a single integer per track — the
rightmost occupied column ``blocked_until[t]`` — is an exact state:
connection ``c`` may enter track ``t`` iff ``blocked_until[t] <
segment_start(t, left(c))``, and afterwards ``blocked_until[t] =
segment_end(t, right(c))``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import NodeLimitExceeded, RoutingInfeasibleError
from repro.core.geometry import ChannelGeometry, channel_geometry
from repro.core.routing import Routing, WeightFunction
from repro.substrate.deadline import check

__all__ = ["route_exact", "count_routings", "route_exact_optimal"]


def _feasible_tracks(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
) -> list[list[int]]:
    """Per-connection candidate tracks honouring the K-segment limit."""
    geom = channel_geometry(channel)
    candidates: list[list[int]] = []
    for c in connections:
        row = []
        for t in range(channel.n_tracks):
            if max_segments is not None:
                if geom.segments_occupied(t, c.left, c.right) > max_segments:
                    continue
            row.append(t)
        candidates.append(row)
    return candidates


def _span_tables(
    geom: ChannelGeometry, conns
) -> tuple[list[list[int]], list[list[int]]]:
    """``starts[i][t]`` / ``ends[i][t]``: occupied-span bounds of connection
    ``i`` on track ``t``, precomputed so the search's innermost test is a
    pair of list lookups instead of a bisect per node."""
    T = geom.n_tracks
    seg_start, seg_end = geom.seg_start, geom.seg_end
    starts = [[seg_start[t][c.left] for t in range(T)] for c in conns]
    ends = [[seg_end[t][c.right] for t in range(T)] for c in conns]
    return starts, ends


def route_exact(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    node_limit: int = 5_000_000,
) -> Routing:
    """Find any valid (K-segment) routing by depth-first backtracking.

    Symmetry breaking: consecutive connections with identical spans are
    interchangeable, so their track indices are forced to be increasing.
    This is what makes the NP-completeness gadget instances (which contain
    large groups of identical connections) searchable.

    Raises
    ------
    RoutingInfeasibleError
        If the search space is exhausted without a routing (a proof of
        infeasibility), or, as :class:`NodeLimitExceeded`, if
        ``node_limit`` backtracking nodes are expended first.
    """
    connections.check_within(channel)
    M = len(connections)
    candidates = _feasible_tracks(channel, connections, max_segments)
    conns = connections.connections
    starts, ends = _span_tables(channel_geometry(channel), conns)
    blocked_until = [0] * channel.n_tracks
    assignment = [-1] * M
    nodes = 0

    def identical_to_previous(i: int) -> bool:
        return i > 0 and (conns[i].left, conns[i].right) == (
            conns[i - 1].left,
            conns[i - 1].right,
        )

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == M:
            return True
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(
                f"exact search exceeded node limit ({node_limit}); "
                f"feasibility undecided"
            )
        if not nodes & 1023:  # deadline check every 1024 nodes
            check()
        start_row, end_row = starts[i], ends[i]
        floor = assignment[i - 1] if identical_to_previous(i) else -1
        for t in candidates[i]:
            if t <= floor:
                continue
            if blocked_until[t] >= start_row[t]:
                continue
            saved = blocked_until[t]
            blocked_until[t] = end_row[t]
            assignment[i] = t
            if backtrack(i + 1):
                return True
            blocked_until[t] = saved
            assignment[i] = -1
        return False

    if backtrack(0):
        return Routing(channel, connections, tuple(assignment))
    raise RoutingInfeasibleError(
        f"exhaustive search proves no "
        f"{'routing' if max_segments is None else f'{max_segments}-segment routing'} "
        f"exists for M={M}, T={channel.n_tracks}"
    )


def count_routings(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    node_limit: int = 5_000_000,
) -> int:
    """Count all valid (K-segment) routings.  No symmetry breaking: every
    distinct assignment tuple is counted once.  Test-oracle only."""
    connections.check_within(channel)
    M = len(connections)
    candidates = _feasible_tracks(channel, connections, max_segments)
    conns = connections.connections
    starts, ends = _span_tables(channel_geometry(channel), conns)
    blocked_until = [0] * channel.n_tracks
    nodes = 0

    def backtrack(i: int) -> int:
        nonlocal nodes
        if i == M:
            return 1
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(
                f"counting exceeded node limit ({node_limit})"
            )
        start_row, end_row = starts[i], ends[i]
        total = 0
        for t in candidates[i]:
            if blocked_until[t] >= start_row[t]:
                continue
            saved = blocked_until[t]
            blocked_until[t] = end_row[t]
            total += backtrack(i + 1)
            blocked_until[t] = saved
        return total

    return backtrack(0)


def route_exact_optimal(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    weight: WeightFunction,
    max_segments: Optional[int] = None,
    node_limit: int = 5_000_000,
) -> Routing:
    """Branch-and-bound solver for Problem 3 (minimum total weight).

    The bound is the sum, over unassigned connections, of each one's
    minimum weight across its K-feasible tracks (ignoring occupancy) —
    admissible, cheap, and effective on routing instances where weights
    grow with occupied length.
    """
    connections.check_within(channel)
    M = len(connections)
    conns = connections.connections
    candidates = _feasible_tracks(channel, connections, max_segments)
    starts, ends = _span_tables(channel_geometry(channel), conns)
    weights: list[dict[int, float]] = [
        {t: weight(c, t) for t in candidates[i]} for i, c in enumerate(conns)
    ]
    # Suffix lower bounds on remaining weight.
    min_w = [min(w.values()) if w else math.inf for w in weights]
    suffix = [0.0] * (M + 1)
    for i in range(M - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min_w[i]
    if not math.isfinite(suffix[0]):
        raise RoutingInfeasibleError(
            "some connection has no K-feasible track at all"
        )

    blocked_until = [0] * channel.n_tracks
    assignment = [-1] * M
    best_assignment: Optional[tuple[int, ...]] = None
    best_cost = math.inf
    nodes = 0

    def backtrack(i: int, cost: float) -> None:
        nonlocal nodes, best_assignment, best_cost
        if cost + suffix[i] >= best_cost:
            return
        if i == M:
            best_cost = cost
            best_assignment = tuple(assignment)
            return
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(
                f"optimal search exceeded node limit ({node_limit})"
            )
        if not nodes & 1023:  # deadline check every 1024 nodes
            check()
        start_row, end_row = starts[i], ends[i]
        # Explore cheapest assignments first to tighten the bound early.
        for t in sorted(candidates[i], key=lambda t: weights[i][t]):
            if blocked_until[t] >= start_row[t]:
                continue
            saved = blocked_until[t]
            blocked_until[t] = end_row[t]
            assignment[i] = t
            backtrack(i + 1, cost + weights[i][t])
            blocked_until[t] = saved
            assignment[i] = -1

    backtrack(0, 0.0)
    if best_assignment is None:
        raise RoutingInfeasibleError(
            f"exhaustive search proves no feasible routing exists "
            f"(M={M}, T={channel.n_tracks}, K={max_segments})"
        )
    return Routing(channel, connections, best_assignment)
