"""Canonical-frontier DP for channels with few track *types* (Theorem 7).

When the ``T`` tracks fall into a small number of segmentation types
(identical break positions), two frontiers that differ only by permuting
same-type tracks are interchangeable.  Restricting attention to canonical
frontiers — the multiset of frontier values per type — shrinks the level
width from ``(K+1)^T`` to ``O(prod_i T_i^K)`` (Theorem 7), making the DP
polynomial for any fixed set of types even when ``T`` itself grows.

The DP runs over canonical frontiers (tuples of sorted value-tuples, one
per type) with edges labelled ``(type, value)``; a concrete track
assignment is recovered afterwards by replaying the label sequence against
per-track state.

Each level is built incrementally.  Normalization leaves every value of a
frontier at or past the left end of the connection it is offered, so a
type's free tracks are interchangeable and give one successor per type.
A frontier's types are normalized once, its successors share the tuples
of the types they leave alone, and since per-type tuples are sorted, the
free-track test reads only a tuple's first value.  The level dicts, their
insertion order, and so the assignments and level widths, are those of a
from-scratch re-normalization per successor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.core.channel import SegmentedChannel, Track
from repro.core.connection import ConnectionSet
from repro.core.errors import NodeLimitExceeded, RoutingInfeasibleError
from repro.core.routing import Routing, WeightFunction
from repro.substrate.deadline import check

__all__ = ["TypedDPStats", "route_dp_track_types", "route_dp_track_types_with_stats"]


@dataclass(frozen=True)
class TypedDPStats:
    """Canonical assignment-graph shape for the Theorem-7 DP."""

    nodes_per_level: tuple[int, ...]
    n_types: int
    tracks_per_type: tuple[int, ...]

    @property
    def max_level_width(self) -> int:
        return max(self.nodes_per_level, default=0)


def _raise_to(values: tuple, ref: int) -> tuple:
    """``values`` (sorted) with every entry below ``ref`` raised to it."""
    p = bisect_right(values, ref)
    return (ref,) * p + values[p:]


def _run_typed_dp(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight: Optional[WeightFunction],
    node_limit: int,
) -> tuple[Routing, TypedDPStats]:
    connections.check_within(channel)
    conns = connections.connections
    M = len(conns)

    # Group tracks into types by break pattern; keep a representative Track
    # per type for all geometry queries.
    groups = channel.track_types()
    type_breaks = sorted(groups.keys())
    type_tracks: list[list[int]] = [groups[b] for b in type_breaks]
    reps: list[Track] = [channel.track(idxs[0]) for idxs in type_tracks]
    n_types = len(type_breaks)

    if M == 0:
        return (
            Routing(channel, connections, ()),
            TypedDPStats((), n_types, tuple(len(g) for g in type_tracks)),
        )

    if weight is not None:
        # w(c, t) must be type-uniform for the canonicalization to be
        # valid; verify on the representative vs. every member.
        for g in type_tracks:
            rep_idx = g[0]
            for c in conns:
                ref = weight(c, rep_idx)
                for t in g:
                    if weight(c, t) != ref:
                        raise RoutingInfeasibleError(
                            "route_dp_track_types requires the weight to "
                            "depend only on the track's segmentation type; "
                            f"w({c}, {t}) != w({c}, {rep_idx})"
                        )

    # Per connection and type: K-feasibility and post-assignment value.
    seg_ok: list[list[bool]] = []
    blocked_next: list[list[int]] = []
    for c in conns:
        ok_row, end_row = [], []
        for rep in reps:
            if max_segments is not None:
                ok_row.append(rep.segments_occupied(c.left, c.right) <= max_segments)
            else:
                ok_row.append(True)
            end_row.append(rep.segment_end_at(c.right) + 1)
        seg_ok.append(ok_row)
        blocked_next.append(end_row)

    ref0 = conns[0].left
    root = tuple(tuple([ref0] * len(g)) for g in type_tracks)
    Node = tuple[float, Optional[tuple], tuple[int, int]]  # cost, parent, (type, value)
    levels: list[dict[tuple, Node]] = [{root: (0.0, None, (-1, -1))}]
    nodes_per_level: list[int] = []
    total_nodes = 1

    for i, c in enumerate(conns):
        next_ref = conns[i + 1].left if i + 1 < M else channel.n_columns + 1
        left = c.left
        # Every frontier value is >= left(c), so a type's free tracks all
        # hold left(c) and are interchangeable: one successor per type,
        # trading the type's smallest normalized value for the value the
        # connection leaves behind.
        moves = [
            (
                tau,
                max(blocked_next[i][tau], next_ref),
                weight(c, type_tracks[tau][0]) if weight is not None else 0.0,
            )
            for tau in range(n_types)
            if seg_ok[i][tau]
        ]
        nxt: dict[tuple, Node] = {}
        for n, (frontier, (cost, _, _)) in enumerate(levels[-1].items()):
            if not n % 16:  # deadline check every 16 frontiers
                check()
            norm: Optional[tuple] = None
            for tau, new_value, w in moves:
                v = frontier[tau][0]
                if v > left:
                    continue
                if norm is None:
                    # Normalize each type once; successors share the
                    # tuples of the types they leave alone.
                    norm = tuple([
                        values if values[0] >= next_ref else _raise_to(values, next_ref)
                        for values in frontier
                    ])
                rest = norm[tau][1:]
                j = bisect_right(rest, new_value)
                new_frontier = (
                    norm[:tau] + (rest[:j] + (new_value,) + rest[j:],) + norm[tau + 1 :]
                )
                new_cost = cost + w
                prev = nxt.get(new_frontier)
                if prev is None or new_cost < prev[0]:
                    nxt[new_frontier] = (new_cost, frontier, (tau, v))
        if not nxt:
            raise RoutingInfeasibleError(
                f"typed assignment graph empty at level {i + 1}: {conns[i]} "
                f"fits no type under the current partial routings"
            )
        nodes_per_level.append(len(nxt))
        total_nodes += len(nxt)
        if total_nodes > node_limit:
            raise NodeLimitExceeded(
                f"typed assignment graph exceeded node limit ({node_limit})"
            )
        levels.append(nxt)

    # Trace back the (type, value) labels.
    final = levels[-1]
    assert len(final) == 1, "normalization should collapse the last level"
    frontier = next(iter(final))
    labels: list[tuple[int, int]] = [(-1, -1)] * M
    for i in range(M, 0, -1):
        cost, parent, label = levels[i][frontier]
        labels[i - 1] = label
        frontier = parent  # type: ignore[assignment]

    # Replay with concrete tracks: per track, its current frontier value
    # (normalized exactly as the DP normalized).
    track_value: dict[int, int] = {}
    for tau, g in enumerate(type_tracks):
        for t in g:
            track_value[t] = ref0
    assignment = [-1] * M
    for i, c in enumerate(conns):
        tau, v = labels[i]
        chosen = -1
        for t in type_tracks[tau]:
            if track_value[t] == v:
                chosen = t
                break
        assert chosen >= 0, "replay desynchronized from canonical DP"
        assignment[i] = chosen
        next_ref = conns[i + 1].left if i + 1 < M else channel.n_columns + 1
        track_value[chosen] = blocked_next[i][tau]
        for t in track_value:
            track_value[t] = max(track_value[t], next_ref)

    routing = Routing(channel, connections, tuple(assignment))
    return routing, TypedDPStats(
        tuple(nodes_per_level), n_types, tuple(len(g) for g in type_tracks)
    )


def route_dp_track_types(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
) -> Routing:
    """Solve Problems 1/2/3 with the Theorem-7 canonical-frontier DP.

    Exact, like :func:`repro.core.dp.route_dp`, but exponentially cheaper
    when the channel has many tracks of few distinct segmentation types.
    For Problem 3 the weight must depend only on the connection and the
    track's *type* (true of all geometry-derived weights in
    :mod:`repro.core.routing`).
    """
    routing, _ = _run_typed_dp(channel, connections, max_segments, weight, node_limit)
    return routing


def route_dp_track_types_with_stats(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
) -> tuple[Routing, TypedDPStats]:
    """Like :func:`route_dp_track_types`, also returning level statistics
    (used by the Theorem-7 experiment)."""
    return _run_typed_dp(channel, connections, max_segments, weight, node_limit)
