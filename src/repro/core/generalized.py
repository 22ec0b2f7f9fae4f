"""Generalized segmented channel routing (Section V, Problem 4).

A connection may be split at columns and its parts assigned to different
tracks (Definition 2).  Following Proposition 11, every connection is
decomposed into unit-column pieces; pieces of the same parent connection
are allowed to share a segment.  The assignment-graph DP then runs over
pieces with an enriched frontier: per track, the leftmost unoccupied
column *and* the parent connection occupying the segment at the current
reference column (so a piece can re-enter a segment its own parent already
occupies).  Theorem 8 bounds the level width, giving ``O(T^(T+2) M)``.

The restricted variants sketched at the end of Section V are also
implemented (the paper leaves "the details of the modifications" to the
reader; we enrich the frontier with the parent occupying each track at the
previous column, which suffices for all three restrictions):

* track changes only at prespecified columns;
* a change at column ``l`` only when the old track's segment extends
  through ``l`` (the hardware-friendly overlap rule);
* at most a given number of track changes per connection;
* at most ``K`` segments per connection (Section II's restricted case 1);
* at most ``L`` distinct tracks per connection (restricted case 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import NodeLimitExceeded, RoutingInfeasibleError
from repro.core.routing import GeneralizedRouting

__all__ = [
    "GeneralizedDPStats",
    "generalized_switch_count",
    "route_generalized",
    "route_generalized_min_switches",
    "route_generalized_with_stats",
]

_FREE = -1  # occupant marker for "segment at reference column unoccupied"


@dataclass(frozen=True)
class GeneralizedDPStats:
    """Level statistics of the generalized assignment graph (per piece)."""

    n_pieces: int
    nodes_per_level: tuple[int, ...]

    @property
    def max_level_width(self) -> int:
        return max(self.nodes_per_level, default=0)


def _decompose(connections: ConnectionSet) -> list[tuple[int, int]]:
    """Unit-column pieces ``(column, parent_index)`` sorted by column then
    parent (Proposition 11's connection set C')."""
    pieces = []
    for p, c in enumerate(connections):
        for col in range(c.left, c.right + 1):
            pieces.append((col, p))
    pieces.sort()
    return pieces


def _advance(
    state: tuple, l_old: int, l_new: int, restricted: bool
) -> tuple:
    """Re-normalize a frontier from reference column ``l_old`` to ``l_new``.

    Per track: if the leftmost unoccupied column is at or left of the new
    reference, the segment at the new reference is free; otherwise it is
    the same segment as at the old reference (occupancy right of the
    reference is always a single segment-aligned prefix), so the occupant
    carries over.  ``prev``/``cur`` occupant-at-column markers shift only
    when the column actually advances.
    """
    if l_new == l_old:
        return state
    tracks = []
    for entry in state[0]:
        x1, occ = entry
        if x1 <= l_new:
            tracks.append((l_new, _FREE))
        else:
            tracks.append((x1, occ))
    if not restricted:
        return (tuple(tracks),)
    prev, cur, changes = state[1], state[2], state[3]
    if l_new == l_old + 1:
        new_prev = cur
    else:
        new_prev = (_FREE,) * len(tracks)
    new_cur = (_FREE,) * len(tracks)
    return (tuple(tracks), new_prev, new_cur, changes) + state[4:]


def _run(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    allowed_change_columns: Optional[Sequence[int]],
    overlap_switches: bool,
    max_track_changes: Optional[int],
    node_limit: int,
    minimize_switches: bool = False,
    max_segments: Optional[int] = None,
    max_tracks: Optional[int] = None,
) -> tuple[GeneralizedRouting, GeneralizedDPStats]:
    connections.check_within(channel)
    T = channel.n_tracks
    conns = connections.connections
    pieces = _decompose(connections)
    n_pieces = len(pieces)
    restricted = (
        allowed_change_columns is not None
        or overlap_switches
        or max_track_changes is not None
        or minimize_switches
        or max_segments is not None
        or max_tracks is not None
    )
    allowed = set(allowed_change_columns) if allowed_change_columns is not None else None

    if n_pieces == 0:
        return (
            GeneralizedRouting(channel, connections, ()),
            GeneralizedDPStats(0, ()),
        )

    ref0 = pieces[0][0]
    if restricted:
        # Positions 4/5 carry per-parent segment counts and used-track
        # sets only when the corresponding bound is enforced (kept as
        # constants otherwise, so they never inflate the state space).
        seg_root = (0,) * len(conns) if max_segments is not None else ()
        trk_root = (
            (frozenset(),) * len(conns) if max_tracks is not None else ()
        )
        root = (
            tuple((ref0, _FREE) for _ in range(T)),
            (_FREE,) * T,
            (_FREE,) * T,
            (0,) * len(conns),
            seg_root,
            trk_root,
        )
    else:
        root = (tuple((ref0, _FREE) for _ in range(T)),)

    levels: list[dict[tuple, tuple[float, Optional[tuple], int]]] = [
        {root: (0.0, None, -1)}
    ]
    nodes_per_level: list[int] = []
    total_nodes = 1

    for idx, (col, parent) in enumerate(pieces):
        next_ref = pieces[idx + 1][0] if idx + 1 < n_pieces else channel.n_columns + 1
        nxt: dict[tuple, tuple[float, Optional[tuple], int]] = {}
        first_piece = col == conns[parent].left
        for state, (cost, _, _) in levels[-1].items():
            tracks = state[0]
            if restricted:
                prev, cur, changes = state[1], state[2], state[3]
                seg_counts, track_sets = state[4], state[5]
                prev_track = -1
                if not first_piece:
                    for t in range(T):
                        if prev[t] == parent:
                            prev_track = t
                            break
            for t in range(T):
                x1, occ = tracks[t]
                if x1 > col and occ != parent:
                    continue  # segment at col occupied by another connection
                enters_new_segment = x1 <= col  # else continuing occ == p
                if restricted and max_segments is not None:
                    if (
                        enters_new_segment
                        and seg_counts[parent] + 1 > max_segments
                    ):
                        continue
                if restricted and max_tracks is not None:
                    used = track_sets[parent]
                    if t not in used and len(used) + 1 > max_tracks:
                        continue
                if restricted and not first_piece:
                    is_change = t != prev_track
                    if is_change:
                        if allowed is not None and col not in allowed:
                            continue
                        if overlap_switches and (
                            prev_track < 0
                            or channel.segment_end_at(prev_track, col - 1) < col
                        ):
                            continue
                        if (
                            max_track_changes is not None
                            and changes[parent] + 1 > max_track_changes
                        ):
                            continue
                new_x1 = channel.segment_end_at(t, col) + 1
                new_tracks = tuple(
                    (new_x1, parent) if k == t else tracks[k] for k in range(T)
                )
                if restricted:
                    new_cur = tuple(
                        parent if k == t else cur[k] for k in range(T)
                    )
                    # Change counts enter the state key only when a bound
                    # is actually enforced, to avoid needless state blowup.
                    if (
                        max_track_changes is not None
                        and not first_piece
                        and t != prev_track
                    ):
                        new_changes = tuple(
                            ch + 1 if p == parent else ch
                            for p, ch in enumerate(changes)
                        )
                    else:
                        new_changes = changes
                    if max_segments is not None and enters_new_segment:
                        new_seg = tuple(
                            sc + 1 if p == parent else sc
                            for p, sc in enumerate(seg_counts)
                        )
                    else:
                        new_seg = seg_counts
                    if max_tracks is not None and t not in track_sets[parent]:
                        new_trk = tuple(
                            ts | {t} if p == parent else ts
                            for p, ts in enumerate(track_sets)
                        )
                    else:
                        new_trk = track_sets
                    new_state = (
                        new_tracks, prev, new_cur, new_changes, new_seg, new_trk,
                    )
                else:
                    new_state = (new_tracks,)
                new_state = _advance(new_state, col, next_ref, restricted)
                step = 0.0
                if minimize_switches and not first_piece:
                    if t != prev_track:
                        step = 2.0  # vertical jog: two cross switches
                    elif channel.track(t).segment_start_at(col) == col:
                        step = 1.0  # same track across a break: one join
                new_cost = cost + step
                prev_entry = nxt.get(new_state)
                if prev_entry is None or new_cost < prev_entry[0]:
                    nxt[new_state] = (new_cost, state, t)
        if not nxt:
            raise RoutingInfeasibleError(
                f"generalized assignment graph empty at piece {idx + 1} "
                f"(column {col}, connection {conns[parent]}); no generalized "
                f"routing satisfies the given restrictions"
            )
        nodes_per_level.append(len(nxt))
        total_nodes += len(nxt)
        if total_nodes > node_limit:
            raise NodeLimitExceeded(
                f"generalized assignment graph exceeded node limit ({node_limit})"
            )
        levels.append(nxt)

    # Trace back the per-piece track labels.
    state = min(levels[-1], key=lambda st: levels[-1][st][0])
    piece_track = [-1] * n_pieces
    for i in range(n_pieces, 0, -1):
        _, parent_state, t = levels[i][state]
        piece_track[i - 1] = t
        state = parent_state  # type: ignore[assignment]

    # Reassemble per-connection pieces, merging same-track runs.
    per_parent: list[list[tuple[int, int]]] = [[] for _ in conns]
    for (col, parent), t in zip(pieces, piece_track):
        per_parent[parent].append((col, t))
    all_parts: list[tuple[tuple[int, int, int], ...]] = []
    for p, run in enumerate(per_parent):
        run.sort()
        parts: list[tuple[int, int, int]] = []
        for col, t in run:
            if parts and parts[-1][0] == t and parts[-1][2] == col - 1:
                parts[-1] = (t, parts[-1][1], col)
            else:
                parts.append((t, col, col))
        all_parts.append(tuple(parts))
    routing = GeneralizedRouting(channel, connections, tuple(all_parts))
    return routing, GeneralizedDPStats(n_pieces, tuple(nodes_per_level))


def route_generalized(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    allowed_change_columns: Optional[Sequence[int]] = None,
    overlap_switches: bool = False,
    max_track_changes: Optional[int] = None,
    node_limit: int = 2_000_000,
    max_segments: Optional[int] = None,
    max_tracks: Optional[int] = None,
) -> GeneralizedRouting:
    """Solve Problem 4 (and its restricted variants) exactly.

    Parameters
    ----------
    allowed_change_columns:
        If given, a connection may change tracks only at these columns
        (restriction 1 at the end of Section V).
    overlap_switches:
        If True, a change at column ``l`` is allowed only when the old
        track's segment extends through column ``l`` (restriction 2 —
        avoids parts "separated by one column").
    max_track_changes:
        Upper bound on per-connection track changes.
    max_segments:
        Section II restricted case 1: at most ``K`` distinct segments per
        connection, across all its pieces.
    max_tracks:
        Section II restricted case 2: at most this many distinct tracks
        per connection.
    """
    routing, _ = _run(
        channel,
        connections,
        allowed_change_columns,
        overlap_switches,
        max_track_changes,
        node_limit,
        max_segments=max_segments,
        max_tracks=max_tracks,
    )
    return routing


def route_generalized_with_stats(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    allowed_change_columns: Optional[Sequence[int]] = None,
    overlap_switches: bool = False,
    max_track_changes: Optional[int] = None,
    node_limit: int = 2_000_000,
    max_segments: Optional[int] = None,
    max_tracks: Optional[int] = None,
) -> tuple[GeneralizedRouting, GeneralizedDPStats]:
    """Like :func:`route_generalized`, also returning level statistics."""
    return _run(
        channel,
        connections,
        allowed_change_columns,
        overlap_switches,
        max_track_changes,
        node_limit,
        max_segments=max_segments,
        max_tracks=max_tracks,
    )


def generalized_switch_count(routing: GeneralizedRouting) -> int:
    """Programmed switches a generalized routing costs, per the paper's
    accounting: two cross switches per connection (entry/exit verticals),
    one track switch per same-track segment join, and two switches per
    track change ("two switches must be programmed compared to only one
    if the connection is assigned to two contiguous segments")."""
    channel = routing.channel
    total = 0
    for i, c in enumerate(routing.connections):
        total += 1 if c.left == c.right else 2
        parts = routing.pieces[i]
        for t, left, right in parts:
            for b in channel.track(t).breaks:
                if left <= b < right:
                    total += 1  # join inside one piece
        for a, b in zip(parts, parts[1:]):
            if a[0] == b[0]:
                # Same track across the piece boundary: a join iff the
                # boundary coincides with a break.
                if b[1] - 1 in channel.track(a[0]).breaks:
                    total += 1
            else:
                total += 2
    return total


def route_generalized_min_switches(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    node_limit: int = 2_000_000,
) -> tuple[GeneralizedRouting, int]:
    """Problem 4 with minimum programmed-switch cost.

    Among all generalized routings, returns one minimizing the total
    join-plus-change switch count (cross switches are constant and
    excluded from the optimization but included in the returned count).
    This optimizes exactly the hardware penalty Section II cites when
    motivating the restricted variants.
    """
    routing, _ = _run(
        channel,
        connections,
        allowed_change_columns=None,
        overlap_switches=False,
        max_track_changes=None,
        node_limit=node_limit,
        minimize_switches=True,
    )
    return routing, generalized_switch_count(routing)
