"""Routing kernels: packed-frontier assignment-graph DP with dominance pruning.

The Section IV-B DP of :mod:`repro.core.dp` represents each frontier as a
``T``-tuple and rebuilds one per edge — an ``O(T)`` allocation repeated
``O(M·L·T)`` times.  This module provides two kernels behind one
contract:

* :func:`run_dp_vectorized` — the production kernel behind
  :func:`repro.core.dp.route_dp`.  Each frontier is a single packed
  integer (one fixed-width bit field per track), per-edge work is a few
  word operations on precomputed masks, and *dominance pruning* drops
  frontiers that cannot be part of any better completion.  Levels with
  enough candidate edges run as flat ``numpy`` ``uint64`` arrays: the
  SWAR identities broadcast across the level, canonical winner selection
  via one ``lexsort``, and the Pareto filter as a blocked matrix test.
  Narrow levels, and every level of a channel whose packed frontier does
  not fit one machine word, run the same steps as a scalar loop on
  Python ints.
* :func:`run_dp_reference` — the tuple-based reference implementation
  (the seed algorithm, reading its geometry tables from
  :mod:`repro.core.geometry`): the oracle that the equivalence tests and
  ``segroute bench --check`` compare the production kernel against.

Packed encoding
---------------
Track ``t``'s frontier value (a column in ``1..N+1``) lives in bits
``[(T-1-t)·b, (T-t)·b)`` with ``b = bitlength(N+1) + 1``; the extra top
bit per field is a carry guard for SWAR arithmetic.  Putting track 0 in
the *most* significant field makes integer comparison of packed
frontiers coincide with lexicographic comparison of the tuples — the
tie-break order both kernels share (see below).  Per level, the
componentwise re-normalization ``max(x[k], next_ref)`` and the
feasibility test ``x[t] <= left(c)`` are computed for all tracks at once
with guard-bit subtraction tricks, and each edge then needs only
``(base & clear[t]) | new_value[t]`` — O(1) instead of an ``O(T)`` tuple
comprehension.

Dominance pruning
-----------------
Frontier ``G`` *dominates* ``F`` when ``G[k] <= F[k]`` for every track
(for Problem 3: and ``cost(G) <= cost(F)``).  Anything routable from
``F`` is then routable from ``G`` at no greater cost, so ``F`` can be
dropped.  Pruning preserves per-level non-emptiness (hence the exact
infeasibility level), the optimal Problem-3 weight, *and* — because both
kernels resolve cost ties toward the lexicographically smallest
``(parent frontier, track)`` — the exact traced-back assignment.  The
full soundness argument, including why the canonical traceback path can
never be pruned, is spelled out in ``docs/PERFORMANCE.md``; the
equivalence property suite (``tests/core/test_kernels.py``) checks it on
hundreds of random instances.

Canonical tie-breaking
----------------------
Both kernels record, for each node, the minimum-cost incoming edge,
breaking exact cost ties toward the smallest ``(parent frontier, track)``
in lexicographic order.  This makes the returned assignment a pure
function of the instance — independent of dict iteration order, of the
kernel, of the scalar/numpy path, and of whether pruning ran — which is
what lets the engine cache and ``result_stream_digest`` treat the
kernels as bit-identical.

Per-thread state
----------------
The pruned-frontier counter and the trace hook are thread-local: one
process solves on several threads at once (a server's dispatch thread
and its job threads), and each caller consumes only its own thread's
work, as with the solve budget of :mod:`repro.substrate.deadline`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import NodeLimitExceeded, RoutingInfeasibleError
from repro.core.geometry import channel_geometry
from repro.core.routing import Routing, WeightFunction
from repro.substrate.deadline import check
from typing import Optional

__all__ = [
    "DPStats",
    "active_kernel",
    "run_dp_reference",
    "run_dp_vectorized",
    "consume_dp_pruned",
    "set_kernel_trace",
    "kernel_trace_enabled",
    "record_kernel_trace",
    "consume_kernel_trace",
]

#: Deadline checks (:mod:`repro.substrate.deadline`) per level: every Nth
#: frontier expansion, and every Nth Pareto item (each scans the level).
_CHECK_FRONTIERS = 64
_CHECK_PARETO = 32


def active_kernel() -> str:
    """The kernel behind :func:`repro.core.dp.route_dp`."""
    return "vectorized"


class _KernelState(threading.local):
    """This thread's pruned-frontier counter (consumed by the engine's
    ``dp_nodes_pruned`` metric) and kernel trace hook.  When tracing is
    enabled each DP run appends one record (see
    ``repro.core.dp._run_dp``), which the executor turns into a
    ``kernel.dp`` span; when disabled the only cost is one attribute
    read per DP call."""

    def __init__(self) -> None:
        self.pruned = 0
        self.tracing = False
        self.records: list[dict] = []


_state = _KernelState()


def consume_dp_pruned() -> int:
    """Return and reset this thread's frontiers-pruned counter."""
    pruned, _state.pruned = _state.pruned, 0
    return pruned


def set_kernel_trace(enabled: bool) -> None:
    """Enable/disable DP kernel trace records on this thread."""
    _state.tracing = bool(enabled)
    if not enabled:
        _state.records = []


def kernel_trace_enabled() -> bool:
    return _state.tracing


def record_kernel_trace(record: dict) -> None:
    """Append one kernel trace record (only called while enabled)."""
    _state.records.append(record)


def consume_kernel_trace() -> list[dict]:
    """Return and reset this thread's records since the last call."""
    records, _state.records = _state.records, []
    return records


@dataclass(frozen=True)
class DPStats:
    """Assignment-graph shape: one entry per level (connection).

    ``nodes_per_level`` / ``edges_per_level`` count what the kernel
    actually kept and relaxed — for the vectorized kernel that is *after*
    dominance pruning; ``nodes_pruned_per_level`` records what pruning
    removed (empty for the reference kernel).  With pruning disabled the
    vectorized kernel's node and edge counts equal the reference's
    exactly, on either of its paths.
    """

    nodes_per_level: tuple[int, ...]
    edges_per_level: tuple[int, ...]
    nodes_pruned_per_level: tuple[int, ...] = ()
    kernel: str = "reference"

    @property
    def max_level_width(self) -> int:
        """``L`` in the paper's ``O(M L T^2)`` bound."""
        return max(self.nodes_per_level, default=0)

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes_per_level)

    @property
    def total_edges(self) -> int:
        return sum(self.edges_per_level)

    @property
    def total_pruned(self) -> int:
        return sum(self.nodes_pruned_per_level)


def _infeasible_error(
    level_index: int, conns, max_segments: Optional[int]
) -> RoutingInfeasibleError:
    """Identical wording from both kernels — the equivalence suite
    compares the messages verbatim."""
    return RoutingInfeasibleError(
        f"assignment graph empty at level {level_index + 1}: no valid "
        f"{'routing' if max_segments is None else f'{max_segments}-segment routing'} "
        f"of {conns[level_index]} extends any partial routing of "
        f"c1..c{level_index}"
    )


def _node_limit_error(node_limit: int) -> NodeLimitExceeded:
    return NodeLimitExceeded(
        f"assignment graph exceeded node limit ({node_limit}); "
        f"use route_exact or the LP heuristic for this instance"
    )


# ----------------------------------------------------------------------
# reference kernel
# ----------------------------------------------------------------------
def run_dp_reference(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
    *,
    partial: bool = False,
) -> tuple[Optional[Routing], DPStats]:
    """Tuple-based Section IV-B DP (the audited reference semantics).

    Returns ``(routing, stats)``.  With ``partial=True`` an infeasible
    instance returns ``(None, stats-up-to-the-dead-level)`` instead of
    raising, which is what lets
    :func:`repro.core.dp.assignment_graph_levels` collect its counts in
    one pass.
    """
    connections.check_within(channel)
    conns = connections.connections
    M = len(conns)
    T = channel.n_tracks
    if M == 0:
        return Routing(channel, connections, ()), DPStats((), (), ())

    # Per-connection, per-track static feasibility (the K-segment limit),
    # post-assignment blocked end, and edge weight; all frontier-independent
    # and O(1) per (connection, track) via the shared geometry tables.
    geom = channel_geometry(channel)
    seg_index = geom.seg_index
    seg_end = geom.seg_end
    weighted = weight is not None
    seg_ok: list[list[bool]] = []
    blocked_end: list[list[int]] = []
    weights: list[list[float]] = []
    for c in conns:
        l, r = c.left, c.right
        if max_segments is None:
            ok_row = [True] * T
        else:
            ok_row = [
                seg_index[t][r] - seg_index[t][l] + 1 <= max_segments
                for t in range(T)
            ]
        seg_ok.append(ok_row)
        blocked_end.append([seg_end[t][r] for t in range(T)])
        weights.append(
            [weight(c, t) for t in range(T)] if weighted else [0.0] * T
        )

    # Level 0: nothing assigned; frontier normalized to left(c_1).
    ref0 = conns[0].left
    root = (ref0,) * T
    # levels[i]: frontier -> (cost, parent_frontier, track_assigned)
    levels: list[dict[tuple[int, ...], tuple[float, Optional[tuple[int, ...]], int]]]
    levels = [{root: (0.0, None, -1)}]
    nodes_per_level: list[int] = []
    edges_per_level: list[int] = []
    total_nodes = 1

    for i, c in enumerate(conns):
        next_ref = conns[i + 1].left if i + 1 < M else channel.n_columns + 1
        current = levels[-1]
        nxt: dict[tuple[int, ...], tuple[float, Optional[tuple[int, ...]], int]] = {}
        edges = 0
        ok_row = seg_ok[i]
        end_row = blocked_end[i]
        w_row = weights[i]
        left = c.left
        for n, (frontier, (cost, _, _)) in enumerate(current.items()):
            if not n % _CHECK_FRONTIERS:
                check()
            for t in range(T):
                # x[t] <= left(c): the segment of track t present in column
                # left(c) is unoccupied.  Frontier values are always segment
                # right-ends + 1, so this single comparison is exact.
                if frontier[t] > left or not ok_row[t]:
                    continue
                edges += 1
                new_cost = cost + w_row[t] if weighted else 0.0
                new_frontier = tuple(
                    max(end_row[t] + 1, next_ref)
                    if k == t
                    else max(frontier[k], next_ref)
                    for k in range(T)
                )
                prev = nxt.get(new_frontier)
                # Keep the min-cost edge; break exact cost ties toward the
                # lexicographically smallest (parent frontier, track) — the
                # canonical rule shared with the vectorized kernel.
                if (
                    prev is None
                    or new_cost < prev[0]
                    or (
                        new_cost == prev[0]
                        and (frontier, t) < (prev[1], prev[2])
                    )
                ):
                    nxt[new_frontier] = (new_cost, frontier, t)
        if not nxt:
            if partial:
                return None, DPStats(
                    tuple(nodes_per_level), tuple(edges_per_level), ()
                )
            raise _infeasible_error(i, conns, max_segments)
        nodes_per_level.append(len(nxt))
        edges_per_level.append(edges)
        total_nodes += len(nxt)
        if total_nodes > node_limit:
            if partial:
                return None, DPStats(
                    tuple(nodes_per_level), tuple(edges_per_level), ()
                )
            raise _node_limit_error(node_limit)
        levels.append(nxt)

    # Level M normalizes every frontier to N+1, so it holds a single node
    # (the paper's F_M) carrying the minimum cost.
    final_level = levels[-1]
    assert len(final_level) == 1, "normalization should collapse level M"
    frontier = next(iter(final_level))
    assignment = [-1] * M
    for i in range(M, 0, -1):
        cost, parent, t = levels[i][frontier]
        assignment[i - 1] = t
        frontier = parent  # type: ignore[assignment]
    routing = Routing(channel, connections, tuple(assignment))
    return routing, DPStats(tuple(nodes_per_level), tuple(edges_per_level), ())


# ----------------------------------------------------------------------
# vectorized kernel
# ----------------------------------------------------------------------

#: A level is lifted to the numpy path only when it has at least this
#: many candidate edges (frontiers × K-feasible tracks); below that the
#: per-call array dispatch overhead exceeds the scalar loop's cost.
_VEC_MIN_EDGES = 384

#: Row cap for one block of the batched Pareto filter.  The ``block ×
#: level`` domination matrix is the kernel's largest allocation, so the
#: block stays small: at 64 rows max RSS is within a few MB of a
#: scalar-only run, at the same speed as 1024 rows.
_VEC_PRUNE_BLOCK = 64


def run_dp_vectorized(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    node_limit: int = 2_000_000,
    *,
    partial: bool = False,
    prune: bool = True,
) -> tuple[Optional[Routing], DPStats]:
    """Packed-frontier DP with dominance pruning, level by level.

    Same contract and same returned routing as :func:`run_dp_reference`
    (see the module docstring for why pruning cannot change it);
    ``prune=False`` disables dominance pruning, making the per-level node
    and edge counts equal the reference's exactly — the mode the
    stats-equivalence tests run in.  ``node_limit`` bounds the nodes this
    kernel actually *keeps* (i.e. post-pruning), mirroring its memory
    use; the reference kernel keeps every reachable node, so a run that
    exceeds the limit there can complete here.

    Each level runs on one of two paths with identical results (same
    nodes, edges, pruned counts and stored edges):

    * the **numpy path** evaluates the feasibility / re-normalization
      SWAR identities for every frontier of the level in one broadcast;
      all candidate edges materialize as parallel arrays and the
      canonical min-``(cost, parent frontier, track)`` winner per
      successor is selected with a single ``lexsort`` + first-of-group
      scan; dominance pruning scans the ``(cost, frontier-lex)``-sorted
      level as a blocked domination matrix — sound because "dominated by
      an earlier survivor" and "dominated by any earlier item" coincide
      (domination is transitive, so the earliest dominator is itself
      undominated; see ``docs/PERFORMANCE.md``);
    * the **scalar path** is the same per edge, as a Python dict loop.

    A level takes the numpy path when it has at least ``_VEC_MIN_EDGES``
    candidate edges — below that, array dispatch costs more than it
    saves — so narrow levels stay scalar while wide levels (the
    Theorem 5 ``2^T·T!`` regime) vectorize.  Channels whose packed
    frontier exceeds one machine word (``T·b > 64``) run the scalar path,
    on arbitrary-precision ints, at every level.
    """
    connections.check_within(channel)
    conns = connections.connections
    M = len(conns)
    T = channel.n_tracks
    if M == 0:
        return Routing(channel, connections, ()), DPStats((), (), (), "vectorized")

    geom = channel_geometry(channel)
    seg_index = geom.seg_index
    seg_end = geom.seg_end
    N = channel.n_columns

    # Field layout: track t occupies bits [(T-1-t)*b, (T-t)*b); the top
    # bit of each field is the SWAR carry guard (frontier values are at
    # most N+1 < 2^(b-1)).  Track 0 in the most significant field makes
    # packed-int comparison == tuple lexicographic comparison.  uint64
    # SWAR needs the whole frontier in one machine word; the guard bits
    # keep every subtraction borrow inside its field, so T*b == 64 is
    # still safe.
    b = (N + 1).bit_length() + 1
    fits_word = T * b <= 64
    FM = (1 << b) - 1
    TOT = (1 << (T * b)) - 1
    ones = 0
    for t in range(T):
        ones |= 1 << ((T - 1 - t) * b)
    H = ones << (b - 1)
    bm1 = b - 1

    weighted = weight is not None
    # Per-connection candidate rows: only K-feasible tracks, each with its
    # precomputed guard bit (feasibility test), field-clear mask, packed
    # post-assignment value max(segment_end + 1, next_ref), and weight.
    cand: list[list[tuple[int, int, int, float, int]]] = []
    for i, c in enumerate(conns):
        next_ref = conns[i + 1].left if i + 1 < M else N + 1
        l, r = c.left, c.right
        row: list[tuple[int, int, int, float, int]] = []
        for t in range(T):
            if (
                max_segments is not None
                and seg_index[t][r] - seg_index[t][l] + 1 > max_segments
            ):
                continue
            sh = (T - 1 - t) * b
            row.append((
                1 << (sh + bm1),
                TOT ^ (FM << sh),
                max(seg_end[t][r] + 1, next_ref) << sh,
                weight(c, t) if weighted else 0.0,
                t,
            ))
        cand.append(row)

    if fits_word:
        u64 = np.uint64
        nH, nFM, nTOT, nbm1 = u64(H), u64(FM), u64(TOT), u64(bm1)

    # Level state: packed frontiers in canonical order — (cost,
    # frontier-lex) when weighted, frontier-lex otherwise — held either
    # as Python lists (scalar levels) or numpy arrays (wide levels),
    # converted only when a level switches regime.
    keys_list: Optional[list[int]] = [conns[0].left * ones]
    cost_list: Optional[list[float]] = [0.0]
    keys_np = None
    cost_np = None

    # Traceback: per level, parallel parent-index / track containers
    # aligned with that level's canonical order.
    tb_parent: list = []
    tb_track: list = []
    nodes_per_level: list[int] = []
    edges_per_level: list[int] = []
    pruned_per_level: list[int] = []
    total_nodes = 1

    def _stats() -> DPStats:
        return DPStats(
            tuple(nodes_per_level),
            tuple(edges_per_level),
            tuple(pruned_per_level),
            "vectorized",
        )

    for i, c in enumerate(conns):
        next_ref = conns[i + 1].left if i + 1 < M else N + 1
        row = cand[i]
        n = len(keys_list) if keys_list is not None else keys_np.shape[0]

        if fits_word and n * len(row) >= _VEC_MIN_EDGES:
            # ---------------- numpy path: the whole level at once.
            check()
            if keys_np is None:
                keys_np = np.array(keys_list, dtype=u64)
                cost_np = np.array(cost_list, dtype=np.float64)
                keys_list = cost_list = None
            gbits, clear, nv = (
                np.array([e[k] for e in row], dtype=u64) for k in range(3)
            )
            w_np = np.array([e[3] for e in row], dtype=np.float64)
            tracks = np.array([e[4] for e in row], dtype=np.int64)
            R_np = u64(next_ref * ones)
            L1_np = u64((c.left + 1) * ones)

            XH = keys_np | nH
            feas = nH & ~(XH - L1_np)
            ge = ((XH - R_np) & nH) >> nbm1
            m = ge * nFM
            base = (keys_np & m) | (R_np & (~m & nTOT))
            src, ti = np.nonzero((feas[:, None] & gbits[None, :]) != 0)
            edges = int(src.size)
            if edges == 0:
                if partial:
                    return None, _stats()
                raise _infeasible_error(i, conns, max_segments)

            newkey = (base[src] & clear[ti]) | nv[ti]
            parentkey = keys_np[src]
            tr = tracks[ti]
            # Canonical winner per successor: sorting by (newkey, cost,
            # parent frontier, track) puts the min-(cost, X, t) edge
            # first within each newkey group (== the dict tie-break).
            if weighted:
                ncost = cost_np[src] + w_np[ti]
                order = np.lexsort((tr, parentkey, ncost, newkey))
            else:
                ncost = None
                order = np.lexsort((tr, parentkey, newkey))
            skey = newkey[order]
            first = np.empty(skey.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(skey[1:], skey[:-1], out=first[1:])
            winners = order[first]
            keys = newkey[winners]       # ascending (frontier-lex)
            kparent = src[winners]
            ktrack = tr[winners]
            if weighted:
                kcost = ncost[winners]
                ro = np.lexsort((keys, kcost))
                keys = keys[ro]
                kcost = kcost[ro]
                kparent = kparent[ro]
                ktrack = ktrack[ro]
            else:
                kcost = np.zeros(keys.shape[0], dtype=np.float64)

            width = keys.shape[0]
            pruned = 0
            if prune and width > 1:
                # Blocked Pareto filter over the canonically sorted
                # level: item j is dropped iff some earlier item is
                # componentwise <= it (guard bits all survive the SWAR
                # subtraction).
                KH = keys | nH
                dominated = np.zeros(width, dtype=bool)
                for s0 in range(1, width, _VEC_PRUNE_BLOCK):
                    check()
                    s1 = min(width, s0 + _VEC_PRUNE_BLOCK)
                    dom = ((KH[s0:s1, None] - keys[None, :s1]) & nH) == nH
                    dom &= np.arange(s1)[None, :] < np.arange(s0, s1)[:, None]
                    dominated[s0:s1] = dom.any(axis=1)
                pruned = int(dominated.sum())
                if pruned:
                    kept = ~dominated
                    keys = keys[kept]
                    kcost = kcost[kept]
                    kparent = kparent[kept]
                    ktrack = ktrack[kept]
                    width = keys.shape[0]
                _state.pruned += pruned
            keys_np = keys
            cost_np = kcost
            tb_parent.append(kparent)
            tb_track.append(ktrack)
        else:
            # ---------------- scalar path: the per-edge loop on Python
            # ints, carrying the parent *index* alongside the parent key.
            if keys_list is None:
                keys_list = keys_np.tolist()
                cost_list = cost_np.tolist()
                keys_np = cost_np = None
            R = next_ref * ones
            L1 = (c.left + 1) * ones
            nxt: dict[int, tuple[float, int, int, int]] = {}
            nxt_get = nxt.get
            edges = 0
            for si in range(n):
                if not si % _CHECK_FRONTIERS:
                    check()
                X = keys_list[si]
                XH = X | H
                feas = H & ~(XH - L1)
                if not feas:
                    continue
                ge = ((XH - R) & H) >> bm1
                m = ge * FM
                base = (X & m) | (R & (TOT ^ m))
                cost = cost_list[si]
                for gbit, clear, nv, w, t in row:
                    if feas & gbit:
                        edges += 1
                        new = (base & clear) | nv
                        ncost = cost + w if weighted else 0.0
                        prev = nxt_get(new)
                        if (
                            prev is None
                            or ncost < prev[0]
                            or (
                                ncost == prev[0]
                                and (X, t) < (prev[1], prev[2])
                            )
                        ):
                            nxt[new] = (ncost, X, t, si)
            if not nxt:
                if partial:
                    return None, _stats()
                raise _infeasible_error(i, conns, max_segments)

            if weighted:
                items = sorted(nxt.items(), key=lambda kv: (kv[1][0], kv[0]))
            else:
                items = sorted(nxt.items())
            pruned = 0
            if prune and len(items) > 1:
                survivors: list[int] = []
                kept_items: list[tuple[int, tuple[float, int, int, int]]] = []
                for j, (key, val) in enumerate(items):
                    if not j % _CHECK_PARETO:
                        check()
                    KH = key | H
                    for s in survivors:
                        if (KH - s) & H == H:
                            pruned += 1
                            break
                    else:
                        survivors.append(key)
                        kept_items.append((key, val))
                items = kept_items
                _state.pruned += pruned

            keys_list = [key for key, _ in items]
            cost_list = [val[0] for _, val in items]
            tb_parent.append([val[3] for _, val in items])
            tb_track.append([val[2] for _, val in items])
            width = len(keys_list)

        pruned_per_level.append(pruned)
        nodes_per_level.append(width)
        edges_per_level.append(edges)
        total_nodes += width
        if total_nodes > node_limit:
            if partial:
                return None, _stats()
            raise _node_limit_error(node_limit)

    final_width = len(keys_list) if keys_list is not None else keys_np.shape[0]
    assert final_width == 1, "normalization should collapse level M"
    assignment = [-1] * M
    idx = 0
    for i in range(M - 1, -1, -1):
        assignment[i] = int(tb_track[i][idx])
        idx = int(tb_parent[i][idx])
    routing = Routing(channel, connections, tuple(assignment))
    return routing, _stats()
