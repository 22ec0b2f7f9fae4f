"""The 0-1 linear programming heuristic (Section IV-C).

Problems 1 and 2 reduce to a 0-1 LP: binary ``x[i,t]`` says connection
``c_i`` is assigned to track ``t``; each connection takes at most one
track; for every segment, at most one of the connections that would occupy
it may be assigned to its track; the objective maximizes the number of
assigned connections.  A routing exists iff the 0-1 optimum is ``M``.

The paper's observation — reproduced by the LP60 experiment — is that on
randomly generated feasible instances (simulated there up to ``M = 60``,
``T = 25``) the *relaxation* almost always returns a 0-1 vertex already,
so plain simplex acts as a fast heuristic router.  When the relaxation
comes back fractional we follow with a left-to-right rounding repair
guided by the fractional values; if that also fails, the failure carries
no infeasibility proof (:class:`HeuristicFailure`, not
:class:`RoutingInfeasibleError`).

Note the segment-capacity constraints here are *exact*, not just the
pairwise-conflict cliques the paper sketches: they are the tightest form
of "sets of connections of which at most one can be assigned" and make the
0-1 optimum exactly characterize routability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import HeuristicFailure, LPInfeasibilityProof
from repro.core.routing import Routing
from repro.substrate.simplex import LinearProgram

__all__ = ["LPReport", "build_routing_lp", "route_lp", "lp_relaxation_report"]

_INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class LPReport:
    """Outcome of one LP relaxation solve (the LP60 experiment row)."""

    m_connections: int
    n_tracks: int
    n_variables: int
    n_constraints: int
    objective: float
    integral: bool          #: every variable within tol of 0 or 1
    all_assigned: bool      #: objective reaches M (within tol)
    routed_directly: bool   #: integral and all_assigned: the LP *is* a routing

    @property
    def lp_succeeded(self) -> bool:
        return self.routed_directly


def build_routing_lp(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
) -> tuple[LinearProgram, list[tuple[int, int]]]:
    """Assemble the Section IV-C LP.

    Returns the program and the list of variable keys ``(i, t)`` (only
    K-feasible pairs get variables, as the paper prescribes for Problem 2).
    """
    connections.check_within(channel)
    lp = LinearProgram()
    keys: list[tuple[int, int]] = []
    # Variables + objective.
    feasible: list[list[int]] = []
    for i, c in enumerate(connections):
        row = []
        for t in range(channel.n_tracks):
            if max_segments is not None:
                if channel.segments_occupied(t, c.left, c.right) > max_segments:
                    continue
            lp.variable((i, t), objective=1.0)
            keys.append((i, t))
            row.append(t)
        feasible.append(row)
    # Each connection on at most one track.
    for i, row in enumerate(feasible):
        if row:
            lp.add_le({(i, t): 1.0 for t in row}, 1.0)
    # Each segment occupied at most once.
    for t in range(channel.n_tracks):
        track = channel.track(t)
        per_segment: dict[int, dict[tuple[int, int], float]] = {}
        for i, c in enumerate(connections):
            if t not in feasible[i]:
                continue
            for si in track.segments_spanned(c.left, c.right):
                per_segment.setdefault(si, {})[(i, t)] = 1.0
        for si, coeffs in per_segment.items():
            if len(coeffs) > 1:
                lp.add_le(coeffs, 1.0)
    return lp, keys


def _classify(
    values: dict[object, float], m: int, objective: float
) -> tuple[bool, bool]:
    integral = all(
        v <= _INTEGRALITY_TOL or v >= 1.0 - _INTEGRALITY_TOL for v in values.values()
    )
    all_assigned = objective >= m - 1e-6
    return integral, all_assigned


def lp_relaxation_report(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
) -> LPReport:
    """Solve the relaxation and report whether it already is a routing."""
    lp, _ = build_routing_lp(channel, connections, max_segments)
    result, values = lp.solve()
    if not result.ok:
        return LPReport(
            len(connections), channel.n_tracks, lp.n_variables, lp.n_constraints,
            objective=result.objective, integral=False, all_assigned=False,
            routed_directly=False,
        )
    integral, all_assigned = _classify(values, len(connections), result.objective)
    return LPReport(
        len(connections), channel.n_tracks, lp.n_variables, lp.n_constraints,
        objective=result.objective, integral=integral, all_assigned=all_assigned,
        routed_directly=integral and all_assigned,
    )


def route_lp(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
) -> Routing:
    """Route via the LP relaxation, with rounding repair as fallback.

    Raises
    ------
    LPInfeasibilityProof
        If the relaxation's optimum is below ``M``, which proves that no
        complete routing exists.
    HeuristicFailure
        If neither the relaxation nor the guided rounding produces a
        complete routing.  This is *not* a proof of infeasibility.
    """
    M = len(connections)
    if M == 0:
        return Routing(channel, connections, ())
    lp, keys = build_routing_lp(channel, connections, max_segments)
    result, values = lp.solve()
    if not result.ok:
        raise HeuristicFailure(f"LP solve failed: {result.status}")
    if result.objective < M - 1e-6:
        # The relaxation upper-bounds the 0-1 optimum, so objective < M
        # actually *proves* infeasibility; still a HeuristicFailure for
        # interface uniformity, typed so callers can act on the proof.
        raise LPInfeasibilityProof(
            f"LP optimum {result.objective:.3f} < M={M}: relaxation proves "
            f"no complete routing exists"
        )

    integral, _ = _classify(values, M, result.objective)
    if integral:
        assignment = [-1] * M
        for (i, t), v in values.items():
            if v >= 1.0 - _INTEGRALITY_TOL:
                assignment[i] = t
        if all(a >= 0 for a in assignment):
            routing = Routing(channel, connections, tuple(assignment))
            if routing.is_valid(max_segments):
                return routing

    # Rounding repair: left-to-right greedy, preferring high LP value.
    blocked_until = [0] * channel.n_tracks
    assignment = [-1] * M
    for i, c in enumerate(connections):
        candidates = []
        for t in range(channel.n_tracks):
            if blocked_until[t] >= channel.track(t).segment_start_at(c.left):
                continue
            if max_segments is not None:
                if channel.segments_occupied(t, c.left, c.right) > max_segments:
                    continue
            candidates.append((values.get((i, t), 0.0), -t))
        if not candidates:
            raise HeuristicFailure(
                f"LP rounding failed at {c}: fractional solution could not "
                f"be repaired (instance may still be routable)"
            )
        _, neg_t = max(candidates)
        t = -neg_t
        assignment[i] = t
        blocked_until[t] = channel.segment_end_at(t, c.right)
    return Routing(channel, connections, tuple(assignment))
