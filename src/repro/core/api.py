"""High-level routing facade.

:func:`route` picks the algorithm the paper prescribes for the instance's
shape — left-edge for identically segmented tracks, the Theorem-3 greedy
for ``K = 1``, the Theorem-4 greedy for two-segment tracks, the Theorem-7
typed DP when tracks fall into few types, the general assignment-graph DP
otherwise — and falls back from the LP heuristic to exact search for large
adversarial instances.  Every returned routing is validated before it is
handed back.
"""

from __future__ import annotations

from typing import Optional

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.dp import route_dp
from repro.core.dp_types import route_dp_track_types
from repro.core.errors import (
    HeuristicFailure,
    LPInfeasibilityProof,
    NodeLimitExceeded,
    RoutingInfeasibleError,
)
from repro.core.exact import route_exact, route_exact_optimal
from repro.core.greedy import route_one_segment_greedy, route_two_segment_tracks_greedy
from repro.core.left_edge import route_left_edge_identical
from repro.core.lp import route_lp
from repro.core.matching import route_one_segment_matching
from repro.core.routing import Routing, WeightFunction

__all__ = ["route", "route_many", "engine_stats", "ALGORITHMS"]

#: Engine conveniences re-exported lazily (the engine imports this module,
#: so an eager import would be circular).  ``route_many`` batches requests
#: over a worker pool with caching and deadlines; ``engine_stats`` returns
#: the default engine's metrics snapshot.
_ENGINE_EXPORTS = {"route_many": "route_many", "engine_stats": "stats"}


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        import repro.engine as _engine

        return getattr(_engine, _ENGINE_EXPORTS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Algorithms selectable by name in :func:`route`.
ALGORITHMS = (
    "auto",
    "left_edge",
    "greedy1",
    "greedy2",
    "matching",
    "dp",
    "dp_types",
    "lp",
    "exact",
)

# DP state space stays comfortable below roughly this many tracks (the
# Theorem-5 bound is 2^T T!, but typical instances stay far below it; the
# node limit still guards the worst case).
_DP_TRACK_LIMIT = 12
_TYPED_DP_TYPE_LIMIT = 4


def route(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int] = None,
    weight: Optional[WeightFunction] = None,
    algorithm: str = "auto",
) -> Routing:
    """Route ``connections`` in ``channel``; the one-call public API.

    Parameters
    ----------
    max_segments:
        ``K`` of Problem 2 (``None`` = unlimited, Problem 1).
    weight:
        ``w(c, t)`` of Problem 3; when given, exact algorithms return a
        minimum-weight routing.
    algorithm:
        One of :data:`ALGORITHMS`.  ``"auto"`` follows the paper's special
        cases; a concrete name forces that algorithm (and raises whatever
        it raises).

    Raises
    ------
    RoutingInfeasibleError
        When the chosen algorithm proves no routing exists.
    HeuristicFailure
        Only when explicitly asked for ``"lp"`` and the heuristic fails.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")

    if algorithm == "left_edge":
        return _validated(
            route_left_edge_identical(channel, connections, max_segments),
            max_segments,
        )
    if algorithm == "greedy1":
        return _validated(route_one_segment_greedy(channel, connections), 1)
    if algorithm == "greedy2":
        return _validated(
            route_two_segment_tracks_greedy(channel, connections), max_segments
        )
    if algorithm == "matching":
        return _validated(
            route_one_segment_matching(channel, connections, weight), 1
        )
    if algorithm == "dp":
        return _validated(
            route_dp(channel, connections, max_segments, weight), max_segments
        )
    if algorithm == "dp_types":
        return _validated(
            route_dp_track_types(channel, connections, max_segments, weight),
            max_segments,
        )
    if algorithm == "lp":
        return _validated(
            route_lp(channel, connections, max_segments), max_segments
        )
    if algorithm == "exact":
        if weight is not None:
            return _validated(
                route_exact_optimal(channel, connections, weight, max_segments),
                max_segments,
            )
        return _validated(
            route_exact(channel, connections, max_segments), max_segments
        )

    # --- auto dispatch -------------------------------------------------
    if channel.is_identically_segmented() and weight is None:
        return _validated(
            route_left_edge_identical(channel, connections, max_segments),
            max_segments,
        )
    if max_segments == 1:
        if weight is None:
            return _validated(route_one_segment_greedy(channel, connections), 1)
        return _validated(
            route_one_segment_matching(channel, connections, weight), 1
        )
    if (
        channel.max_segments_per_track() <= 2
        and max_segments is None
        and weight is None
    ):
        return _validated(
            route_two_segment_tracks_greedy(channel, connections), None
        )
    if len(channel.track_types()) <= _TYPED_DP_TYPE_LIMIT and (
        weight is None or _weight_is_type_uniform(channel, connections, weight)
    ):
        try:
            return _validated(
                route_dp_track_types(channel, connections, max_segments, weight),
                max_segments,
            )
        except NodeLimitExceeded:
            pass
    if channel.n_tracks <= _DP_TRACK_LIMIT:
        try:
            # Clean cuts (all-track switch boundaries nothing spans) make
            # the instance separable; route piecewise when they exist.
            from repro.core.decompose import clean_cuts, route_dp_decomposed

            if clean_cuts(channel, connections):
                return _validated(
                    route_dp_decomposed(
                        channel, connections, max_segments, weight
                    ),
                    max_segments,
                )
            return _validated(
                route_dp(channel, connections, max_segments, weight),
                max_segments,
            )
        except NodeLimitExceeded:
            pass
    if weight is None:
        try:
            return _validated(
                route_lp(channel, connections, max_segments), max_segments
            )
        except LPInfeasibilityProof as exc:
            raise RoutingInfeasibleError(str(exc)) from exc
        except HeuristicFailure:
            pass
        return _validated(route_exact(channel, connections, max_segments), max_segments)
    return _validated(
        route_exact_optimal(channel, connections, weight, max_segments),
        max_segments,
    )


def _validated(routing: Routing, max_segments: Optional[int]) -> Routing:
    routing.validate(max_segments)
    return routing


def _weight_is_type_uniform(
    channel: SegmentedChannel, connections: ConnectionSet, weight: WeightFunction
) -> bool:
    """Cheap check that ``w(c, t)`` depends only on the track's type, which
    the Theorem-7 DP requires."""
    for group in channel.track_types().values():
        rep = group[0]
        for c in connections:
            ref = weight(c, rep)
            if any(weight(c, t) != ref for t in group[1:]):
                return False
    return True
