"""Core segmented channel routing: the paper's primary contribution.

Data model (channels, connections, routings), the exact and heuristic
routing algorithms of Sections IV and V, and the NP-completeness
constructions of Section III / the Appendix.
"""

from repro.core.api import ALGORITHMS, route
from repro.core.capacity import Bottleneck, diagnose
from repro.core.channel import (
    Segment,
    SegmentedChannel,
    Track,
    channel_from_breaks,
    fully_segmented_channel,
    identical_channel,
    staggered_channel,
    unsegmented_channel,
    uniform_channel,
)
from repro.core.connection import Connection, ConnectionSet, density, extended_density
from repro.core.decompose import clean_cuts, decompose, route_dp_decomposed
from repro.core.dp import DPStats, route_dp, route_dp_with_stats
from repro.core.dp_types import (
    TypedDPStats,
    route_dp_track_types,
    route_dp_track_types_with_stats,
)
from repro.core.errors import (
    ChannelError,
    ConnectionError_,
    FormatError,
    HeuristicFailure,
    LPInfeasibilityProof,
    NodeLimitExceeded,
    ReproError,
    RoutingInfeasibleError,
    ValidationError,
)
from repro.core.exact import count_routings, route_exact, route_exact_optimal
from repro.core.geometry import ChannelGeometry, channel_geometry
from repro.core.kernels import (
    active_kernel,
    run_dp_reference,
    run_dp_vectorized,
)
from repro.core.generalized import (
    GeneralizedDPStats,
    generalized_switch_count,
    route_generalized,
    route_generalized_min_switches,
    route_generalized_with_stats,
)
from repro.core.incremental import (
    IncrementalRouter,
    insert_connection,
    remove_connection,
)
from repro.core.greedy import route_one_segment_greedy, route_two_segment_tracks_greedy
from repro.core.heuristics import (
    route_best_fit,
    route_first_fit,
    route_random_restart,
)
from repro.core.left_edge import route_left_edge_identical, route_left_edge_unconstrained
from repro.core.lp import LPReport, build_routing_lp, lp_relaxation_report, route_lp
from repro.core.matching import (
    one_segment_bipartite_graph,
    one_segment_feasible,
    route_one_segment_matching,
)
from repro.core.npc import (
    NMTSInstance,
    ReductionInstance,
    build_two_segment_instance,
    build_unlimited_instance,
    matching_from_routing,
    normalize_nmts,
    routing_from_matching,
    solve_nmts,
)
from repro.core.routing import (
    GeneralizedRouting,
    Routing,
    occupied_length_weight,
    segment_count_weight,
    uniform_weight,
)

__all__ = [
    # model
    "Segment", "Track", "SegmentedChannel", "Connection", "ConnectionSet",
    "Routing", "GeneralizedRouting",
    # channel builders
    "channel_from_breaks", "fully_segmented_channel", "identical_channel",
    "staggered_channel", "unsegmented_channel", "uniform_channel",
    # measures & weights
    "density", "extended_density", "occupied_length_weight",
    "segment_count_weight", "uniform_weight",
    # algorithms
    "route", "ALGORITHMS",
    "route_left_edge_identical", "route_left_edge_unconstrained",
    "route_one_segment_greedy", "route_two_segment_tracks_greedy",
    "route_one_segment_matching", "one_segment_feasible",
    "one_segment_bipartite_graph",
    "route_dp", "route_dp_with_stats", "DPStats",
    "active_kernel", "run_dp_reference", "run_dp_vectorized",
    "ChannelGeometry", "channel_geometry",
    "clean_cuts", "decompose", "route_dp_decomposed",
    "route_dp_track_types", "route_dp_track_types_with_stats", "TypedDPStats",
    "route_generalized", "route_generalized_with_stats", "GeneralizedDPStats",
    "route_generalized_min_switches", "generalized_switch_count",
    "route_exact", "route_exact_optimal", "count_routings",
    "IncrementalRouter", "insert_connection", "remove_connection",
    "route_first_fit", "route_best_fit", "route_random_restart",
    "Bottleneck", "diagnose",
    "route_lp", "lp_relaxation_report", "build_routing_lp", "LPReport",
    # NP-completeness constructions
    "NMTSInstance", "solve_nmts", "normalize_nmts", "ReductionInstance",
    "build_unlimited_instance", "build_two_segment_instance",
    "routing_from_matching", "matching_from_routing",
    # errors
    "ReproError", "ChannelError", "ConnectionError_", "FormatError",
    "HeuristicFailure", "RoutingInfeasibleError", "ValidationError",
    "NodeLimitExceeded", "LPInfeasibilityProof",
]
