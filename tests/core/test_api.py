"""Tests for the route() facade."""

import pytest

from repro.core.api import ALGORITHMS, route
from repro.core.channel import channel_from_breaks, identical_channel
from repro.core.connection import ConnectionSet
from repro.core.errors import HeuristicFailure, RoutingInfeasibleError
from repro.core.routing import occupied_length_weight


@pytest.fixture
def channel():
    return channel_from_breaks(9, [(3, 6), (5,), ()])


@pytest.fixture
def conns():
    return ConnectionSet.from_spans([(1, 3), (4, 6), (7, 9), (2, 5)])


class TestDispatch:
    def test_unknown_algorithm(self, channel, conns):
        with pytest.raises(ValueError):
            route(channel, conns, algorithm="magic")

    @pytest.mark.parametrize(
        "alg", [a for a in ALGORITHMS if a not in ("left_edge", "greedy2")]
    )
    def test_every_algorithm_routes_or_reports(self, channel, conns, alg):
        if alg in ("greedy1", "matching"):
            cs = ConnectionSet.from_spans([(1, 3), (4, 6), (7, 9)])
            r = route(channel, cs, algorithm=alg)
            r.validate(max_segments=1)
        else:
            r = route(channel, conns, algorithm=alg)
            r.validate()

    def test_left_edge_on_identical(self, conns):
        ch = identical_channel(3, 9, (3, 6))
        r = route(ch, conns, algorithm="left_edge")
        r.validate()

    def test_greedy2_on_two_segment_channel(self):
        ch = channel_from_breaks(9, [(4,), (6,)])
        cs = ConnectionSet.from_spans([(1, 3), (5, 9)])
        route(ch, cs, algorithm="greedy2").validate()

    def test_auto_identical_uses_left_edge(self, conns):
        ch = identical_channel(3, 9, (3, 6))
        route(ch, conns).validate()

    def test_auto_k1(self, channel):
        cs = ConnectionSet.from_spans([(1, 3), (4, 6), (7, 9)])
        r = route(channel, cs, max_segments=1)
        r.validate(max_segments=1)
        assert r.max_segments_used() == 1

    def test_auto_k1_weighted(self, channel):
        cs = ConnectionSet.from_spans([(1, 3), (7, 9)])
        w = occupied_length_weight(channel)
        r = route(channel, cs, max_segments=1, weight=w)
        r.validate(max_segments=1)

    def test_auto_weighted_general(self, channel, conns):
        w = occupied_length_weight(channel)
        r = route(channel, conns, weight=w)
        r.validate()
        # Must equal the exact optimum.
        expected = route(channel, conns, weight=w, algorithm="exact")
        assert r.total_weight(w) == expected.total_weight(w)

    def test_auto_infeasible(self):
        ch = channel_from_breaks(6, [()])
        cs = ConnectionSet.from_spans([(1, 3), (2, 5)])
        with pytest.raises(RoutingInfeasibleError):
            route(ch, cs)

    def test_results_always_validated(self, channel, conns):
        for alg in ("dp", "dp_types", "exact", "lp"):
            r = route(channel, conns, algorithm=alg, max_segments=2)
            r.validate(2)

    def test_auto_many_tracks_few_types(self):
        # 14 tracks, 2 types: auto must not explode (typed DP path).
        breaks = [(4, 8)] * 7 + [(6,)] * 7
        ch = channel_from_breaks(12, breaks)
        cs = ConnectionSet.from_spans(
            [(1, 4)] * 5 + [(5, 8)] * 5 + [(9, 12)] * 4
        )
        r = route(ch, cs, max_segments=1)
        r.validate(1)


class TestTypedFallthrough:
    """The auto dispatch branches on error types, not message text."""

    def test_reworded_node_limit_still_falls_through(self, monkeypatch):
        import functools

        import repro.core.api as api
        import repro.core.kernels as kernels
        from repro.core.decompose import clean_cuts
        from repro.generators.random_instances import (
            random_channel,
            random_feasible_instance,
        )

        ch = random_channel(6, 30, 5.0, seed=0)
        cs = random_feasible_instance(ch, 8, seed=50)
        # Reaches the general DP branch: too many types for the typed DP,
        # few enough tracks for the DP, and nothing to decompose.
        assert len(ch.track_types()) > api._TYPED_DP_TYPE_LIMIT
        assert ch.n_tracks <= api._DP_TRACK_LIMIT
        assert not clean_cuts(ch, cs)

        original = kernels._node_limit_error

        def reworded(node_limit):
            exc = original(node_limit)
            exc.args = (f"assignment graph outgrew {node_limit} states",)
            return exc

        monkeypatch.setattr(kernels, "_node_limit_error", reworded)
        monkeypatch.setattr(
            api, "route_dp", functools.partial(api.route_dp, node_limit=1)
        )
        with pytest.raises(RoutingInfeasibleError, match="outgrew"):
            api.route_dp(ch, cs, 2)
        route(ch, cs, max_segments=2).validate(2)

    def test_lp_proof_is_reported_as_infeasible(self):
        from repro.core.errors import LPInfeasibilityProof

        # 13 distinct 3-segment tracks (past both DP limits) and 14
        # full-width connections: the LP relaxation proves infeasibility.
        ch = channel_from_breaks(30, [(2 + t, 14 + t) for t in range(13)])
        cs = ConnectionSet.from_spans([(1, 30)] * 14)
        with pytest.raises(RoutingInfeasibleError, match="proves") as info:
            route(ch, cs)
        assert isinstance(info.value.__cause__, LPInfeasibilityProof)
