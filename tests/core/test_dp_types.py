"""Tests for the Theorem-7 typed (canonical-frontier) DP."""

import random
from pathlib import Path

import pytest

from repro.analysis.complexity import theorem7_bound
from repro.core.channel import channel_from_breaks, identical_channel
from repro.core.connection import ConnectionSet
from repro.core.dp import route_dp, route_dp_with_stats
from repro.core.dp_types import (
    route_dp_track_types,
    route_dp_track_types_with_stats,
)
from repro.core.errors import ReproError, RoutingInfeasibleError
from repro.core.routing import occupied_length_weight
from repro.design.segmentation import geometric_segmentation
from repro.generators.random_instances import (
    random_feasible_instance,
    random_uniform_instance,
)


def _two_type_channel(t1: int, t2: int, n: int = 12):
    breaks = [(4, 8)] * t1 + [(6,)] * t2
    return channel_from_breaks(n, breaks)


class TestTypedDP:
    def test_basic(self):
        ch = _two_type_channel(2, 2)
        cs = ConnectionSet.from_spans([(1, 4), (5, 8), (2, 6), (9, 12)])
        route_dp_track_types(ch, cs).validate()

    def test_agrees_with_general_dp_random(self):
        rng = random.Random(9)
        for _ in range(50):
            t1, t2 = rng.randint(1, 3), rng.randint(1, 3)
            ch = _two_type_channel(t1, t2)
            spans = []
            for _ in range(rng.randint(1, 6)):
                l = rng.randint(1, 12)
                spans.append((l, min(12, l + rng.randint(0, 6))))
            cs = ConnectionSet.from_spans(spans)
            k = rng.choice([None, 1, 2])
            general_ok = True
            try:
                route_dp(ch, cs, max_segments=k).validate(k)
            except RoutingInfeasibleError:
                general_ok = False
            typed_ok = True
            try:
                route_dp_track_types(ch, cs, max_segments=k).validate(k)
            except RoutingInfeasibleError:
                typed_ok = False
            assert typed_ok == general_ok

    def test_weighted_agrees_with_general(self):
        rng = random.Random(10)
        for _ in range(30):
            ch = _two_type_channel(rng.randint(1, 3), rng.randint(1, 3))
            spans = []
            for _ in range(rng.randint(1, 5)):
                l = rng.randint(1, 12)
                spans.append((l, min(12, l + rng.randint(0, 5))))
            cs = ConnectionSet.from_spans(spans)
            w = occupied_length_weight(ch)
            try:
                expected = route_dp(ch, cs, weight=w).total_weight(w)
            except RoutingInfeasibleError:
                continue
            got = route_dp_track_types(ch, cs, weight=w)
            got.validate()
            assert got.total_weight(w) == expected

    def test_identical_channel_single_type(self):
        ch = identical_channel(5, 12, (4, 8))
        cs = ConnectionSet.from_spans([(1, 4)] * 4 + [(5, 8)])
        r, stats = route_dp_track_types_with_stats(ch, cs)
        r.validate()
        assert stats.n_types == 1
        assert stats.tracks_per_type == (5,)

    def test_canonical_width_not_larger_than_general(self):
        ch = _two_type_channel(3, 3)
        cs = ConnectionSet.from_spans(
            [(1, 4), (2, 6), (3, 8), (5, 8), (7, 12), (9, 12)]
        )
        _, typed = route_dp_track_types_with_stats(ch, cs, max_segments=2)
        _, general = route_dp_with_stats(ch, cs, max_segments=2)
        assert typed.max_level_width <= general.max_level_width

    def test_theorem7_bound_holds(self):
        rng = random.Random(12)
        for _ in range(15):
            t1, t2 = rng.randint(1, 4), rng.randint(1, 4)
            ch = _two_type_channel(t1, t2)
            spans = []
            for _ in range(rng.randint(2, 7)):
                l = rng.randint(1, 12)
                spans.append((l, min(12, l + rng.randint(0, 5))))
            cs = ConnectionSet.from_spans(spans)
            K = rng.choice([1, 2])
            try:
                _, stats = route_dp_track_types_with_stats(
                    ch, cs, max_segments=K
                )
            except RoutingInfeasibleError:
                continue
            assert stats.max_level_width <= theorem7_bound((t1, t2), K)

    def test_non_type_uniform_weight_rejected(self):
        ch = _two_type_channel(2, 1)
        cs = ConnectionSet.from_spans([(1, 4)])

        def w(c, t):
            return float(t)  # depends on concrete track, not type

        with pytest.raises(RoutingInfeasibleError):
            route_dp_track_types(ch, cs, weight=w)

    def test_empty(self):
        ch = _two_type_channel(1, 1)
        assert route_dp_track_types(ch, ConnectionSet([])).assignment == ()

    def test_infeasible(self):
        ch = channel_from_breaks(6, [(3,), (2, 4)])
        cs = ConnectionSet.from_spans([(1, 6)] * 3)
        with pytest.raises(RoutingInfeasibleError):
            route_dp_track_types(ch, cs)

    def test_many_tracks_few_types_scales(self):
        # 16 tracks of 2 types would be hopeless for the general DP
        # (2^16 * 16! bound); the typed DP routes it instantly.
        ch = _two_type_channel(8, 8, n=12)
        spans = [(1, 4)] * 6 + [(5, 8)] * 6 + [(9, 12)] * 4
        cs = ConnectionSet.from_spans(spans)
        r = route_dp_track_types(ch, cs, max_segments=1)
        r.validate(1)


# ----------------------------------------------------------------------
# Pinned answers: assignments, level widths and errors on a seeded
# few-type corpus, recorded in tests/data/dp_types_pinned.txt.
# ----------------------------------------------------------------------
PINNED_FILE = Path(__file__).resolve().parent.parent / "data" / "dp_types_pinned.txt"


def _pinned_cases():
    """``(label, n_types, seed, options)``; ``weighted`` routes under
    ``occupied_length_weight``."""
    for n_types in (2, 3):
        for seed in range(3):
            for k in (1, 2, 5, None):
                yield (f"types={n_types} seed={seed} K={k}", n_types, seed,
                       {"max_segments": k})
            yield (f"types={n_types} seed={seed} weighted", n_types, seed,
                   {"weighted": True})
    # 317 nodes in all: 100 trips mid-run, 316 at the last level.
    for limit in (100, 316, 317):
        yield (f"types=2 seed=0 K=None node_limit={limit}", 2, 0,
               {"node_limit": limit})


def _pinned_outcome(n_types, seed, weighted=False, **options):
    """One line: ``assignment | nodes_per_level``, or ``Error: message``."""
    channel = geometric_segmentation(3 * n_types, 32, 3, 2.0, n_types)
    if seed % 2:
        connections = random_uniform_instance(10, 32, seed=seed, mean_length=5.0)
    else:
        connections = random_feasible_instance(channel, 13, seed=seed)
    if weighted:
        options["weight"] = occupied_length_weight(channel)
    try:
        routing, stats = route_dp_track_types_with_stats(
            channel, connections, **options
        )
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (" ".join(map(str, routing.assignment)) + " | "
            + " ".join(map(str, stats.nodes_per_level)))


def _pinned_lines():
    with open(PINNED_FILE, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    return dict(
        line.split(": ", 1) for line in lines if line and not line.startswith("#")
    )


_PINNED_CASES = list(_pinned_cases())
_PINNED = _pinned_lines()


def test_pinned_file_covers_every_case():
    assert sorted(_PINNED) == sorted(c[0] for c in _PINNED_CASES)


@pytest.mark.parametrize(
    "label,n_types,seed,options", _PINNED_CASES, ids=[c[0] for c in _PINNED_CASES]
)
def test_pinned_answers(label, n_types, seed, options):
    assert _pinned_outcome(n_types, seed, **options) == _PINNED[label]
