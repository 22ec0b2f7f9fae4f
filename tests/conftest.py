"""Shared fixtures and cross-algorithm helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.core.channel import (
    SegmentedChannel,
    Track,
    channel_from_breaks,
    fully_segmented_channel,
    identical_channel,
    uniform_channel,
    unsegmented_channel,
)
from repro.core.connection import Connection, ConnectionSet


@pytest.fixture
def fig3():
    """The reconstructed Fig. 3 instance: (channel, connections)."""
    from repro.generators.paper_examples import fig3_channel, fig3_connections

    return fig3_channel(), fig3_connections()


@pytest.fixture
def small_channel():
    """A 3-track mixed-segmentation channel over 12 columns."""
    return channel_from_breaks(12, [(4, 8), (6,), ()], name="small")


@pytest.fixture
def identical_small():
    return identical_channel(3, 12, (4, 8))


@pytest.fixture
def deep_exact_instance():
    """1,200 unit connections on two unit-segmented tracks: the exact
    search recurses past Python's recursion limit (``RecursionError``)
    within milliseconds."""
    channel = uniform_channel(2, 2402, 1)
    return channel, ConnectionSet(
        [Connection(2 * i + 1, 2 * i + 1) for i in range(1200)]
    )


def all_small_instances(n_columns=6, n_tracks=2, breaks_options=None, max_m=3):
    """Enumerate small (channel, connections) instances for oracle tests.

    Yields a few hundred instances: every combination of per-track breaks
    from ``breaks_options`` and every multiset of up to ``max_m`` spans
    from a coarse span grid.
    """
    if breaks_options is None:
        breaks_options = [(), (3,), (2, 4)]
    spans = [
        (l, r)
        for l in range(1, n_columns + 1)
        for r in range(l, n_columns + 1)
    ]
    coarse = [s for s in spans if (s[0] + s[1]) % 2 == 0]  # thin the grid
    for track_breaks in itertools.product(breaks_options, repeat=n_tracks):
        channel = channel_from_breaks(n_columns, list(track_breaks))
        for m in range(1, max_m + 1):
            for combo in itertools.combinations_with_replacement(coarse, m):
                conns = ConnectionSet.from_spans(list(combo))
                yield channel, conns


def brute_force_routable(channel, connections, max_segments=None) -> bool:
    """Tiny independent oracle: try every assignment tuple directly
    against the Routing validator (exponential; only for tiny instances)."""
    from repro.core.routing import Routing

    M = len(connections)
    T = channel.n_tracks
    for assignment in itertools.product(range(T), repeat=M):
        r = Routing(channel, connections, assignment)
        if r.is_valid(max_segments):
            return True
    return False
