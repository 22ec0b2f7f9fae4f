"""Kernel equivalence: the production DP kernel vs the tuple reference.

The load-bearing guarantee of :mod:`repro.core.kernels` is that the
production kernel, :func:`run_dp_vectorized` (bit-packed frontiers,
SWAR feasibility tests, dominance pruning; wide levels as numpy batches,
narrow ones as a scalar loop), is *observationally identical* to the
reference DP: same assignments, same infeasibility errors at the same
level, same optimal Problem-3 weights, and (with pruning off) the same
per-level node and edge counts.  Its two per-level paths are identical
to each other, pruned counts included.  The property suite here routes
hundreds of seeded random instances, mixed across K limits, weight
objectives, and infeasible cases, and asserts exactly that — forcing
every level onto the numpy path or onto the scalar path where a test
compares the two.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro.core.kernels as kernels
from repro.core.channel import channel_from_breaks
from repro.core.connection import Connection, ConnectionSet
from repro.core.dp import route_dp, route_dp_with_stats
from repro.core.errors import RoutingInfeasibleError
from repro.core.kernels import (
    active_kernel,
    consume_dp_pruned,
    consume_kernel_trace,
    run_dp_reference,
    run_dp_vectorized,
    set_kernel_trace,
)
from repro.core.routing import occupied_length_weight, segment_count_weight
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)

#: The environment variable that once selected the kernel; it must now be
#: ignored.
_RETIRED_ENV_VAR = "REPRO_KERNELS"

PRODUCTION_PRUNE_BLOCK = kernels._VEC_PRUNE_BLOCK


# ----------------------------------------------------------------------
# instance corpus
# ----------------------------------------------------------------------
def _random_connections(rng, n_columns, m):
    """Arbitrary (often infeasible) connection sets."""
    conns = []
    for j in range(m):
        left = rng.randint(1, max(1, n_columns - 1))
        right = rng.randint(left + 1, min(n_columns, left + rng.randint(1, 8)))
        conns.append(Connection(left, right, f"c{j}"))
    return ConnectionSet(conns)


def _corpus(n_instances, seed=0):
    """Seeded mixed corpus: (channel, connections, K, weight) tuples."""
    rng = random.Random(seed)
    out = []
    for trial in range(n_instances):
        T = rng.randint(1, 7)
        N = rng.randint(8, 64)
        ch = random_channel(T, N, rng.uniform(1.5, 6.0), seed=10_000 + trial)
        cs = _random_connections(rng, N, rng.randint(0, 14))
        K = rng.choice([None, None, 1, 2, 3])
        weight = rng.choice([
            None,
            occupied_length_weight(ch),
            segment_count_weight(ch),
        ])
        out.append((ch, cs, K, weight))
    return out


def _solve(kernel, ch, cs, K, weight, **kw):
    """Normalize a kernel run to (assignment, stats, error message)."""
    try:
        routing, stats = kernel(ch, cs, K, weight, **kw)
        return routing.assignment, stats, None
    except RoutingInfeasibleError as exc:
        return None, None, str(exc)


def _total_weight(cs, assignment, weight):
    return sum(weight(c, t) for c, t in zip(cs.connections, assignment))


def _force_path(monkeypatch, path):
    """Put every level of later :func:`run_dp_vectorized` runs on one
    path: ``"numpy"`` (any level qualifies) or ``"scalar"`` (none does)."""
    monkeypatch.setattr(
        kernels, "_VEC_MIN_EDGES", 0 if path == "numpy" else 10**9
    )


def _solve_on(monkeypatch, path, ch, cs, K, weight, **kw):
    _force_path(monkeypatch, path)
    return _solve(run_dp_vectorized, ch, cs, K, weight, **kw)


def _assert_paths_agree(numpy_run, scalar_run):
    """The two paths agree on everything: assignment, error message and
    per-level node, edge and pruned counts."""
    n_a, n_s, n_err = numpy_run
    s_a, s_s, s_err = scalar_run
    assert n_err == s_err
    assert n_a == s_a
    if n_a is not None:
        assert n_s.nodes_per_level == s_s.nodes_per_level
        assert n_s.edges_per_level == s_s.edges_per_level
        assert n_s.nodes_pruned_per_level == s_s.nodes_pruned_per_level
        assert n_s.kernel == s_s.kernel == "vectorized"


# ----------------------------------------------------------------------
# the 300+ instance equivalence property
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    CORPUS = _corpus(320)

    @pytest.mark.parametrize("chunk", range(8))
    def test_packed_matches_reference(self, chunk):
        """The production kernel vs the reference: identical assignments,
        identical infeasibility messages (hence identical failing level),
        identical stats modulo pruning counters — across 320 mixed random
        instances."""
        for ch, cs, K, weight in self.CORPUS[chunk::8]:
            ref_a, ref_s, ref_err = _solve(run_dp_reference, ch, cs, K, weight)
            pk_a, pk_s, pk_err = _solve(run_dp_vectorized, ch, cs, K, weight)
            np_a, np_s, np_err = _solve(
                run_dp_vectorized, ch, cs, K, weight, prune=False
            )

            # The error message embeds the 1-based failing level, so string
            # equality pins the level too.
            assert ref_err == pk_err == np_err
            assert ref_a == pk_a == np_a

            if ref_a is None:
                continue
            # DPStats identical modulo pruning counters: exactly equal with
            # pruning disabled ...
            assert ref_s.nodes_per_level == np_s.nodes_per_level
            assert ref_s.edges_per_level == np_s.edges_per_level
            assert ref_s.nodes_pruned_per_level == ()
            # ... and never-larger with it enabled, with the counters
            # accounting for every dropped frontier.
            assert len(pk_s.nodes_per_level) == len(ref_s.nodes_per_level)
            for kept, pruned, ref_n in zip(
                pk_s.nodes_per_level,
                pk_s.nodes_pruned_per_level,
                ref_s.nodes_per_level,
            ):
                assert kept <= ref_n
                assert kept + pruned >= kept  # counters are non-negative
            assert pk_s.kernel == "vectorized"
            assert ref_s.kernel == "reference"

    @pytest.mark.parametrize("chunk", range(8))
    def test_vectorized_matches_packed(self, chunk, monkeypatch):
        """The kernel's numpy path is indistinguishable from its scalar
        path: same assignments, same error messages, and — because both
        apply the same canonical tie-break and Pareto filter — exactly
        the same per-level node/edge/pruned counts, pruning on or off, at
        a one-row Pareto block and at the production block size."""
        for ch, cs, K, weight in self.CORPUS[chunk::8]:
            for kw in ({}, {"prune": False}):
                scalar = _solve_on(monkeypatch, "scalar", ch, cs, K, weight, **kw)
                for block in (1, PRODUCTION_PRUNE_BLOCK):
                    monkeypatch.setattr(kernels, "_VEC_PRUNE_BLOCK", block)
                    _assert_paths_agree(
                        _solve_on(monkeypatch, "numpy", ch, cs, K, weight, **kw),
                        scalar,
                    )

    @pytest.mark.parametrize("chunk", range(4))
    def test_pruning_preserves_problem3_optimum(self, chunk):
        """Dominance pruning never changes an optimal Problem-3 weight."""
        checked = 0
        for ch, cs, K, weight in self.CORPUS[chunk::4]:
            if weight is None:
                continue
            ref_a, _, ref_err = _solve(run_dp_reference, ch, cs, K, weight)
            pk_a, _, pk_err = _solve(run_dp_vectorized, ch, cs, K, weight)
            assert ref_err == pk_err
            if ref_a is None:
                continue
            assert _total_weight(cs, ref_a, weight) == _total_weight(
                cs, pk_a, weight
            )
            checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# targeted behaviors
# ----------------------------------------------------------------------
def test_empty_connection_set():
    ch = random_channel(3, 12, 3.0, seed=1)
    cs = ConnectionSet(())
    for kernel in (run_dp_reference, run_dp_vectorized):
        routing, stats = kernel(ch, cs)
        assert routing.assignment == ()
        assert stats.nodes_per_level == ()


def test_single_track_channel():
    ch = channel_from_breaks(10, [(5,)])
    cs = ConnectionSet([Connection(1, 4, "a"), Connection(6, 9, "b")])
    for kernel in (run_dp_reference, run_dp_vectorized):
        routing, _ = kernel(ch, cs)
        assert routing.assignment == (0, 0)


def test_node_limit_raises_same_message(monkeypatch):
    ch = random_channel(6, 60, 2.0, seed=7)
    rng = random.Random(7)
    cs = _random_connections(rng, 60, 12)
    for node_limit in (3, 10, 30):
        ref = _solve(run_dp_reference, ch, cs, None, None, node_limit=node_limit)
        assert ref[2] is not None and "node limit" in ref[2]
        for path in ("scalar", "numpy"):
            run = _solve_on(
                monkeypatch, path, ch, cs, None, None,
                prune=False, node_limit=node_limit,
            )
            assert run[2] == ref[2]


def test_partial_mode_returns_stats_instead_of_raising(monkeypatch):
    # (2,8) spans two segments of every track -> infeasible at level 2
    # under K=1.
    ch = channel_from_breaks(10, [(5,), (5,)])
    cs = ConnectionSet([Connection(1, 4, "a"), Connection(2, 8, "b")])
    for path in (None, "scalar", "numpy"):
        if path is not None:
            _force_path(monkeypatch, path)
        for kernel in (run_dp_reference, run_dp_vectorized):
            with pytest.raises(RoutingInfeasibleError):
                kernel(ch, cs, 1)
            routing, stats = kernel(ch, cs, 1, partial=True)
            assert routing is None
            assert len(stats.nodes_per_level) == 1


def test_pruned_counter_consumed(monkeypatch):
    consume_dp_pruned()  # reset
    ch = random_channel(5, 140, 5.0, seed=3)
    rng = random.Random(11)
    cs = _random_connections(rng, 120, 10)
    _, stats, _ = _solve(run_dp_vectorized, ch, cs, None, None)
    if stats is not None and stats.total_pruned:
        assert consume_dp_pruned() == stats.total_pruned
    assert consume_dp_pruned() == 0  # consumed = reset


def test_dominance_prunes_on_real_instances():
    """The pruning must actually fire somewhere in the corpus — otherwise
    the equivalence suite is vacuously testing nothing."""
    total = 0
    for ch, cs, K, weight in TestKernelEquivalence.CORPUS:
        _, stats, _ = _solve(run_dp_vectorized, ch, cs, K, weight)
        if stats is not None:
            total += stats.total_pruned
    assert total > 0


def _wide_instance(conn_seed):
    """A 10-track channel whose level widths run into the hundreds
    (Theorem 5 growth): the regime the numpy path runs in unforced."""
    ch = random_channel(10, 30, 4.0, seed=2)
    return ch, random_feasible_instance(ch, 24, seed=conn_seed, mean_length=2.2)


def test_vectorized_wide_levels_match_packed(monkeypatch):
    """On wide levels the numpy path equals the scalar path exactly —
    the mixed corpus above stays narrow enough that production mostly
    picks the scalar loop."""
    ch, cs = _wide_instance(41)
    for kw in ({}, {"prune": False}):
        scalar = _solve_on(monkeypatch, "scalar", ch, cs, None, None, **kw)
        _assert_paths_agree(
            _solve_on(monkeypatch, "numpy", ch, cs, None, None, **kw), scalar
        )
    # the instance must actually exercise wide levels
    assert scalar[1].max_level_width > 200


def test_vectorized_weighted_wide_levels_match_packed(monkeypatch):
    ch, cs = _wide_instance(42)
    weight = occupied_length_weight(ch)
    _assert_paths_agree(
        _solve_on(monkeypatch, "numpy", ch, cs, None, weight),
        _solve_on(monkeypatch, "scalar", ch, cs, None, weight),
    )


def test_vectorized_falls_back_when_frontier_exceeds_machine_word(monkeypatch):
    """T*b > 64 cannot pack into uint64: every level takes the scalar
    path on Python ints, even where the numpy path would qualify, and
    the result equals the reference, pruning on or off."""
    ch = random_channel(12, 120, 4.0, seed=1)  # b=8 -> 96 bits
    cs = random_feasible_instance(ch, 10, seed=7, mean_length=3.0)
    ref_r, ref_s = run_dp_reference(ch, cs, None)
    _force_path(monkeypatch, "numpy")
    for prune in (True, False):
        v_r, v_s = run_dp_vectorized(ch, cs, None, prune=prune)
        assert v_r.assignment == ref_r.assignment
        assert v_s.kernel == "vectorized"
        if not prune:
            assert v_s.nodes_per_level == ref_s.nodes_per_level
            assert v_s.edges_per_level == ref_s.edges_per_level
    assert ref_s.max_level_width > 1000  # wide enough to qualify


def test_vectorized_pruned_counter_matches_packed(monkeypatch):
    ch, cs = _wide_instance(41)
    consume_dp_pruned()
    _force_path(monkeypatch, "scalar")
    _, sc_s = run_dp_vectorized(ch, cs, None)
    assert consume_dp_pruned() == sc_s.total_pruned
    _force_path(monkeypatch, "numpy")
    _, np_s = run_dp_vectorized(ch, cs, None)
    assert consume_dp_pruned() == np_s.total_pruned == sc_s.total_pruned
    assert sc_s.total_pruned > 0


def test_kernel_counter_and_trace_are_per_thread():
    """A solve on one thread neither feeds another thread's pruned
    counter nor lands in another thread's kernel trace: a server solves
    on its dispatch thread and on job threads in one process."""
    ch, cs = _wide_instance(41)
    consume_dp_pruned()
    tracing, solved = threading.Event(), threading.Event()
    seen = {}

    def other_thread():
        set_kernel_trace(True)
        tracing.set()
        solved.wait(60)
        seen["pruned"] = consume_dp_pruned()
        seen["records"] = consume_kernel_trace()
        set_kernel_trace(False)

    thread = threading.Thread(target=other_thread)
    thread.start()
    try:
        assert tracing.wait(60)
        _, stats = route_dp_with_stats(ch, cs)
    finally:
        solved.set()
        thread.join(60)
    assert not thread.is_alive()
    assert stats.total_pruned > 0
    assert seen == {"pruned": 0, "records": []}
    assert consume_dp_pruned() == stats.total_pruned
    assert consume_kernel_trace() == []  # tracing stayed off here


# ----------------------------------------------------------------------
# one kernel: the retired REPRO_KERNELS switch changes nothing
# ----------------------------------------------------------------------
_ENV_VALUES = (None, "packed", " Packed ", "vectorized", "reference", "turbo")


def _set_env(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(_RETIRED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(_RETIRED_ENV_VAR, value)


def test_active_kernel_default_and_env(monkeypatch):
    for value in _ENV_VALUES:
        _set_env(monkeypatch, value)
        assert active_kernel() == "vectorized"


def test_route_dp_dispatches_on_env(monkeypatch):
    ch = random_channel(4, 40, 4.0, seed=5)
    rng = random.Random(5)
    cs = _random_connections(rng, 40, 6)
    ref_a, _, ref_err = _solve(run_dp_reference, ch, cs, None, None)
    for value in _ENV_VALUES:
        _set_env(monkeypatch, value)
        try:
            routing, stats = route_dp_with_stats(ch, cs)
        except RoutingInfeasibleError as exc:
            assert str(exc) == ref_err
        else:
            assert routing.assignment == ref_a
            assert stats.kernel == "vectorized"


def test_route_dp_same_result_both_kernels_weighted(monkeypatch):
    ch = random_channel(5, 50, 4.0, seed=9)
    rng = random.Random(9)
    cs = _random_connections(rng, 50, 8)
    weight = occupied_length_weight(ch)
    ref_a, _, ref_err = _solve(run_dp_reference, ch, cs, None, weight)
    for value in _ENV_VALUES:
        _set_env(monkeypatch, value)
        try:
            assert route_dp(ch, cs, weight=weight).assignment == ref_a
        except RoutingInfeasibleError as exc:
            assert str(exc) == ref_err
