"""RoutingEngine: batch equivalence, caching, deadlines, degradation,
portfolio racing, and determinism across worker counts."""

import multiprocessing
import time

import pytest

from repro.core.api import route
from repro.core.channel import channel_from_breaks, unsegmented_channel
from repro.core.connection import ConnectionSet
from repro.core.errors import EngineTimeout, RoutingInfeasibleError
from repro.core.npc import build_two_segment_instance, normalize_nmts
from repro.engine import EngineConfig, RoutingEngine, select_candidates
from repro.engine.executor import attempt_route
from repro.generators.paper_examples import (
    example1_nmts,
    fig3_channel,
    fig3_connections,
    fig8_channel,
    fig8_connections,
)
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.substrate.deadline import check

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def paper_corpus():
    """Feasible (channel, connections) pairs from the paper's examples
    plus small random instances."""
    instances = [
        (fig3_channel(), fig3_connections()),
        (fig8_channel(), fig8_connections()),
    ]
    for seed in range(6):
        channel = random_channel(6, 30, 5.0, seed=seed)
        conns = random_feasible_instance(channel, 8, seed=seed + 50)
        instances.append((channel, conns))
    return instances


def adversarial_instance():
    """The Theorem-2 reduction of the paper's Example-1 NMTS problem:
    exact routing is exponential by construction."""
    norm, _, _ = normalize_nmts(example1_nmts())
    built = build_two_segment_instance(norm)
    return built.channel, built.connections


class TestRouteMany:
    def test_matches_sequential_core_route(self):
        engine = RoutingEngine()
        instances = paper_corpus()
        results = engine.route_many(instances, jobs=1)
        assert all(r.ok for r in results)
        for (channel, conns), r in zip(instances, results):
            expected = route(channel, conns)
            assert r.routing.assignment == expected.assignment

    def test_parallel_equals_sequential(self):
        instances = paper_corpus()
        sequential = RoutingEngine().route_many(instances, jobs=1)
        parallel = RoutingEngine().route_many(instances, jobs=2)
        assert all(r.ok for r in parallel)
        for a, b in zip(sequential, parallel):
            assert a.routing.assignment == b.routing.assignment

    def test_results_in_input_order(self):
        engine = RoutingEngine()
        results = engine.route_many(paper_corpus(), jobs=2)
        assert [r.index for r in results] == list(range(len(results)))

    def test_all_results_validate(self):
        engine = RoutingEngine()
        for r in engine.route_many(paper_corpus(), jobs=2):
            assert r.routing.is_valid()

    def test_per_instance_max_segments(self):
        engine = RoutingEngine()
        instances = [(fig3_channel(), fig3_connections())] * 2
        results = engine.route_many(instances, max_segments=[1, 2])
        assert all(r.ok for r in results)
        assert results[0].routing.max_segments_used() == 1

    def test_max_segments_length_mismatch(self):
        engine = RoutingEngine()
        with pytest.raises(ValueError):
            engine.route_many(
                [(fig3_channel(), fig3_connections())], max_segments=[1, 2]
            )

    def test_infeasible_instance_does_not_sink_batch(self):
        # An unsegmented single track cannot carry two overlapping spans.
        bad = (
            unsegmented_channel(1, 6),
            ConnectionSet.from_spans([(1, 3), (2, 5)]),
        )
        engine = RoutingEngine()
        results = engine.route_many([bad, (fig3_channel(), fig3_connections())])
        assert not results[0].ok
        assert results[0].error_type == "RoutingInfeasibleError"
        assert results[1].ok

    def test_weighted_batch(self):
        engine = RoutingEngine()
        results = engine.route_many(
            [(fig3_channel(), fig3_connections())],
            max_segments=1, weight="length",
        )
        assert results[0].ok
        assert results[0].routing.is_valid(1)

    def test_callable_weight_rejected(self):
        engine = RoutingEngine()
        with pytest.raises(ValueError, match="weight"):
            engine.route_many(
                [(fig3_channel(), fig3_connections())], weight="bogus"
            )


class TestCacheBehaviour:
    def test_repeated_corpus_hits(self):
        engine = RoutingEngine()
        instances = paper_corpus()
        first = engine.route_many(instances, jobs=1)
        second = engine.route_many(instances, jobs=1)
        assert all(r.cache_hit for r in second)
        assert all(
            a.routing.assignment == b.routing.assignment
            for a, b in zip(first, second)
        )
        stats = engine.stats()
        assert stats["derived"]["cache.hit_rate"] >= 0.5
        assert stats["counters"]["cache.hits"] == len(instances)

    def test_repeat_hit_rate_exceeds_90_percent(self):
        # The acceptance shape: a corpus routed twice must show >= 90%
        # hits on the second pass (here: 100%).
        engine = RoutingEngine()
        instances = paper_corpus()
        engine.route_many(instances, jobs=1)
        engine.reset_stats()
        second = engine.route_many(instances, jobs=1)
        assert all(r.cache_hit for r in second)
        assert engine.stats()["derived"]["cache.hit_rate"] >= 0.9

    def test_isomorphic_instance_hits(self):
        a = channel_from_breaks(9, [(2, 6), (3, 6), (5,)])
        b = channel_from_breaks(9, [(5,), (2, 6), (3, 6)])  # permuted tracks
        conns_a = fig3_connections()
        conns_b = ConnectionSet.from_spans(
            [(c.left, c.right) for c in conns_a], prefix="renamed"
        )
        engine = RoutingEngine()
        engine.route(a, conns_a, max_segments=1)
        routing = engine.route(b, conns_b, max_segments=1)
        assert engine.stats()["counters"]["cache.hits"] == 1
        routing.validate(1)

    def test_intra_batch_duplicates_served_once(self):
        engine = RoutingEngine()
        instances = [(fig3_channel(), fig3_connections())] * 5
        results = engine.route_many(instances, jobs=1)
        assert all(r.ok for r in results)
        assert sum(1 for r in results if r.cache_hit) == 4
        assert engine.stats()["counters"]["cache.hits"] == 4

    def test_cache_disabled(self):
        engine = RoutingEngine(EngineConfig(cache=False))
        instances = [(fig3_channel(), fig3_connections())]
        engine.route_many(instances)
        second = engine.route_many(instances)
        assert not second[0].cache_hit


class TestDeterminism:
    def test_jobs_do_not_change_results(self):
        instances = paper_corpus()
        baseline = None
        for jobs in (1, 2, 4):
            engine = RoutingEngine(EngineConfig(seed=42))
            assignments = [
                r.routing.assignment
                for r in engine.route_many(instances, jobs=jobs)
            ]
            if baseline is None:
                baseline = assignments
            else:
                assert assignments == baseline


class TestDeadlines:
    @pytest.mark.parametrize("algorithm", ["exact", "dp", "dp_types"])
    def test_attempt_stops_soon_after_its_budget(self, algorithm):
        channel, conns = adversarial_instance()
        start = time.monotonic()
        with pytest.raises(EngineTimeout):
            attempt_route(channel, conns, 2, None, algorithm, 0.2)
        assert time.monotonic() - start < 0.45

    def test_adversarial_instance_never_hangs(self):
        channel, conns = adversarial_instance()
        engine = RoutingEngine()
        start = time.monotonic()
        try:
            routing = engine.route(
                channel, conns, max_segments=2, algorithm="exact",
                timeout=1.0,
            )
            routing.validate(2)  # degraded but valid
        except EngineTimeout:
            pass  # equally acceptable: typed timeout, no hang
        assert time.monotonic() - start < 20.0

    def test_timeout_counted_in_stats(self):
        channel, conns = adversarial_instance()
        engine = RoutingEngine()
        try:
            engine.route(
                channel, conns, max_segments=2, algorithm="exact",
                timeout=0.3,
            )
        except EngineTimeout:
            pass
        assert engine.stats()["counters"]["timeouts"] >= 1

    def test_generous_deadline_is_invisible(self):
        engine = RoutingEngine()
        routing = engine.route(
            fig3_channel(), fig3_connections(), max_segments=1, timeout=30.0
        )
        routing.validate(1)
        assert engine.stats()["counters"].get("timeouts", 0) == 0

    def test_degrades_to_ladder_on_primary_timeout(self, monkeypatch):
        # Make the exact solver spin until its budget runs out (a slow
        # solver that honours its deadline checks), so "exact" times out
        # and the engine must fall back to the ladder and still return a
        # valid routing.
        def slow(*args, **kwargs):
            while True:
                check()
                time.sleep(0.001)

        monkeypatch.setattr("repro.core.api.route_exact", slow)
        engine = RoutingEngine(EngineConfig(ladder=("greedy1",)))
        routing = engine.route(
            fig3_channel(), fig3_connections(), max_segments=1,
            algorithm="exact", timeout=2.0,
        )
        routing.validate(1)
        counters = engine.stats()["counters"]
        assert counters["timeouts"] == 1
        assert counters["fallbacks"] == 1

    def test_solver_crash_fails_only_its_request(self, monkeypatch):
        # A timed attempt turns any exception (deep backtracking can hit
        # RecursionError) into that request's typed error; on the
        # sequential path it must not escape route_many and fail the
        # rest of the batch.
        import repro.core.api as api

        poison = fig8_connections()
        real_exact = api.route_exact

        def exact(channel, connections, *args, **kwargs):
            if connections == poison:
                raise RecursionError("maximum recursion depth exceeded")
            return real_exact(channel, connections, *args, **kwargs)

        monkeypatch.setattr(api, "route_exact", exact)
        instances = paper_corpus()
        results = RoutingEngine().route_many(
            instances, algorithm="exact", timeout=5.0, jobs=1,
        )
        poisoned = [i for i, (_, c) in enumerate(instances) if c == poison]
        assert poisoned == [1]
        assert not results[1].ok
        assert results[1].error_type == "ReproError"
        assert results[1].error.startswith("RecursionError: ")
        assert all(r.ok for i, r in enumerate(results) if i != 1)

    def test_batch_timeout_reports_not_raises(self):
        channel, conns = adversarial_instance()
        engine = RoutingEngine()
        results = engine.route_many(
            [(channel, conns), (fig3_channel(), fig3_connections())],
            max_segments=2, algorithm="exact", timeout=0.5, jobs=1,
        )
        assert results[1].ok
        first = results[0]
        assert first.ok or first.error_type == "EngineTimeout"
        assert first.timed_out or first.ok


class TestPortfolio:
    def test_candidates_follow_shape(self):
        assert select_candidates(
            fig3_channel(), fig3_connections(), 1, None
        ) == ("greedy1", "matching")
        identical = channel_from_breaks(8, [(4,), (4,)])
        conns = ConnectionSet.from_spans([(1, 3)])
        assert select_candidates(identical, conns, None, None)[0] == "left_edge"
        assert 2 <= len(select_candidates(
            fig3_channel(), fig3_connections(), None, "length"
        )) <= 3

    def test_race_returns_valid_routing(self):
        engine = RoutingEngine()
        routing = engine.route(
            fig3_channel(), fig3_connections(), max_segments=1,
            portfolio=True,
        )
        routing.validate(1)
        assert engine.stats()["counters"]["races"] == 1

    def test_race_weighted_picks_minimum(self):
        from repro.core.routing import occupied_length_weight

        engine = RoutingEngine()
        routing = engine.route(
            fig3_channel(), fig3_connections(), max_segments=1,
            weight="length", portfolio=True,
        )
        # K=1, length weight: must match the matching algorithm's optimum.
        w = occupied_length_weight(fig3_channel())
        expected = route(
            fig3_channel(), fig3_connections(), max_segments=1,
            weight=w, algorithm="matching",
        )
        assert routing.total_weight(w) == expected.total_weight(w)

    def test_race_infeasible_raises(self):
        engine = RoutingEngine()
        with pytest.raises(RoutingInfeasibleError):
            engine.route(
                unsegmented_channel(1, 6),
                ConnectionSet.from_spans([(1, 3), (2, 5)]),
                portfolio=True,
            )

    def test_race_winners_are_not_cached(self, tmp_path):
        """A race winner depends on timing, and the cache key has no
        portfolio part: later non-race requests must get the plain
        engine answer, on the racing engine and on any engine sharing
        its cache_dir."""
        from repro.serve.loadgen import build_corpus

        corpus = build_corpus(
            40, 3, n_tracks=10, n_columns=24, n_connections=8,
            max_segments=2,
        )
        instances = [(channel, conns) for channel, conns, _ in corpus]
        expected = [
            route(channel, conns, max_segments=2).assignment
            for channel, conns in instances
        ]
        cache_dir = str(tmp_path / "cache")
        racer = RoutingEngine(EngineConfig(cache_dir=cache_dir))
        for channel, conns in instances:
            racer.route(channel, conns, max_segments=2, portfolio=True)
        fresh = RoutingEngine(EngineConfig(cache_dir=cache_dir))
        shared = fresh.route_many(instances, max_segments=2)
        fresh.close()
        same = racer.route_many(instances, max_segments=2)
        racer.close()
        assert [r.routing.assignment for r in shared] == expected
        assert [r.routing.assignment for r in same] == expected

    @pytest.mark.skipif(not _HAS_FORK, reason="slow-candidate fake needs fork")
    def test_race_cancels_losers(self, monkeypatch):
        def hang(*args, **kwargs):
            time.sleep(60)

        monkeypatch.setattr("repro.core.api.route_exact_optimal", hang)
        engine = RoutingEngine()
        start = time.monotonic()
        # Weighted race: waits out the deadline for the hung candidate,
        # then returns the best finished routing and cancels the rest.
        routing = engine.route(
            fig3_channel(), fig3_connections(), max_segments=1,
            weight="length", portfolio=True, timeout=2.0,
        )
        assert time.monotonic() - start < 8.0
        routing.validate(1)
        assert engine.stats()["counters"]["cancelled"] >= 1


class TestSingleRoute:
    def test_route_raises_typed_errors(self):
        engine = RoutingEngine()
        with pytest.raises(RoutingInfeasibleError):
            engine.route(
                unsegmented_channel(1, 6),
                ConnectionSet.from_spans([(1, 3), (2, 5)]),
            )

    def test_unknown_algorithm_rejected(self):
        engine = RoutingEngine()
        with pytest.raises(ValueError):
            engine.route(fig3_channel(), fig3_connections(), algorithm="nope")

    def test_module_level_convenience(self):
        from repro.engine import reset_stats, route_many, stats

        reset_stats()
        results = route_many([(fig3_channel(), fig3_connections())])
        assert results[0].ok
        assert stats()["counters"]["requests"] >= 1

    def test_core_api_reexport(self):
        from repro.core.api import engine_stats, route_many

        assert callable(route_many) and callable(engine_stats)
