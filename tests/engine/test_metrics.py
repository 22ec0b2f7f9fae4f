"""Engine metrics registry: counters, histograms, snapshots."""

import threading

from repro.engine.metrics import _RESERVOIR_SIZE, Metrics


class TestCounters:
    def test_incr_and_read(self):
        m = Metrics()
        m.incr("requests")
        m.incr("requests", 2)
        assert m.counter("requests") == 3
        assert m.counter("never") == 0

    def test_hit_rate_derived(self):
        m = Metrics()
        m.incr("cache.hits", 9)
        m.incr("cache.misses", 1)
        assert m.snapshot()["derived"]["cache.hit_rate"] == 0.9

    def test_no_hit_rate_without_lookups(self):
        assert "cache.hit_rate" not in Metrics().snapshot()["derived"]


class TestHistograms:
    def test_observe_summary(self):
        m = Metrics()
        for v in (1.0, 2.0, 3.0, 4.0):
            m.observe("latency.dp", v)
        h = m.snapshot()["histograms"]["latency.dp"]
        assert h["count"] == 4
        assert h["total"] == 10.0
        assert h["mean"] == 2.5
        assert h["min"] == 1.0 and h["max"] == 4.0
        assert h["p50"] == 2.5

    def test_window_bounded(self):
        m = Metrics()
        for i in range(10_000):
            m.observe("x", float(i))
        h = m.snapshot()["histograms"]["x"]
        assert h["count"] == 10_000  # totals stay exact
        assert h["max"] == 9999.0

    def test_quantiles_unbiased_over_whole_stream(self):
        """Regression: the old halving window kept only the most recent
        burst, so 3x4096 zeros followed by 4096 ones reported p50 = 1.0
        — the long steady phase was erased.  The whole-stream reservoir
        keeps ~25% ones, so the median stays at the majority value while
        p95 still sees the burst."""
        m = Metrics()
        for _ in range(3 * _RESERVOIR_SIZE):
            m.observe("drift", 0.0)
        for _ in range(_RESERVOIR_SIZE):
            m.observe("drift", 1.0)
        h = m.snapshot()["histograms"]["drift"]
        assert h["count"] == 4 * _RESERVOIR_SIZE
        assert h["mean"] == 0.25
        assert h["p50"] < 0.5  # pre-fix: 1.0 (zeros phase erased)
        assert h["p95"] == 1.0  # the burst is still represented

    def test_reservoir_memory_bounded(self):
        m = Metrics()
        for i in range(10 * _RESERVOIR_SIZE):
            m.observe("x", float(i))
        hist = m._histograms["x"]
        assert len(hist.reservoir) == _RESERVOIR_SIZE
        assert hist.count == 10 * _RESERVOIR_SIZE

    def test_exact_quantiles_below_reservoir_bound(self):
        m = Metrics()
        for i in range(101):
            m.observe("x", float(i))
        h = m.snapshot()["histograms"]["x"]
        assert h["p50"] == 50.0
        assert h["p95"] == 95.0

    def test_snapshots_deterministic_for_same_stream(self):
        def run():
            m = Metrics()
            for i in range(3 * _RESERVOIR_SIZE):
                m.observe("latency.dp", float(i % 997))
            return m.snapshot()

        assert run() == run()

    def test_reset(self):
        m = Metrics()
        m.incr("a")
        m.observe("b", 1.0)
        m.reset()
        snap = m.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}


class TestConcurrency:
    """The registry's invariants hold under concurrent recording."""

    def test_counters_and_histograms_under_threads(self):
        m = Metrics()
        n_threads, per_thread = 8, 500

        def work(tid):
            for i in range(per_thread):
                m.incr("requests")
                m.observe("latency.auto", float(tid * per_thread + i))

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = n_threads * per_thread
        assert m.counter("requests") == expected
        h = m.snapshot()["histograms"]["latency.auto"]
        assert h["count"] == expected
        assert h["min"] == 0.0 and h["max"] == float(expected - 1)

    def test_concurrent_route_many_counts_every_request(self):
        """Counters stay monotone and the latency histogram records one
        observation per completed request when route_many batches run
        from several threads against one engine."""
        from repro.engine import EngineConfig, RoutingEngine
        from repro.generators.random_instances import (
            random_channel,
            random_feasible_instance,
        )

        engine = RoutingEngine(EngineConfig(jobs=1, cache=False))
        batches = []
        for b in range(3):
            batch = []
            for i in range(4):
                ch = random_channel(4, 20, 4.0, seed=10 * b + i)
                batch.append(
                    (ch, random_feasible_instance(ch, 5, seed=50 + 10 * b + i))
                )
            batches.append(batch)

        errors = []

        def run(batch):
            try:
                engine.route_many(batch)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(b,)) for b in batches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(len(b) for b in batches)
        assert engine.metrics.counter("requests") == total
        snap = engine.stats()
        observed = sum(
            h["count"] for name, h in snap["histograms"].items()
            if name.startswith("latency.")
        )
        assert observed == total


class TestRender:
    def test_render_mentions_counters_and_latency(self):
        m = Metrics()
        m.incr("cache.hits")
        m.incr("cache.misses")
        m.observe("latency.auto", 0.01)
        text = m.render()
        assert "cache.hits" in text
        assert "latency.auto" in text
        assert "cache.hit_rate" in text


class TestDpNodesPruned:
    """The DP kernel's pruning counter flows into engine metrics."""

    def _pruning_instance(self):
        import random

        from repro.core.connection import Connection, ConnectionSet
        from repro.core.kernels import run_dp_vectorized
        from repro.generators.random_instances import random_channel

        rng = random.Random(0)
        for trial in range(200):
            ch = random_channel(5, 60, 3.0, seed=trial)
            conns = []
            for j in range(10):
                left = rng.randint(1, 55)
                right = rng.randint(left + 1, min(60, left + 6))
                conns.append(Connection(left, right, f"c{j}"))
            cs = ConnectionSet(conns)
            try:
                _, stats = run_dp_vectorized(ch, cs)
            except Exception:
                continue
            if stats.total_pruned:
                return ch, cs, stats.total_pruned
        raise AssertionError("no pruning instance found")

    def test_engine_route_increments_counter(self):
        from repro.engine import EngineConfig, RoutingEngine

        ch, cs, expected = self._pruning_instance()
        engine = RoutingEngine(EngineConfig(cache=False))
        engine.route(ch, cs, algorithm="dp")
        assert engine.metrics.counter("dp_nodes_pruned") == expected

    def test_outcome_carries_pruned_across_deadline_child(self):
        from repro.engine.executor import RouteTask, run_task

        ch, cs, expected = self._pruning_instance()
        # A timeout bounds the solve with a deadline; the count must still
        # reach the outcome.
        outcome = run_task(RouteTask(
            index=0, channel=ch, connections=cs, algorithm="dp", timeout=30.0,
        ))
        assert outcome.ok
        assert outcome.dp_nodes_pruned == expected
