"""Micro-batcher: window formation, partitioning, shedding, drain."""

import asyncio
import time

import pytest

from repro.core.errors import AdmissionRejected, ServeError
from repro.engine import EngineConfig, RoutingEngine
from repro.engine.metrics import Metrics
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.loadgen import build_corpus
from repro.serve.protocol import STATUS_SHED, RouteRequest
from tests.serve.gate import RouteGate


def _pending(entry, loop, **kwargs):
    channel, conns, k = entry
    request = RouteRequest(
        request_id=kwargs.pop("request_id", "r"),
        channel=channel, connections=conns, max_segments=k,
        **{k2: v for k2, v in kwargs.items()
           if k2 in ("weight", "algorithm")},
    )
    return PendingRequest(
        request=request, future=loop.create_future(),
        deadline_at=kwargs.get("deadline_at"),
    )


def _run(coro):
    return asyncio.run(coro)


def test_concurrent_submissions_share_one_batch():
    corpus = build_corpus(6, seed=11)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=11))
        metrics = Metrics()
        batcher = MicroBatcher(engine, metrics=metrics)
        batcher.start()
        loop = asyncio.get_running_loop()
        pendings = [_pending(e, loop) for e in corpus]
        results = await asyncio.gather(*(
            batcher.submit(p) for p in pendings
        ))
        await batcher.close()
        snap = metrics.snapshot()
        return results, snap

    results, snap = _run(main())
    assert all(r.ok for r in results)
    # All six queue before the dispatcher first runs: one window of six.
    assert snap["counters"]["serve.batches"] == 1
    assert snap["histograms"]["serve.batch_size"]["max"] == 6


def test_windows_form_behind_a_running_window():
    corpus = build_corpus(21, seed=12)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=12))
        gate = RouteGate(engine)
        batcher = MicroBatcher(engine)
        batcher.start()
        loop = asyncio.get_running_loop()
        first = asyncio.ensure_future(
            batcher.submit(_pending(corpus[0], loop))
        )
        # A lone request dispatches at once; it holds the dispatch thread.
        assert await loop.run_in_executor(None, gate.entered.wait, 30)
        rest = [
            asyncio.ensure_future(batcher.submit(_pending(e, loop)))
            for e in corpus[1:]
        ]
        await asyncio.sleep(0)  # let the other twenty queue
        queued = batcher._queue.qsize()
        gate.open()
        results = await asyncio.gather(first, *rest)
        await batcher.close()
        return queued, results, gate.sizes

    queued, results, sizes = _run(main())
    assert queued == 20
    assert all(r.ok for r in results)
    # What queued behind the running window, at most 16 per window.
    assert sizes == [1, 16, 4]


def test_a_crashing_solve_fails_only_its_request(deep_exact_instance):
    corpus = build_corpus(3, seed=11)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=11))
        metrics = Metrics()
        batcher = MicroBatcher(engine, metrics=metrics)
        batcher.start()
        loop = asyncio.get_running_loop()
        pendings = [
            _pending(entry, loop, algorithm="exact")
            for entry in [*corpus, (*deep_exact_instance, None)]
        ]
        results = await asyncio.gather(*(
            batcher.submit(p) for p in pendings
        ))
        await batcher.close()
        return results, metrics.snapshot()

    results, snap = _run(main())
    assert snap["counters"]["serve.batches"] == 1  # one window of four
    assert all(r.ok for r in results[:3])
    assert results[3].error_type == "ReproError"
    assert results[3].error.startswith("RecursionError: ")


def test_expired_deadline_is_shed_not_routed():
    corpus = build_corpus(2, seed=13)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=13))
        batcher = MicroBatcher(engine)
        batcher.start()
        loop = asyncio.get_running_loop()
        dead = _pending(corpus[0], loop)
        dead.deadline_at = time.monotonic() - 1.0  # already expired
        live = _pending(corpus[1], loop)
        shed_error = None
        try:
            await batcher.submit(dead)
        except AdmissionRejected as exc:
            shed_error = exc
        result = await batcher.submit(live)
        await batcher.close()
        return shed_error, result, engine.stats()

    shed_error, result, stats = _run(main())
    assert shed_error is not None and shed_error.status == STATUS_SHED
    assert result.ok
    # Only the live request reached the engine.
    assert stats["counters"]["requests"] == 1


def test_mixed_parameters_partition_into_groups():
    corpus = build_corpus(4, seed=14)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=14))
        batcher = MicroBatcher(engine)
        batcher.start()
        loop = asyncio.get_running_loop()
        pendings = [
            _pending(corpus[0], loop),
            _pending(corpus[1], loop, weight="length"),
            _pending(corpus[2], loop, algorithm="greedy1"),
            _pending(corpus[3], loop, weight="length"),
        ]
        results = await asyncio.gather(*(
            batcher.submit(p) for p in pendings
        ))
        await batcher.close()
        return results

    results = _run(main())
    assert all(r.ok for r in results)
    assert results[2].algorithm == "greedy1"


def test_close_flushes_queued_work():
    corpus = build_corpus(4, seed=15)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=15))
        gate = RouteGate(engine)
        batcher = MicroBatcher(engine)
        batcher.start()
        loop = asyncio.get_running_loop()
        submits = [asyncio.ensure_future(
            batcher.submit(_pending(corpus[0], loop))
        )]
        assert await loop.run_in_executor(None, gate.entered.wait, 30)
        submits += [
            asyncio.ensure_future(batcher.submit(_pending(e, loop)))
            for e in corpus[1:]
        ]
        await asyncio.sleep(0)  # three requests queue behind the first
        closing = asyncio.ensure_future(batcher.close())  # must flush
        await asyncio.sleep(0)
        gate.open()
        await closing
        return await asyncio.gather(*submits), gate.sizes

    results, sizes = _run(main())
    assert all(r.ok for r in results)
    assert sizes == [1, 3]


def test_submit_after_close_raises():
    corpus = build_corpus(1, seed=16)

    async def main():
        engine = RoutingEngine(EngineConfig(seed=16))
        batcher = MicroBatcher(engine)
        batcher.start()
        await batcher.close()
        with pytest.raises(ServeError):
            await batcher.submit(
                _pending(corpus[0], asyncio.get_running_loop())
            )

    _run(main())


def test_service_observer_fed_per_request_times():
    corpus = build_corpus(2, seed=17)
    observed = []

    async def main():
        engine = RoutingEngine(EngineConfig(seed=17))
        batcher = MicroBatcher(engine, service_observer=observed.append)
        batcher.start()
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            batcher.submit(_pending(e, loop)) for e in corpus
        ))
        await batcher.close()

    _run(main())
    assert observed and all(t >= 0 for t in observed)
