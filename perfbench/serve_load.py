"""The two serving workloads: ``serve_cold`` and ``serve_hot_mix``.

Both drive a fresh ``segroute serve`` (default config: one job, no cache
directory, no ``--timeout``) with an open loop: request ``i`` is due at
``start + i / rate`` whatever the server is doing, and its latency runs
from that due time to its response, so a stall also charges the requests
it delayed.  How late the generator itself sent each request is its lag.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

import common

COLD_RATE = 25.0         # requests/s; cold capacity is ~110 rps (1 job)
HOT_RATE = 300.0         # requests/s over two connections
HOT_FRESH_SHARE = 0.05   # share of hot-mix requests never seen before
HOT_ZIPF_S = 1.0         # skew of the draws from the hot set


def plan_cold(seed: int, seconds: float) -> list:
    """Distinct cold-pool instances, one per request, in seeded order.

    A run of a given length always sends the same instances (the first
    ``rate * seconds`` of the pool); the seed orders them.  Drawing a
    different subset per seed moved the latency percentiles by more than
    the bounds, because solve times are heavy-tailed.
    """
    n = int(COLD_RATE * seconds)
    size = common.POOLS["cold"][1]
    if n > size:
        raise SystemExit(f"serve_cold needs {n} instances, pool has {size}")
    order = list(range(n))
    common.rng(seed, "cold").shuffle(order)
    return [("cold", i) for i in order]


def plan_hot(seed: int, seconds: float) -> list:
    """Zipf draws from the hot set plus an exact share of fresh ones.

    The seed ranks the hot set, draws from it, and places and orders the
    fresh instances; which fresh instances are sent depends only on the
    run length (as in :func:`plan_cold`).
    """
    n = int(HOT_RATE * seconds)
    n_fresh = round(n * HOT_FRESH_SHARE)
    if n_fresh > common.POOLS["fresh"][1]:
        raise SystemExit("serve_hot_mix: fresh pool too small")
    rng = common.rng(seed, "hot")
    hot = list(range(common.POOLS["hot"][1]))
    rng.shuffle(hot)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(len(hot))]
    plan = [("hot", i) for i in rng.choices(hot, weights, k=n)]
    fresh = list(range(n_fresh))
    rng.shuffle(fresh)
    for slot, i in zip(sorted(rng.sample(range(n), n_fresh)), fresh):
        plan[slot] = ("fresh", i)
    return plan


async def _route(client, instance):
    from repro.core.errors import ProtocolError, ServeError

    channel, connections, k = instance
    try:
        result = await client.route(channel, connections, max_segments=k)
    except ProtocolError:
        return "protocol-error", None, None
    except ServeError:
        return "transport-error", None, None
    return result.status, result.assignment, result.error_type


async def _drive(port: int, plan, pools, rate: float, wires, warmup):
    from repro.serve.client import AsyncRoutingClient

    async with contextlib.AsyncExitStack() as stack:
        clients = [
            await stack.enter_async_context(AsyncRoutingClient(
                "127.0.0.1", port, timeout=60.0, wire=wire,
            ))
            for wire in wires
        ]
        warm = []
        for i in range(0, len(warmup), 8):
            chunk = warmup[i:i + 8]
            answers = await asyncio.gather(*(
                _route(clients[0], pools[p][j]) for p, j in chunk
            ))
            warm.extend(zip(chunk, answers))

        before = await clients[0].stats()
        records = [None] * len(plan)

        async def one(slot: int, due: float) -> None:
            sent = time.monotonic()
            pool, index = plan[slot]
            answer = await _route(
                clients[slot % len(clients)], pools[pool][index]
            )
            records[slot] = (answer, time.monotonic() - due, sent - due)

        loop = asyncio.get_running_loop()
        tasks = []
        start = time.monotonic() + 0.02
        for slot in range(len(plan)):
            due = start + slot / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(one(slot, due)))
        await asyncio.gather(*tasks)
        wall = time.monotonic() - start
        stats = await clients[0].stats()
        stats["counters_before"] = before["counters"]
        negotiated = [c.negotiated_wire for c in clients]
    return warm, records, start, wall, stats, negotiated


def measure(workload: str, seed: int, seconds: float, workdir: str,
            setups: int, spans: str = "") -> dict:
    """One phase: ``setups`` server launches, the last one driven."""
    from repro.serve.protocol import REJECTION_STATUSES, STATUS_OK

    expected = common.load_expected()
    cold = workload == "serve_cold"
    plan = plan_cold(seed, seconds) if cold else plan_hot(seed, seconds)
    names = ["cold"] if cold else ["hot", "fresh"]
    pools = {}
    for name in names:
        pools[name] = common.build_pool(name)
        common.check_pool(expected, name, pools[name])
    warmup = [] if cold else [("hot", i) for i in range(len(pools["hot"]))]
    rate = COLD_RATE if cold else HOT_RATE
    wires = ["v2"] if cold else ["v2", "v1"]

    setup_s = []
    for _ in range(setups - 1):
        server = common.Server([], workdir)
        setup_s.append(server.setup_s)
        server.close()
    server = common.Server([], workdir, spans=spans)
    setup_s.append(server.setup_s)
    try:
        warm, records, start, wall, stats, negotiated = asyncio.run(
            _drive(server.port, plan, pools, rate, wires, warmup)
        )
        rss = server.peak_rss_mb()
    finally:
        server.close()
    if negotiated != wires:
        raise SystemExit(f"negotiated framings {negotiated}, wanted {wires}")

    # Correctness: every answered request equals the offline answer for
    # its instance, and (hot mix) every repeat of an instance agrees.
    mismatches = 0
    seen: dict = {}
    consistent = True
    for (pool, index), (status, assignment, error_type) in warm:
        if status in (STATUS_OK, "error") and common.outcome_of(
            status == STATUS_OK, assignment, error_type
        ) != expected["pools"][pool]["outcomes"][index]:
            mismatches += 1
    latencies, lags = [], []
    failed = within = 0
    answered, want = [], []
    for (pool, index), ((status, assignment, error_type), latency, lag) in zip(
        plan, records
    ):
        lags.append(lag * 1000.0)
        if status in REJECTION_STATUSES or status not in (STATUS_OK, "error"):
            failed += 1
            continue
        latencies.append(latency * 1000.0)
        outcome = common.outcome_of(status == STATUS_OK, assignment, error_type)
        answered.append(outcome)
        want.append(expected["pools"][pool]["outcomes"][index])
        if outcome != want[-1]:
            mismatches += 1
        if seen.setdefault((pool, index), outcome) != outcome:
            consistent = False
        if status != STATUS_OK:
            failed += 1
        elif latency * 1000.0 <= LATENCY_LIMIT_MS[workload]:
            within += 1
    digest_ok = common.stream_digest(answered) == common.stream_digest(want)
    return {
        "setup_s": setup_s,
        "latencies_ms": latencies,
        "tail_q": 0.95,
        "lags_ms": lags,
        "solves": within,
        "wall_s": wall,
        "attempted": len(plan),
        "failed": failed,
        "mismatches": mismatches,
        "consistent": consistent,
        "digest_ok": digest_ok,
        "rss_mb": rss,
        "stats": stats,
        "instances": [pools[p][i] for p, i in plan],
        "window_start": start,
    }


#: Latency limit per request for goodput (``solves_per_s``): a request
#: answered later than this counts as a miss, as does any non-ok answer.
LATENCY_LIMIT_MS = {"serve_cold": 500.0, "serve_hot_mix": 100.0}
