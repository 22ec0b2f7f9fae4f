"""Per-layer metrics of a traced run.

Sources, all outside the program's own tracing:

* spans from the timing wrappers (:mod:`tracer`) in the process under test;
* the server's own counters and histograms, fetched over the ``stats`` op;
* the load generator's view (poll counts, generator lag);
* an in-process replay of the workload's instances through
  ``executor.attempt_route`` with and without a deadline, because the
  wrappers cannot see inside forked deadline children.

Every metric comes with its sample count ``n`` and its ``base``.  A layer
the workload does not exercise reads 0 with ``n`` 0.
"""

from __future__ import annotations

import time
from collections import Counter

import common
from common import median, quantile

#: Unit of every per-layer metric, as declared in ``BENCHMARK.json``.
UNITS = {m["name"]: m["unit"] for m in common.benchmark()["per_layer"]}
REPLAY_SIZE = 24
REPLAY_TIMEOUT_S = 30.0


def replay(instances) -> tuple[list, list]:
    """Time ``attempt_route`` per distinct instance, in process and forked.

    Returns ``(in_process_ms, forked_ms)``, paired by instance.
    """
    from repro.core.errors import ReproError
    from repro.engine.executor import attempt_route

    sample, seen = [], set()
    for instance in instances:
        if id(instance) not in seen:
            seen.add(id(instance))
            sample.append(instance)
        if len(sample) == REPLAY_SIZE:
            break
    in_process, forked = [], []
    for channel, connections, k in sample:
        for timeout, out in ((None, in_process), (REPLAY_TIMEOUT_S, forked)):
            started = time.perf_counter()
            try:
                attempt_route(channel, connections, k, None, "auto", timeout)
            except ReproError:
                pass
            out.append((time.perf_counter() - started) * 1000.0)
    return in_process, forked


def _by_name(spans) -> dict:
    groups: dict = {}
    for span in spans:
        groups.setdefault(span[0], []).append(span)
    return groups


def _ms(span) -> float:
    return (span[2] - span[1]) * 1000.0


def compute(workload: str, traced: dict, untraced: dict, spans: list,
            replay_spans: list, replay_ms: tuple) -> dict:
    """``name -> {"value", "unit", "n", "base"}`` for every metric."""
    out: dict = {}

    def put(name, value, n, base):
        out[name] = {"value": float(value), "unit": UNITS[name], "n": n,
                     "base": base}

    # Only the measured window: a warmup pass before it is excluded.
    groups = _by_name(s for s in spans if s[1] >= traced["window_start"])
    replay_groups = _by_name(replay_spans)
    stats = traced.get("stats") or {}
    before = stats.get("counters_before", {})
    counters = {
        name: value - before.get(name, 0)
        for name, value in stats.get("counters", {}).items()
    }
    histograms = stats.get("histograms", {})
    prefix = "jobs.engine." if workload == "chip_jobs" else ""

    decode = groups.get("wire.decode", [])
    encode = groups.get("wire.encode", [])
    put("wire.decode_us", median([_ms(s) * 1000 for s in decode]),
        len(decode), "per message received")
    put("wire.encode_us", median([_ms(s) * 1000 for s in encode]),
        len(encode), "per message sent")
    wire_bytes = sum((s[6] or {}).get("bytes", 0) for s in decode + encode)
    put("wire.bytes_per_request", wire_bytes / len(decode) if decode else 0,
        len(decode), "bytes in+out per message received")

    admit = groups.get("admission.admit", [])
    rejected = [s for s in admit if s[6]]
    put("admission.admit_us", median([_ms(s) * 1000 for s in admit]),
        len(admit), "per admission decision")
    put("admission.rejected", len(rejected), len(admit),
        "rejections over admission decisions")
    out["admission.rejected"]["by_reason"] = dict(
        Counter(s[6]["rejected"] for s in rejected)
    )

    probes = groups.get("engine.route_cached", [])
    hits = sum(1 for s in probes if (s[6] or {}).get("hit"))
    put("engine.route_cached_us", median([_ms(s) * 1000 for s in probes]),
        len(probes), "per fast-path probe")
    put("engine.fastpath_ratio", hits / len(probes) if probes else 0,
        len(probes), "fast-path answers over route requests probed")

    wait = histograms.get("serve.queue_wait", {})
    size = histograms.get("serve.batch_size", {})
    put("batcher.queue_wait_p50_ms", wait.get("p50", 0.0) * 1000,
        wait.get("count", 0), "server serve.queue_wait histogram")
    put("batcher.queue_wait_p95_ms", wait.get("p95", 0.0) * 1000,
        wait.get("count", 0), "server serve.queue_wait histogram")
    put("batcher.batch_size_mean", size.get("mean", 0.0),
        size.get("count", 0), "requests per dispatched window")
    put("batcher.windows", counters.get("serve.batches", 0),
        counters.get("serve.batches", 0), "dispatched windows")

    solves = groups.get("core.solve", [])
    solve_source = "spans in the process under test"
    if not solves:
        solves = replay_groups.get("core.solve", [])
        solve_source = "in-process replay (solves run in forked children)"
    children: dict = {}
    for span in solves:
        children.setdefault(span[3], []).append(_ms(span))
    windows = groups.get("engine.route_many", [])
    put("engine.route_many_self_ms",
        median([_ms(s) - sum(children.get(s[4], [])) for s in windows]),
        len(windows), "per route_many call, minus in-process solves")
    solve_ms = [_ms(s) for s in solves]
    put("core.solve_p50_ms", median(solve_ms), len(solves), solve_source)
    put("core.solve_p95_ms", quantile(solve_ms, 0.95), len(solves),
        solve_source)
    kernels = groups.get("kernels.dp", []) or replay_groups.get(
        "kernels.dp", []
    )
    put("kernels.dp_calls", len(kernels), len(solves),
        "DP kernel calls, " + solve_source)
    put("kernels.dp_ms", median([_ms(s) for s in kernels]), len(kernels),
        "per DP kernel call")
    put("engine.dp_nodes_pruned", counters.get(prefix + "dp_nodes_pruned", 0),
        1, "engine counter over the run")

    in_process, forked = replay_ms
    put("executor.attempt_ms", median(forked), len(forked),
        "attempt_route with a deadline (forked), per replayed instance")
    put("executor.fork_overhead_ms",
        median([f - i for f, i in zip(forked, in_process)]), len(forked),
        "forked minus in-process attempt, per replayed instance")

    put("supervisor.retries", counters.get(prefix + "retries_total", 0), 1,
        "engine counter over the run")
    put("supervisor.worker_crashes",
        counters.get(prefix + "worker_crashes", 0), 1,
        "engine counter over the run")
    cache_hits = counters.get(prefix + "cache.hits", 0)
    lookups = cache_hits + counters.get(prefix + "cache.misses", 0)
    put("cache.hit_ratio", cache_hits / lookups if lookups else 0, lookups,
        "hits over cache lookups")

    appends = groups.get("cache_store.append", [])
    put("cache_store.appends", len(appends), len(appends),
        "persistent-cache appends")
    put("cache_store.append_ms", median([_ms(s) for s in appends]),
        len(appends), "per persistent-cache append")
    builds = groups.get("fpga.build", [])
    put("fpga.build_ms", median([_ms(s) for s in builds]), len(builds),
        "per job: netlist parse, architecture and placement")
    global_routes = groups.get("fpga.global_route", [])
    put("fpga.global_route_ms", median([_ms(s) for s in global_routes]),
        len(global_routes), "per job")
    rounds = groups.get("jobs.round", [])
    pipelines = groups.get("jobs.pipeline", [])
    put("jobs.round_ms", median([_ms(s) for s in rounds]), len(rounds),
        "per negotiation round (channel solves)")
    put("jobs.rounds_per_job", len(rounds) / len(pipelines) if pipelines
        else 0, len(pipelines), "rounds over jobs")
    journal = groups.get("checkpoint.append", [])
    put("checkpoint.append_ms", median([_ms(s) for s in journal]),
        len(journal), "per journal append (fsync counted, not made)")
    fsyncs = traced.get("fsyncs", 0)
    put("jobs.fsyncs_per_job", fsyncs / len(pipelines) if pipelines else 0,
        fsyncs, "fsync calls of the server over jobs")
    submitted = {
        (s[6] or {}).get("job_id"): s[2] for s in groups.get("jobs.submit", [])
    }
    queue_waits = [
        (s[1] - submitted[s[6]["job_id"]]) * 1000.0 for s in pipelines
        if (s[6] or {}).get("job_id") in submitted
    ]
    put("jobs.queue_wait_ms", median(queue_waits), len(queue_waits),
        "submit returned -> pipeline started, per job")
    polls = traced.get("polls", [])
    put("client.polls_per_job", sum(polls) / len(polls) if polls else 0,
        len(polls), "job.status calls per job")
    lags = traced.get("lags_ms", [])
    put("loadgen.lag_p95_ms", quantile(lags, 0.95), len(lags),
        "send time minus due time, per request")

    client_p50 = median(traced["latencies_ms"])
    if workload.startswith("serve"):
        path = ["wire.decode_us", "admission.admit_us",
                "engine.route_cached_us", "wire.encode_us"]
        blocking = sum(out[m]["value"] for m in path) / 1000.0
        if out["engine.fastpath_ratio"]["value"] < 0.5:
            blocking += sum(out[m]["value"] for m in (
                "batcher.queue_wait_p50_ms", "engine.route_many_self_ms",
                "core.solve_p50_ms",
            ))
        base = "client p50 minus blocking-path self-time p50s"
    elif workload == "batch_deadline":
        blocking = median([_ms(s) for s in windows])
        base = "chunk p50 minus route_many p50"
    else:
        blocking = out["jobs.queue_wait_ms"]["value"] + median(
            [_ms(s) for s in pipelines]
        )
        base = "job p50 minus queue wait p50 and pipeline p50"
    put("trace.unattributed_ms", client_p50 - blocking,
        len(traced["latencies_ms"]), base)
    untraced_p50 = median(untraced["latencies_ms"])
    put("trace.overhead_pct",
        100.0 * (client_p50 - untraced_p50) / untraced_p50
        if untraced_p50 else 0, len(untraced["latencies_ms"]),
        "traced vs untraced latency_p50_ms")
    return out
