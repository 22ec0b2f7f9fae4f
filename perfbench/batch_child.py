"""Process under test of ``batch_deadline``.

``python3 perfbench/batch_child.py INPUT OUTPUT SECONDS [SPANS]``

Loads the instances in ``INPUT`` (wire-form route requests and the order
to route them in), prints ``ready``, then for ``SECONDS`` routes them in chunks the way
``segroute batch --jobs N --timeout T`` does: a fresh ``RoutingEngine``
per chunk and one ``route_many`` call with ``jobs = nproc`` and a
generous per-request deadline, so every attempt runs in a forked,
deadline-bounded child and none expires.  Writes per-chunk wall times and
answers to ``OUTPUT``.  With ``SPANS`` the timing wrappers are installed
first and their spans written there at exit.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

CHUNK = 16
TIMEOUT_S = 30.0
COUNTERS = ("retries_total", "worker_crashes", "tasks_quarantined",
            "timeouts", "fallbacks", "cache.hits", "cache.misses",
            "dp_nodes_pruned")


def main() -> int:
    input_path, output_path, seconds = sys.argv[1], sys.argv[2], float(
        sys.argv[3]
    )
    spans = sys.argv[4] if len(sys.argv) > 4 else ""
    if spans:
        sys.path.insert(0, HERE)
        import tracer

        tracer.install()
    from repro.engine import EngineConfig, RoutingEngine
    from repro.serve.protocol import parse_route_request

    with open(input_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    pool = [parse_route_request(m) for m in payload["requests"]]
    requests = [pool[i] for i in payload["order"]]
    jobs = os.cpu_count() or 1
    print("ready", flush=True)
    if seconds <= 0:
        return 0

    chunks = []
    counters = dict.fromkeys(COUNTERS, 0)
    end = time.monotonic() + seconds
    position = 0
    while time.monotonic() < end:
        batch = [requests[(position + i) % len(requests)]
                 for i in range(CHUNK)]
        engine = RoutingEngine(EngineConfig(jobs=jobs, timeout=TIMEOUT_S))
        try:
            started = time.perf_counter()
            results = engine.route_many(
                [(r.channel, r.connections) for r in batch],
                max_segments=[r.max_segments for r in batch],
            )
            wall = time.perf_counter() - started
            snapshot = engine.stats()["counters"]
        finally:
            engine.close()
        for name in COUNTERS:
            counters[name] += snapshot.get(name, 0)
        chunks.append({
            "position": position,
            "wall_s": wall,
            "answers": [
                [r.ok, list(r.routing.assignment) if r.ok else None,
                 r.error_type]
                for r in results
            ],
        })
        position += CHUNK
    with open("/proc/self/status", encoding="ascii") as handle:
        rss_kb = next(
            int(line.split()[1]) for line in handle
            if line.startswith("VmHWM:")
        )
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump({"chunks": chunks, "counters": counters,
                   "rss_mb": rss_kb / 1024.0}, handle)
    if spans:
        tracer.dump(spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
