"""The ``batch_deadline`` workload: deadline-bounded ``route_many``.

The program runs in its own process (``batch_child.py``); this side
generates the seeded input order, launches it, and checks every answer
against the offline engine's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import common

CHILD = os.path.join(common.HERE, "batch_child.py")
PASSES = 16   # permutations queued for the child: more than a 20 s run routes


def _launch(input_path: str, output_path: str, seconds: float,
            spans: str = ""):
    """Start the child; returns ``(proc, setup_s)`` once it is ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, input_path, output_path, str(seconds),
         *([spans] if spans else [])],
        cwd=common.ROOT, env=common.child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        common.stop(proc)
        raise RuntimeError(f"batch child failed to start ({line!r})")
    return proc, setup_s


def measure(seed: int, seconds: float, workdir: str, setups: int,
            spans: str = "") -> dict:
    from repro.serve.protocol import route_request

    recorded = common.load_expected()
    expected = recorded["pools"]["batch"]["outcomes"]
    pool = common.build_pool("batch")
    common.check_pool(recorded, "batch", pool)
    # A fresh seeded permutation of the pool per pass, so chunks of
    # consecutive instances differ from pass to pass instead of repeating
    # the same few compositions.
    rng = common.rng(seed, "batch")
    order = []
    for _ in range(PASSES):
        one_pass = list(range(len(pool)))
        rng.shuffle(one_pass)
        order.extend(one_pass)
    input_path = os.path.join(workdir, "batch-input.json")
    output_path = os.path.join(workdir, "batch-output.json")
    with open(input_path, "w", encoding="utf-8") as handle:
        json.dump({
            "requests": [
                route_request(str(i), channel, connections, max_segments=k)
                for i, (channel, connections, k) in enumerate(pool)
            ],
            "order": order,
        }, handle)

    setup_s = []
    for _ in range(setups - 1):
        proc, took = _launch(input_path, output_path, 0)
        setup_s.append(took)
        proc.wait(60)
        proc.stdout.close()
    proc, took = _launch(input_path, output_path, seconds, spans)
    setup_s.append(took)
    try:
        proc.wait(seconds + 120)
    finally:
        common.stop(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"batch child exited with {proc.returncode}")
    with open(output_path, encoding="utf-8") as handle:
        out = json.load(handle)

    answered, want = [], []
    latencies = []
    failed = solves = 0
    busy = 0.0
    for chunk in out["chunks"]:
        latencies.append(chunk["wall_s"] * 1000.0)
        busy += chunk["wall_s"]
        for offset, (ok, assignment, error_type) in enumerate(
            chunk["answers"]
        ):
            index = order[(chunk["position"] + offset) % len(order)]
            answered.append(common.outcome_of(ok, assignment, error_type))
            want.append(expected[index])
            if ok:
                solves += 1
            else:
                failed += 1
    mismatches = sum(a != w for a, w in zip(answered, want))
    replay = [pool[i] for i in order[:32]]
    return {
        "setup_s": setup_s,
        "latencies_ms": latencies,
        "tail_q": 0.90,
        "lags_ms": [],
        "solves": solves,
        "wall_s": busy,
        "attempted": len(answered),
        "failed": failed,
        "mismatches": mismatches,
        "consistent": True,
        "digest_ok": common.stream_digest(answered)
        == common.stream_digest(want),
        "rss_mb": out["rss_mb"],
        "stats": {"counters": out["counters"]},
        "instances": replay,
        "window_start": 0.0,   # no warmup: every span counts
    }
