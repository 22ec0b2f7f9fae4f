"""The ``chip_jobs`` workload: a closed loop of chip-routing jobs.

One blocking ``RoutingClient`` (the ``segroute chip --connect`` client)
submits a chip, polls it home with ``wait_job`` every 5 ms, and fetches
its records, one chip at a time, against a fresh
``segroute serve --jobs-dir D --cache-dir C``.  A run sends a fixed set
of chips sized to take about ``--seconds`` (see :func:`plan`).

The server runs under ``launch.py --fsync-count``: its journal and cache
writes go through as usual, but ``fsync`` only counts.  A job syncs about
ten times, and the time of a sync is set by a disk that other tenants of
the host share: with real syncs, the median job time of the same code
spread by more than a quarter between runs, on the only workload that
syncs at all.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import common

POLL_INTERVAL_S = 0.005
JOB_LIMIT_S = 10.0   # a job finishing later counts as a miss
CHIP_RATE = 7.5      # jobs/s a run is sized for (about 0.13 s per job)


def plan(seed: int, seconds: float) -> list:
    """``(position, spec)`` for one run: the first ``CHIP_RATE * seconds``
    chips of the pool, so the set depends only on the run length, in an
    order the seed picks."""
    specs = common.chip_specs()
    wanted = math.ceil(CHIP_RATE * seconds)
    if wanted > len(specs):
        raise SystemExit(f"chip_jobs needs {wanted} chips, pool has "
                         f"{len(specs)}")
    order = list(range(wanted))
    common.rng(seed, "chips").shuffle(order)
    return [(position, specs[position]) for position in order]


def round0_instances(spec) -> list:
    """The channel instances of a chip's first round (for the replay)."""
    from repro.fpga.global_route import global_route
    from repro.jobs.pipeline import build_chip_instance

    architecture, netlist, placement = build_chip_instance(spec)
    instances = []
    for demand in global_route(architecture, netlist, placement):
        connections = demand.connection_set()
        if len(connections):
            instances.append((
                architecture.channels[demand.channel_index], connections,
                spec.max_segments,
            ))
    return instances


def measure(seed: int, seconds: float, workdir: str, setups: int,
            spans: str = "") -> dict:
    from repro.io.results import digest_records
    from repro.serve.client import RoutingClient

    expected = common.load_expected()["chips"]["specs"]
    chips = plan(seed, seconds)

    def launch(traced: str = ""):
        state = tempfile.mkdtemp(prefix="state-", dir=workdir)
        return common.Server(
            ["--jobs-dir", os.path.join(state, "jobs"),
             "--cache-dir", os.path.join(state, "cache")],
            workdir, spans=traced,
            fsync_count=os.path.join(state, "fsyncs"),
        ), state

    setup_s = []
    for _ in range(setups - 1):
        server, _ = launch()
        setup_s.append(server.setup_s)
        server.close()
    server, state = launch(spans)
    setup_s.append(server.setup_s)
    latencies, polls, mismatches = [], [], 0
    failed = solves = 0
    try:
        with RoutingClient("127.0.0.1", server.port, timeout=60.0) as client:
            status_call = client.job_status
            count = [0]

            def counted_status(job_id):
                count[0] += 1
                return status_call(job_id)

            client.job_status = counted_status
            start = time.monotonic()
            window_start = start
            for n, (position, spec) in enumerate(chips):
                count[0] = 0
                submitted = time.monotonic()
                job = client.submit_job(spec, job_id=f"bench-{seed}-{n}")
                status = client.wait_job(
                    job["job_id"], poll_interval=POLL_INTERVAL_S,
                    timeout=120.0,
                )
                if status["state"] != "done":
                    failed += 1
                    continue
                page = client.fetch_job_records(job["job_id"])
                took = time.monotonic() - submitted
                latencies.append(took * 1000.0)
                polls.append(count[0])
                if (
                    page["digest"] != expected[position]["digest"]
                    or digest_records(page["records"]) != page["digest"]
                    or status["ok"] != expected[position]["ok"]
                ):
                    mismatches += 1
                if took <= JOB_LIMIT_S:
                    solves += sum(r["n_solved"] for r in status["rounds"])
            wall = time.monotonic() - start
            attempted = len(latencies) + failed
            stats = client.stats()
        rss = server.peak_rss_mb()
    finally:
        server.close()
    with open(os.path.join(state, "fsyncs"), encoding="ascii") as handle:
        fsyncs = int(handle.read())
    replay = [inst for _, spec in chips[:4] for inst in round0_instances(spec)]
    return {
        "setup_s": setup_s,
        "latencies_ms": latencies,
        "tail_q": 0.75,
        "lags_ms": [],
        "solves": solves,
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "consistent": True,
        "digest_ok": mismatches == 0,
        "rss_mb": rss,
        "stats": stats,
        "instances": replay,
        "polls": polls,
        "fsyncs": fsyncs,
        "window_start": window_start,
    }
