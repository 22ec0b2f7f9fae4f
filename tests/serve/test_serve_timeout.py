"""Real ``segroute serve`` processes stay up under their own work.

In-process test servers install no signal handlers, so only a real
``python -m repro serve`` (the CLI path, with its SIGTERM/SIGINT drain
handlers) can show a server draining itself.  Deadline-bounded solves
must not disturb it: ``serve --timeout 2`` answers a concurrent burst of
never-seen instances and is still ready afterwards.  Nor may a chip job:
a server with ``--jobs-dir`` finishes one with the offline digest, is
still ready afterwards, and drains cleanly on SIGTERM.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from repro.serve import STATUS_OK, AsyncRoutingClient, RoutingClient
from repro.serve.loadgen import build_corpus
from tests.jobs.test_manager import QUICK, QUICK_DIGEST

pytestmark = pytest.mark.serve

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _wait_for_port_file(path, process, limit=30.0):
    end = time.monotonic() + limit
    while time.monotonic() < end:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        if process.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(f"server did not start (rc={process.poll()})")


def _readyz(http_port):
    url = f"http://127.0.0.1:{http_port}/readyz"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status


def _serve(port_file, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args,
         "--port", "0", "--http-port", "0", "--port-file", port_file],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _stop(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def test_timeout_server_stays_up_after_cold_burst(tmp_path):
    port_file = str(tmp_path / "server.json")
    process = _serve(port_file, "--timeout", "2")
    try:
        ports = _wait_for_port_file(port_file, process)
        corpus = build_corpus(
            24, 3, n_tracks=10, n_columns=24, n_connections=8,
            max_segments=2,
        )

        async def burst():
            async with AsyncRoutingClient(
                "127.0.0.1", ports["port"], timeout=60
            ) as client:
                return await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )

        served = asyncio.run(burst())
        assert [r.status for r in served] == [STATUS_OK] * 24
        time.sleep(1.0)
        assert process.poll() is None, "server exited after the burst"
        assert _readyz(ports["http_port"]) == 200
    finally:
        _stop(process)


def test_job_server_stays_up_after_its_chip_job(tmp_path):
    port_file = str(tmp_path / "server.json")
    process = _serve(
        port_file, "--jobs-dir", str(tmp_path / "jobs"),
        "--cache-dir", str(tmp_path / "cache"),
    )
    try:
        ports = _wait_for_port_file(port_file, process)
        with RoutingClient("127.0.0.1", ports["port"], timeout=60) as client:
            client.submit_job(QUICK, job_id="own-job")
            status = client.wait_job("own-job", poll_interval=0.05,
                                     timeout=60)
        assert status["state"] == "done", status
        assert status["digest"] == QUICK_DIGEST()
        time.sleep(0.5)
        assert process.poll() is None, "server exited during its job"
        assert _readyz(ports["http_port"]) == 200
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=15) == 0
    finally:
        _stop(process)
