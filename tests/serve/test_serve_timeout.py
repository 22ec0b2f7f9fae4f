"""``segroute serve --timeout`` under a burst of cold requests.

Deadline-bounded solves must not disturb the server process itself: a
real ``python -m repro serve --timeout 2`` answers a concurrent burst of
never-seen instances and is still ready afterwards.
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
from repro.serve import STATUS_OK, AsyncRoutingClient
from repro.serve.loadgen import build_corpus

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


def test_timeout_server_stays_up_after_cold_burst(tmp_path):
    port_file = str(tmp_path / "server.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--timeout", "2",
         "--port", "0", "--http-port", "0", "--port-file", port_file],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
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
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
