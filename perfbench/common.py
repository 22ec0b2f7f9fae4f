"""Shared pieces of the benchmark: inputs, expected outputs, processes, stats.

Inputs come from fixed pools so that their offline answers can be recorded
once in ``expected.json``; a run's ``--seed`` chooses which pool entries it
uses and in what order.  ``make_expected.py`` rebuilds the pools and the
expected answers from the offline engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Instance shape of every single-channel pool: ``build_corpus`` with 10
#: tracks.  The loadgen default of 12 tracks has a solve-time tail of
#: several seconds (one instance stalls an open loop for dozens of
#: requests), which no run length here averages out.
SHAPE = {"n_tracks": 10, "n_columns": 24, "n_connections": 8,
         "max_segments": 2}
#: name -> (pool seed, size)
POOLS = {
    "cold": (1101, 1000),
    "hot": (2202, 300),
    "fresh": (3303, 400),
    "batch": (4404, 256),
}
#: Chip pool: 3-row synthetic netlists routed with K=5.  About half
#: converge (most in the first round) and the rest end as best attempts
#: after 2-9 negotiation rounds, at similar cost per job, so job times are
#: unimodal and their percentiles steady.
CHIP = {"nets": 40, "cells_per_row": 20, "tracks": 10, "seg_types": 2,
        "max_segments": 5, "count": 260, "first_seed": 200}


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_src() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# inputs and expected outputs
# ----------------------------------------------------------------------
def build_pool(name: str):
    """The named pool as ``build_corpus`` entries ``(channel, conns, k)``."""
    use_src()
    from repro.serve.loadgen import build_corpus

    seed, size = POOLS[name]
    return build_corpus(size, seed, **SHAPE)


def pool_fingerprint(corpus) -> str:
    """SHA-256 over the wire form of every instance in a pool."""
    use_src()
    from repro.serve.protocol import route_request

    digest = hashlib.sha256()
    for i, (channel, connections, k) in enumerate(corpus):
        digest.update(json.dumps(
            route_request(str(i), channel, connections, max_segments=k),
            sort_keys=True, separators=(",", ":"),
        ).encode())
    return digest.hexdigest()


def chip_specs() -> list:
    """Every ``ChipSpec`` of the chip pool, in a fixed order."""
    use_src()
    from repro.fpga.netlist import random_netlist
    from repro.io.netlist_format import dumps_netlist
    from repro.jobs import ChipSpec

    return [
        ChipSpec(
            netlist_text=dumps_netlist(random_netlist(CHIP["nets"], 3,
                                                      seed=seed)),
            rows=3, cells_per_row=CHIP["cells_per_row"],
            tracks=CHIP["tracks"], seg_types=CHIP["seg_types"],
            max_segments=CHIP["max_segments"], seed=seed,
        )
        for seed in range(CHIP["first_seed"],
                          CHIP["first_seed"] + CHIP["count"])
    ]


def benchmark() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def outcome_of(ok: bool, assignment, error_type) -> list:
    """Compact recorded outcome: the assignment, or ``[None, error_type]``."""
    return list(assignment) if ok else [None, error_type]


def check_pool(expected: dict, name: str, corpus) -> None:
    """Refuse to run on a pool the recorded answers do not describe."""
    if pool_fingerprint(corpus) != expected["pools"][name]["fingerprint"]:
        raise SystemExit(
            f"pool {name!r} differs from the one expected.json was made "
            "from (instance generator changed?); rerun make_expected.py"
        )


def stream_digest(outcomes) -> str:
    """``result_stream_digest``-compatible digest of recorded outcomes."""
    use_src()
    from repro.io.results import digest_records, result_record

    return digest_records(
        result_record(
            i, outcome[0] is not None,
            outcome if outcome[0] is not None else None,
            None if outcome[0] is not None else outcome[1],
        )
        for i, outcome in enumerate(outcomes)
    )


def rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def work_dir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop(proc: subprocess.Popen, grace: float = 20.0) -> None:
    """SIGTERM, wait, SIGKILL if needed; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Server:
    """One ``segroute serve`` process on ephemeral ports.

    ``setup_s`` is the time from ``Popen`` until ``/readyz`` answers 200.
    With ``spans`` or ``fsync_count`` the server runs under ``launch.py``,
    which records spans to the one file and counts (instead of making)
    ``fsync`` calls into the other.
    """

    def __init__(self, extra_args, workdir: str, spans: str = "",
                 fsync_count: str = "") -> None:
        self.port_file = os.path.join(workdir, f"port-{time.time_ns()}.json")
        args = ["serve", "--port", "0", "--http-port", "0",
                "--port-file", self.port_file, *extra_args]
        options = []
        if spans:
            options += ["--spans", spans]
        if fsync_count:
            options += ["--fsync-count", fsync_count]
        if options:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), *options,
                   *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.log = open(os.path.join(workdir, "server.log"), "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.port, self.http_port = self._wait_ready(started)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, started: float, limit: float = 60.0):
        while time.perf_counter() - started < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during start"
                )
            if os.path.exists(self.port_file):
                with open(self.port_file, encoding="utf-8") as handle:
                    ports = json.load(handle)
                url = f"http://127.0.0.1:{ports['http_port']}/readyz"
                try:
                    with urllib.request.urlopen(url, timeout=2) as response:
                        if response.status == 200:
                            return ports["port"], ports["http_port"]
                except (urllib.error.URLError, ConnectionError):
                    pass
            time.sleep(0.002)
        raise RuntimeError("server not ready within 60s")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        stop(self.proc)
        self.log.close()


# ----------------------------------------------------------------------
# statistics and reporting
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0.0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def header() -> dict:
    """Provenance printed with every result."""
    use_src()
    from repro.core.kernels import active_kernel

    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if not sha:
        digest = hashlib.sha256()
        for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
        sha = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": active_kernel(),
    }
