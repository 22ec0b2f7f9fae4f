"""Replica supervision: N routing-server processes under one parent.

A :class:`ReplicaSet` launches ``n_replicas`` full
:class:`~repro.serve.server.RoutingServer` processes (``python -m repro
serve --port 0 --port-file ...``), discovers their ephemeral ports
through the port file each server writes after binding, and supervises
them:

* **crash detection** — the supervisor polls each child's exit status
  every heartbeat tick; a dead process is restarted immediately;
* **heartbeat health checks** — each tick also round-trips a protocol
  ``ping``; a replica that stops answering (wedged event loop, or a
  ``SIGSTOP`` injected by the fault plan) is declared hung after
  ``heartbeat_misses`` consecutive misses, SIGKILLed, and restarted;
* **restart with backoff** — restarts are delayed by the engine's own
  deterministic :func:`~repro.engine.resilience.retry.backoff_delay`
  under the injected ``restart_policy``, so a crash-looping replica
  backs off instead of spinning;
* **flap quarantine** — a replica that exhausts
  ``restart_policy.max_attempts`` restarts inside ``flap_window_s`` is
  quarantined: no further restarts, and the router routes around it.
  A replica that stays up longer than the window earns its restart
  budget back.

Replica *indices* are stable across restarts even though ports are not:
the consistent-hash ring in :mod:`repro.serve.router` hashes onto
indices, so cache affinity survives a restart — the replacement process
warms the same key range its predecessor owned.

Parent-side fault injection (chaos testing):
:meth:`ReplicaSet.note_request` counts routed requests, and when the
config's :class:`~repro.engine.resilience.faults.FaultPlan` carries
``kill_replica_after=N`` / ``stop_replica_after=N`` the seeded victim
(:meth:`~repro.engine.resilience.faults.FaultPlan.replica_victim`) is
SIGKILLed (crash mid-batch) or SIGSTOPped (hang until the heartbeat
watchdog kills it) after the Nth request — each fault fires exactly
once per run.

:class:`StaticReplicaSet` is the in-process variant of the same
interface: it supervises nothing and simply names externally-managed
endpoints (e.g. :class:`~repro.serve.server.RoutingServer` instances
running in threads), which is how the router is unit-tested without
subprocess spawn costs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import ServeError
from repro.engine.metrics import Metrics
from repro.engine.resilience.retry import RetryPolicy, backoff_delay
from repro.serve.protocol import PROTOCOL_VERSION, decode, encode
from repro.serve.server import ServeConfig

__all__ = [
    "ReplicaStatus",
    "ReplicaSet",
    "StaticReplicaSet",
    "REPLICA_STARTING",
    "REPLICA_UP",
    "REPLICA_RESTARTING",
    "REPLICA_QUARANTINED",
    "REPLICA_STOPPED",
]

REPLICA_STARTING = "starting"
REPLICA_UP = "up"
REPLICA_RESTARTING = "restarting"
REPLICA_QUARANTINED = "quarantined"
REPLICA_STOPPED = "stopped"

#: Default restart policy: 5 restarts inside the flap window, 0.2 s
#: base backoff doubling to 2 s.
_RESTART_POLICY = RetryPolicy(
    max_attempts=5, base_delay=0.2, multiplier=2.0, max_delay=2.0
)


@dataclass(frozen=True)
class ReplicaStatus:
    """Point-in-time snapshot of one supervised replica."""

    index: int
    state: str
    port: Optional[int]
    http_port: Optional[int]
    pid: Optional[int]
    restarts: int


@dataclass
class _Replica:
    """Mutable supervision record for one replica slot."""

    index: int
    state: str = REPLICA_STARTING
    process: Optional[subprocess.Popen] = None
    port: Optional[int] = None
    http_port: Optional[int] = None
    restarts: int = 0            # restarts inside the current flap window
    total_restarts: int = 0
    heartbeat_misses: int = 0
    restart_at: float = 0.0      # monotonic time the next restart may run
    last_start: float = 0.0
    port_file: str = ""

    def status(self) -> ReplicaStatus:
        return ReplicaStatus(
            index=self.index,
            state=self.state,
            port=self.port,
            http_port=self.http_port,
            pid=self.process.pid if self.process is not None else None,
            restarts=self.total_restarts,
        )


def _last_error_line(path: str) -> str:
    """``": <reason>"`` from a dead child's last stderr line, or ``""``.

    A replica that rejects a setting exits with one ``error:`` line, so
    the parent can name the setting without repeating its checks.
    """
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError:
        return ""
    return f": {lines[-1].removeprefix('error: ')}" if lines else ""


class ReplicaSet:
    """Launch and supervise N routing-server replica processes.

    Parameters
    ----------
    n_replicas:
        Replica process count (indices ``0..n-1`` are stable forever).
        Each replica routes in process, so this is the number of cores
        the set uses.
    config:
        The :class:`~repro.serve.server.ServeConfig` every replica runs
        with, rendered onto each child's ``segroute serve`` command line
        (default ``ServeConfig()``).  Ports are always ephemeral and
        each child gets its own port file.  Details:

        * ``host`` is the bind host of every replica, and ``seed`` the
          engine seed shared by all of them — routing is deterministic
          per seed, so any replica answers any request identically,
          which is what makes failover digest-transparent;
        * ``cache_dir`` is shared: all replicas point at the *same*
          directory, so a result solved on replica 0 is a warm
          :class:`~repro.engine.cache_store.CacheStore` hit on replica
          2, and a SIGKILLed-and-restarted replica answers its history
          from disk;
        * ``jobs_dir`` is not: replica *i* keeps its chip jobs in
          ``<jobs_dir>/replica-<i>``, so a restarted replica resumes its
          own jobs and no others;
        * ``fault_plan`` stays here: its ``kill_replica_after`` /
          ``stop_replica_after`` faults are applied by this supervisor,
          and it is not forwarded to the replicas.
    restart_policy:
        Restart budget and backoff shape (the engine's own
        :class:`~repro.engine.resilience.retry.RetryPolicy`).
    flap_window_s:
        Seconds of uninterrupted uptime after which a replica's restart
        count resets; ``restart_policy.max_attempts`` restarts *inside*
        one window quarantine the slot.
    heartbeat_interval / heartbeat_timeout / heartbeat_misses:
        Supervision cadence: ping period, per-ping timeout, and the
        consecutive-miss count that declares a live process hung.
    startup_timeout:
        Seconds to wait for a launched replica to write its port file.
    metrics:
        Shared :class:`~repro.engine.metrics.Metrics` sink (the router
        passes its own so all counters land in one snapshot).
    """

    def __init__(
        self,
        n_replicas: int,
        config: Optional[ServeConfig] = None,
        *,
        restart_policy: RetryPolicy = _RESTART_POLICY,
        flap_window_s: float = 60.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        heartbeat_misses: int = 2,
        startup_timeout: float = 20.0,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.n_replicas = n_replicas
        self.config = config or ServeConfig()
        self.restart_policy = restart_policy
        self.flap_window_s = flap_window_s
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_misses = heartbeat_misses
        self.startup_timeout = startup_timeout
        self.metrics = metrics if metrics is not None else Metrics()
        self._replicas = [_Replica(index=i) for i in range(n_replicas)]
        self._workdir: Optional[tempfile.TemporaryDirectory] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._stopped = False
        self._requests_routed = 0
        self._fault_fired: set[str] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Launch every replica, wait until all answer, start supervising.

        If any launch fails, the replicas that *did* start are
        terminated before the error propagates — a half-started set
        must not orphan live subprocesses.
        """
        self._workdir = tempfile.TemporaryDirectory(prefix="segroute-replicas-")
        results = await asyncio.gather(*(
            self._launch(replica) for replica in self._replicas
        ), return_exceptions=True)
        errors = [r for r in results if isinstance(r, BaseException)]
        if errors:
            for replica in self._replicas:
                self._terminate(replica)
                replica.state = REPLICA_STOPPED
            self._workdir.cleanup()
            self._workdir = None
            raise errors[0]
        self._supervisor = asyncio.get_running_loop().create_task(
            self._supervise(), name="replica-supervisor"
        )

    async def stop(self) -> None:
        """Terminate every replica (SIGTERM, then SIGKILL stragglers)."""
        self._stopped = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except (asyncio.CancelledError, Exception):
                pass
        for replica in self._replicas:
            self._terminate(replica)
            replica.state = REPLICA_STOPPED
        if self._workdir is not None:
            self._workdir.cleanup()
            self._workdir = None

    async def __aenter__(self) -> "ReplicaSet":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # interface the router consumes
    # ------------------------------------------------------------------
    def endpoint(self, index: int) -> Optional[tuple[str, int]]:
        """``(host, port)`` of replica ``index``, or ``None`` if down."""
        replica = self._replicas[index]
        if replica.state == REPLICA_UP and replica.port is not None:
            return (self.config.host, replica.port)
        return None

    def live_indices(self) -> list[int]:
        """Indices of replicas currently answering."""
        return [
            r.index for r in self._replicas if r.state == REPLICA_UP
        ]

    def note_request(self) -> None:
        """Count one routed request; applies pending parent-side faults."""
        self._requests_routed += 1
        plan = self.config.fault_plan
        if plan is None:
            return
        if (
            plan.kill_replica_after is not None
            and "kill" not in self._fault_fired
            and self._requests_routed >= plan.kill_replica_after
        ):
            self._fault_fired.add("kill")
            self._signal_victim("kill", signal.SIGKILL)
        if (
            plan.stop_replica_after is not None
            and "stop" not in self._fault_fired
            and self._requests_routed >= plan.stop_replica_after
        ):
            self._fault_fired.add("stop")
            self._signal_victim("stop", signal.SIGSTOP)

    def status(self) -> list[ReplicaStatus]:
        """Snapshot of every replica slot."""
        return [replica.status() for replica in self._replicas]

    def counters(self) -> dict:
        """Per-replica supervision counters for reports and ``stats``."""
        return {
            str(r.index): {
                "state": r.state,
                "restarts": r.total_restarts,
            }
            for r in self._replicas
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _argv(self, replica: _Replica) -> list[str]:
        """The ``segroute serve`` command line of one replica."""
        config = self.config
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", config.host, "--port", "0", "--http-port", "0",
            "--port-file", replica.port_file,
            "--seed", str(config.seed),
            "--max-queue", str(config.max_queue),
            "--drain-grace", str(config.drain_grace),
            "--max-active-jobs", str(config.max_active_jobs),
            "--max-queued-jobs", str(config.max_queued_jobs),
        ]
        optional = {
            "--timeout": config.timeout,
            "--rate": config.rate,
            "--burst": config.burst,
            "--cache-dir": config.cache_dir,
            "--jobs-dir": (
                os.path.join(config.jobs_dir, f"replica-{replica.index}")
                if config.jobs_dir is not None else None
            ),
            "--job-deadline": config.job_deadline_s,
        }
        for flag, value in optional.items():
            if value is not None:
                argv += [flag, str(value)]
        return argv

    @staticmethod
    def _child_env() -> dict:
        """Child environment with ``repro`` importable.

        The parent may have put the package on ``sys.path``
        programmatically (tooling does); prepend its location to the
        child's ``PYTHONPATH`` so ``python -m repro`` resolves there
        too.
        """
        import repro

        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    async def _launch(self, replica: _Replica) -> None:
        """Spawn one replica process and wait for its port file."""
        assert self._workdir is not None
        stem = os.path.join(
            self._workdir.name,
            f"replica-{replica.index}-{replica.total_restarts}",
        )
        replica.port_file = stem + ".json"
        replica.state = REPLICA_STARTING
        replica.heartbeat_misses = 0
        replica.last_start = time.monotonic()
        with open(stem + ".stderr", "wb") as stderr:
            replica.process = subprocess.Popen(
                self._argv(replica),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=self._child_env(),
            )
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if replica.process.poll() is not None:
                raise ServeError(
                    f"replica {replica.index} exited during startup "
                    f"(code {replica.process.returncode})"
                    + _last_error_line(stem + ".stderr")
                )
            try:
                with open(replica.port_file, encoding="utf-8") as handle:
                    ports = json.load(handle)
                replica.port = int(ports["port"])
                replica.http_port = int(ports["http_port"])
                replica.state = REPLICA_UP
                return
            except (OSError, ValueError, KeyError):
                await asyncio.sleep(0.05)
        self._terminate(replica)
        raise ServeError(
            f"replica {replica.index} did not bind within "
            f"{self.startup_timeout}s"
        )

    def _terminate(self, replica: _Replica) -> None:
        process = replica.process
        if process is None or process.poll() is not None:
            return
        try:
            # A SIGSTOPped child cannot run its SIGTERM handler; resume
            # it first so graceful drain gets a chance.
            process.send_signal(signal.SIGCONT)
            process.terminate()
            process.wait(timeout=self.config.drain_grace + 3.0)
        except (subprocess.TimeoutExpired, OSError):
            try:
                process.kill()
                process.wait(timeout=3.0)
            except (subprocess.TimeoutExpired, OSError):
                pass

    def _signal_victim(self, kind: str, signum: int) -> None:
        victim = self._replicas[
            self.config.fault_plan.replica_victim(self.n_replicas, kind)
        ]
        if victim.process is not None and victim.process.poll() is None:
            self.metrics.incr(f"serve.replica.fault_{kind}s")
            try:
                victim.process.send_signal(signum)
            except OSError:  # pragma: no cover - victim died first
                pass

    async def _supervise(self) -> None:
        """Poll liveness + heartbeat every tick; restart / quarantine."""
        while not self._stopped:
            await asyncio.sleep(self.heartbeat_interval)
            for replica in self._replicas:
                try:
                    await self._check(replica)
                except asyncio.CancelledError:
                    raise
                except Exception:  # pragma: no cover - supervision never dies
                    pass

    async def _check(self, replica: _Replica) -> None:
        if replica.state == REPLICA_QUARANTINED:
            return
        if replica.state == REPLICA_RESTARTING:
            if time.monotonic() >= replica.restart_at:
                await self._launch(replica)
            return
        process = replica.process
        if process is None:
            return
        if process.poll() is not None:
            self._on_failure(replica, "exit")
            return
        if replica.state != REPLICA_UP:
            return
        if await self._ping(replica):
            replica.heartbeat_misses = 0
            # Uptime past the flap window earns the restart budget back.
            if (
                replica.restarts
                and time.monotonic() - replica.last_start > self.flap_window_s
            ):
                replica.restarts = 0
        else:
            replica.heartbeat_misses += 1
            if replica.heartbeat_misses >= self.heartbeat_misses:
                # Alive but unresponsive (hung / SIGSTOPped): kill it so
                # the restart path takes over.
                self.metrics.incr("serve.replica.heartbeat_kills")
                try:
                    process.kill()
                    process.wait(timeout=3.0)
                except (subprocess.TimeoutExpired, OSError):
                    pass
                self._on_failure(replica, "heartbeat")

    async def _ping(self, replica: _Replica) -> bool:
        if replica.port is None:
            return False
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.config.host, replica.port),
                timeout=self.heartbeat_timeout,
            )
            writer.write(encode({
                "v": PROTOCOL_VERSION, "id": "hb", "op": "ping",
            }))
            await asyncio.wait_for(
                writer.drain(), timeout=self.heartbeat_timeout
            )
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.heartbeat_timeout
            )
            if not line:
                return False
            return bool(decode(line).get("pong"))
        except (OSError, asyncio.TimeoutError, ServeError):
            return False
        finally:
            if writer is not None:
                writer.close()

    def _on_failure(self, replica: _Replica, why: str) -> None:
        replica.restarts += 1
        replica.total_restarts += 1
        self.metrics.incr("serve.replica.failures")
        if replica.restarts > self.restart_policy.max_attempts:
            replica.state = REPLICA_QUARANTINED
            self.metrics.incr("serve.replica.quarantined")
            return
        self.metrics.incr("serve.replica.restarts")
        delay = backoff_delay(
            self.restart_policy, replica.restarts, self.config.seed,
            f"replica:{replica.index}:{why}",
        )
        replica.state = REPLICA_RESTARTING
        replica.port = None
        replica.http_port = None
        replica.restart_at = time.monotonic() + delay


class StaticReplicaSet:
    """The :class:`ReplicaSet` interface over fixed external endpoints.

    Supervises nothing: ``endpoint(i)`` just returns what it was given
    (or ``None`` for a slot marked down via :meth:`set_down`).  Used to
    test the router against in-thread servers, and as the degenerate
    single-replica topology.
    """

    def __init__(self, endpoints: Sequence[tuple[str, int]]) -> None:
        if not endpoints:
            raise ValueError("endpoints must be non-empty")
        self._endpoints = list(endpoints)
        self._down: set[int] = set()
        self.n_replicas = len(self._endpoints)

    def endpoint(self, index: int) -> Optional[tuple[str, int]]:
        if index in self._down:
            return None
        return self._endpoints[index]

    def live_indices(self) -> list[int]:
        return [
            i for i in range(self.n_replicas) if i not in self._down
        ]

    def set_down(self, index: int, down: bool = True) -> None:
        """Mark a slot down (the test's stand-in for a crash)."""
        if down:
            self._down.add(index)
        else:
            self._down.discard(index)

    def set_endpoint(self, index: int, endpoint: tuple[str, int]) -> None:
        """Repoint a slot (the test's stand-in for a restart)."""
        self._endpoints[index] = endpoint
        self._down.discard(index)

    def note_request(self) -> None:
        pass

    def status(self) -> list[ReplicaStatus]:
        return [
            ReplicaStatus(
                index=i,
                state=(REPLICA_STOPPED if i in self._down else REPLICA_UP),
                port=self._endpoints[i][1],
                http_port=None,
                pid=None,
                restarts=0,
            )
            for i in range(self.n_replicas)
        ]

    def counters(self) -> dict:
        return {
            str(i): {
                "state": REPLICA_STOPPED if i in self._down else REPLICA_UP,
                "restarts": 0,
            }
            for i in range(self.n_replicas)
        }
