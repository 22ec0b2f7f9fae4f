"""Load generation against a live routing server.

Two traffic shapes, the standard pair from the serving-systems
literature:

* **closed loop** — ``concurrency`` workers, each sending its next
  request the moment the previous response lands.  Throughput is
  whatever the server sustains; the queue never grows beyond
  ``concurrency``.  This measures *capacity*.
* **open loop** — requests depart on a fixed schedule (``rate`` per
  second) regardless of completions, like independent clients arriving.
  When the server falls behind, the backlog grows and the admission
  layer must shed — this measures *overload behaviour*, which closed
  loops structurally cannot produce.

Requests draw round-robin from a seeded corpus of
feasible-by-construction instances, so a run that covers every corpus
entry yields a :func:`~repro.io.results.digest_records` digest directly
comparable to ``segroute batch`` over the same corpus — the serving
stack is digest-verified against the offline engine, not just
smoke-tested.  When ``requests`` exceeds the corpus size the corpus is
covered multiple times; the digest is then computed from the first
response per entry *and only if every repeat answered identically*
(``consistent`` in the report), which is exactly the property a
failover router must preserve: a request replayed on a different
replica mid-run may not change the answer.

The report (``segroute loadgen -o REPORT.json``) carries status counts,
protocol errors, throughput, client-observed latency percentiles, and —
against a replicated router — the server's own failover/per-replica
counters fetched over the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Sequence

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import ProtocolError, ServeError
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.substrate.prng import derive_seed
from repro.io.results import digest_records, result_record
from repro.serve.client import AsyncRoutingClient, ServeResult
from repro.serve.protocol import REJECTION_STATUSES, STATUS_OK

__all__ = ["build_corpus", "run_loadgen", "render_report"]

#: One corpus entry: ``(channel, connections, max_segments)``.
CorpusEntry = tuple[SegmentedChannel, ConnectionSet, Optional[int]]


def build_corpus(
    size: int,
    seed: int = 0,
    *,
    n_tracks: int = 12,
    n_columns: int = 24,
    n_connections: int = 8,
    mean_segment_length: float = 3.0,
    max_segments: Optional[int] = 2,
) -> list[CorpusEntry]:
    """Seeded corpus of feasible instances (distinct channel per entry)."""
    corpus: list[CorpusEntry] = []
    for i in range(size):
        channel = random_channel(
            n_tracks, n_columns, mean_segment_length,
            seed=derive_seed(seed, f"loadgen:chan:{i}"),
        )
        connections = random_feasible_instance(
            channel, n_connections,
            seed=derive_seed(seed, f"loadgen:conn:{i}"),
            max_segments=max_segments,
        )
        corpus.append((channel, connections, max_segments))
    return corpus


async def _run_async(
    host: str,
    port: int,
    corpus: Sequence[CorpusEntry],
    *,
    requests: int,
    mode: str,
    concurrency: int,
    rate: Optional[float],
    deadline_ms: Optional[float],
    weight: Optional[str],
    algorithm: str,
    timeout: Optional[float],
    seed: int,
    collect_stats: bool,
    wire: str,
) -> tuple[list[dict], int, float, Optional[dict], dict]:
    records: list[Optional[dict]] = [None] * requests
    protocol_errors = 0
    server_stats: Optional[dict] = None

    async def one(client: AsyncRoutingClient, i: int) -> None:
        nonlocal protocol_errors
        channel, connections, k = corpus[i % len(corpus)]
        started = time.monotonic()
        try:
            result = await client.route(
                channel, connections, max_segments=k, weight=weight,
                algorithm=algorithm, deadline_ms=deadline_ms,
            )
        except ProtocolError:
            protocol_errors += 1
            result = None
        except ServeError as exc:
            result = ServeResult(
                request_id="", status="transport-error", error=str(exc),
                latency=time.monotonic() - started,
            )
        if result is not None:
            records[i] = {
                "corpus_index": i % len(corpus),
                "status": result.status,
                "latency": result.latency,
                "assignment": result.assignment,
                "error_type": result.error_type,
                "cache_hit": result.cache_hit,
            }

    async with AsyncRoutingClient(
        host, port, timeout=timeout, seed=seed, wire=wire
    ) as client:
        started = time.monotonic()
        if mode == "open":
            interval = 1.0 / rate
            tasks = []
            for i in range(requests):
                target = started + i * interval
                delay = target - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.get_running_loop().create_task(
                    one(client, i)
                ))
            await asyncio.gather(*tasks)
        elif mode == "closed":
            counter = iter(range(requests))

            async def worker() -> None:
                for i in counter:
                    await one(client, i)

            await asyncio.gather(*(
                worker() for _ in range(max(1, concurrency))
            ))
        else:
            raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
        wall = time.monotonic() - started
        if collect_stats:
            try:
                server_stats = await client.stats()
            except (ServeError, ProtocolError):
                server_stats = None
        wire_stats = client.wire_stats()
    return (
        [r for r in records if r is not None],
        protocol_errors, wall, server_stats, wire_stats,
    )


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


def run_loadgen(
    host: str,
    port: int,
    *,
    corpus: Optional[Sequence[CorpusEntry]] = None,
    corpus_size: int = 16,
    requests: int = 100,
    mode: str = "closed",
    concurrency: int = 8,
    rate: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    weight: Optional[str] = None,
    algorithm: str = "auto",
    timeout: Optional[float] = 30.0,
    seed: int = 0,
    include_server_stats: bool = True,
    wire: str = "auto",
) -> dict:
    """Drive traffic at a server and return the measurement report.

    When every corpus entry completes with an ``ok``/``error`` response
    — and repeats of the same entry answered identically — the report
    carries a ``digest`` comparable to the offline ``segroute batch``
    digest of the same corpus.  With ``include_server_stats`` the
    server's ``serve.*`` counters (and, against a router, its
    per-replica failover/shed counts) are fetched post-run under
    ``"server"``.  ``completed`` and ``throughput_rps`` count only the
    ``ok``/``error`` answers; refusals are counted under ``shed``.

    ``wire`` selects the client framing (``"auto"`` negotiates binary
    when the server offers it, ``"v1"`` forces NDJSON, ``"v2"``
    requires binary); the report's ``"wire"`` section carries the
    negotiated framing plus byte and encode/decode-time accounting.
    """
    if corpus is None:
        corpus = build_corpus(corpus_size, seed)
    if not corpus:
        raise ValueError("corpus is empty")
    if mode == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop mode needs a positive rate")
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    if wire not in ("auto", "v1", "v2"):
        raise ValueError(f"wire must be 'auto', 'v1' or 'v2', got {wire!r}")
    records, protocol_errors, wall, server_stats, wire_stats = asyncio.run(
        _run_async(
            host, port, corpus,
            requests=requests, mode=mode, concurrency=concurrency,
            rate=rate, deadline_ms=deadline_ms, weight=weight,
            algorithm=algorithm, timeout=timeout, seed=seed,
            collect_stats=include_server_stats, wire=wire,
        )
    )

    statuses: dict[str, int] = {}
    for record in records:
        statuses[record["status"]] = statuses.get(record["status"], 0) + 1
    latencies = sorted(r["latency"] for r in records)
    completed = [
        r for r in records
        if r["status"] not in REJECTION_STATUSES
        and r["status"] != "transport-error"
    ]

    # Digest when the run covers the whole corpus (possibly multiple
    # times) and nothing was shed or lost: hash the first response per
    # entry, but only if every repeat of an entry answered identically —
    # the invariant a failover tier must preserve.
    digest = None
    consistent = None
    covered = {r["corpus_index"] for r in records}
    if len(completed) == len(records) and covered == set(range(len(corpus))):
        first: dict[int, dict] = {}
        consistent = True
        for r in records:
            prev = first.setdefault(r["corpus_index"], r)
            if prev is not r and (
                prev["status"], prev["assignment"], prev["error_type"]
            ) != (r["status"], r["assignment"], r["error_type"]):
                consistent = False
        if consistent:
            digest = digest_records(
                result_record(
                    i,
                    first[i]["status"] == STATUS_OK,
                    first[i]["assignment"],
                    first[i]["error_type"],
                )
                for i in sorted(first)
            )

    server = None
    if server_stats is not None:
        # serve.* is the serving layer itself; cache.* (notably the
        # cache.persist.* tier) is what warm-restart smoke checks and
        # the bench tables assert on.
        server = {
            "counters": {
                name: value
                for name, value in server_stats.get("counters", {}).items()
                if name.startswith(("serve.", "cache.", "jobs."))
            },
        }
        if "replicas" in server_stats:
            server["replicas"] = server_stats["replicas"]

    return {
        "mode": mode,
        "requests": requests,
        "completed": len(completed),
        "corpus_size": len(corpus),
        "concurrency": concurrency if mode == "closed" else None,
        "rate": rate if mode == "open" else None,
        "deadline_ms": deadline_ms,
        "wall_s": round(wall, 4),
        "throughput_rps": round(len(completed) / wall, 2) if wall > 0 else 0.0,
        "statuses": dict(sorted(statuses.items())),
        "shed": sum(statuses.get(s, 0) for s in REJECTION_STATUSES),
        "protocol_errors": protocol_errors,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000.0, 3),
            "p95": round(_percentile(latencies, 0.95) * 1000.0, 3),
            "p99": round(_percentile(latencies, 0.99) * 1000.0, 3),
            "max": round(latencies[-1] * 1000.0, 3) if latencies else 0.0,
        },
        "digest": digest,
        "consistent": consistent,
        "wire": {
            "requested": wire,
            "negotiated": wire_stats.get("negotiated"),
            "wire_bytes_out": wire_stats.get("bytes_out", 0),
            "wire_bytes_in": wire_stats.get("bytes_in", 0),
            "encode_ms": wire_stats.get("encode_ms", 0.0),
            "decode_ms": wire_stats.get("decode_ms", 0.0),
            "frames_out": wire_stats.get("frames_out", {}),
            "frames_in": wire_stats.get("frames_in", {}),
        },
        "server": server,
    }


def render_report(report: dict) -> str:
    """Human-readable loadgen summary (the CLI output)."""
    lines = [
        f"mode        {report['mode']}",
        f"requests    {report['requests']} "
        f"({report['completed']} completed, {report['shed']} refused, "
        f"{report['protocol_errors']} protocol errors)",
        f"throughput  {report['throughput_rps']} req/s "
        f"over {report['wall_s']}s",
        "statuses    " + ", ".join(
            f"{k}={v}" for k, v in report["statuses"].items()
        ),
        "latency ms  " + ", ".join(
            f"{k}={v}" for k, v in report["latency_ms"].items()
        ),
    ]
    wire = report.get("wire") or {}
    if wire:
        lines.append(
            f"wire        {wire.get('negotiated', 'v1')} "
            f"(out={wire.get('wire_bytes_out', 0)}B, "
            f"in={wire.get('wire_bytes_in', 0)}B, "
            f"encode={wire.get('encode_ms', 0.0)}ms, "
            f"decode={wire.get('decode_ms', 0.0)}ms)"
        )
    if report.get("digest"):
        lines.append(f"digest      {report['digest']}")
    server = report.get("server") or {}
    counters = server.get("counters", {})
    if "serve.router.requests" in counters:
        lines.append(
            "router      "
            f"failovers={counters.get('serve.router.failovers', 0)}, "
            f"breaker_opens={counters.get('serve.router.breaker_opens', 0)}"
        )
    for idx, counts in sorted(server.get("replicas", {}).items()):
        lines.append(
            f"replica {idx}   " + ", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())
            )
        )
    return "\n".join(lines)
