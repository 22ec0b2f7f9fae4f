"""Job API over the wire: submit/status/results/cancel against a live
server, admission bounds, router affinity forwarding, and route-traffic
isolation while a chip job runs."""

import asyncio

import pytest

from repro.core.errors import AdmissionRejected, ServeError
from repro.fpga.netlist import random_netlist
from repro.io.netlist_format import dumps_netlist
from repro.io.results import digest_records
from repro.jobs.pipeline import ChipSpec, run_chip_pipeline
from repro.serve import (
    AsyncRoutingClient,
    PROTOCOL_VERSION,
    RoutingServer,
    ServeConfig,
    STATUS_ERROR,
    STATUS_OK,
)
from repro.serve.loadgen import build_corpus
from repro.serve.replica import StaticReplicaSet
from repro.serve.router import RouterConfig, RoutingRouter

pytestmark = pytest.mark.serve


def _payload(seed=23, nets=14, tracks=5, cells_per_row=6, max_rounds=8):
    return {
        "netlist_text": dumps_netlist(random_netlist(nets, 3, seed=seed)),
        "rows": 3,
        "cells_per_row": cells_per_row,
        "tracks": tracks,
        "seg_types": 2,
        "seed": seed,
        "max_rounds": max_rounds,
    }


#: Converges in 2 rounds, ~20ms.
QUICK = _payload()
#: Never converges; runs for several seconds — the in-flight job for
#: the cancel/admission test.
HEAVY = _payload(seed=11, nets=300, tracks=4, cells_per_row=100, max_rounds=64)


def _config(tmp_path, **overrides):
    defaults = dict(
        port=0, http_port=0, drain_grace=5.0,
        jobs_dir=str(tmp_path / "jobs"),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def test_job_flow_with_concurrent_route_traffic(tmp_path):
    """Acceptance: a chip job streams back the offline digest while
    single-channel traffic on the same connection sees zero errors."""
    offline = run_chip_pipeline(ChipSpec.from_payload(QUICK))
    corpus = build_corpus(12, seed=42)

    async def main():
        server = RoutingServer(_config(tmp_path, seed=42))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                job = await client.submit_job(QUICK, job_id="wire-1")
                assert job["state"] in ("queued", "running")
                routed, status = await asyncio.gather(
                    client.route_many(
                        [(c, s) for c, s, _ in corpus],
                        max_segments=[k for _, _, k in corpus],
                    ),
                    client.wait_job("wire-1", timeout=60),
                )
                page = await client.fetch_job_records(
                    "wire-1", page_size=3
                )
                stats = await client.stats()
            return routed, status, page, stats

    routed, status, page, stats = asyncio.run(main())
    assert all(r.status == STATUS_OK for r in routed)
    assert status["state"] == "done" and status["ok"] is True
    assert status["digest"] == offline.digest
    assert page["digest"] == offline.digest
    assert digest_records(page["records"]) == offline.digest
    counters = stats["counters"]
    assert counters["jobs.completed"] == 1
    assert counters["serve.job_requests"] >= 3


def test_protocol_and_spec_errors_are_typed(tmp_path):
    async def main():
        server = RoutingServer(_config(tmp_path))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port
            ) as client:
                missing_id = await client.call({
                    "v": PROTOCOL_VERSION, "id": "x1", "op": "job.status",
                })
                bad_spec = await client.call({
                    "v": PROTOCOL_VERSION, "id": "x2", "op": "job.submit",
                    "job_id": "bad", "spec": {"rows": 3},
                })
                # Fields the engine would choke on are refused at submit,
                # never queued as a job that dies on the job thread.
                bad_fields = [
                    await client.call({
                        "v": PROTOCOL_VERSION, "id": f"f{i}",
                        "op": "job.submit", "job_id": f"bad-{i}",
                        "spec": {**QUICK, **fields},
                    })
                    for i, fields in enumerate([
                        {"algorithm": "bogus"}, {"seg_ratio": "x"},
                        {"seg_ratio": 1}, {"rows": True},
                    ])
                ]
                unknown = await client.call({
                    "v": PROTOCOL_VERSION, "id": "x3", "op": "job.results",
                    "job_id": "never-submitted",
                })
            return missing_id, bad_spec, bad_fields, unknown

    missing_id, bad_spec, bad_fields, unknown = asyncio.run(main())
    assert missing_id["status"] == STATUS_ERROR
    assert missing_id["error_type"] == "ProtocolError"
    for reply in [bad_spec, *bad_fields]:
        assert reply["status"] == STATUS_ERROR
        assert reply["error_type"] == "FormatError"
    assert unknown["status"] == STATUS_ERROR
    assert unknown["error_type"] == "JobNotFound"


def test_job_admission_bounds_over_wire(tmp_path):
    async def main():
        server = RoutingServer(_config(
            tmp_path, max_active_jobs=1, max_queued_jobs=1,
        ))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                await client.submit_job(HEAVY, job_id="busy")
                await asyncio.sleep(0.3)  # worker claims it
                await client.submit_job(QUICK, job_id="waiting")
                with pytest.raises(AdmissionRejected) as excinfo:
                    await client.submit_job(
                        _payload(seed=24), job_id="rejected"
                    )
                assert excinfo.value.status == "overloaded"
                cancelled = await client.cancel_job("busy")
                assert cancelled["cancel_requested"] is True
                final = await client.wait_job("busy", timeout=60)
                assert final["state"] == "cancelled"
                # The queued job still runs to completion afterwards.
                assert (await client.wait_job("waiting", timeout=60))[
                    "state"
                ] == "done"

    asyncio.run(main())


def test_router_forwards_jobs_with_affinity(tmp_path):
    offline = run_chip_pipeline(ChipSpec.from_payload(QUICK))

    async def main():
        server = RoutingServer(_config(tmp_path, seed=7))
        async with server:
            replica_set = StaticReplicaSet([("127.0.0.1", server.port)])
            router = RoutingRouter(
                replica_set, RouterConfig(port=0, http_port=0, seed=7)
            )
            async with router:
                async with AsyncRoutingClient(
                    "127.0.0.1", router.port, timeout=60
                ) as client:
                    await client.submit_job(QUICK, job_id="routed-1")
                    status = await client.wait_job("routed-1", timeout=60)
                    page = await client.fetch_job_records("routed-1")
                    # The replica's typed not-found answer passes
                    # through the router untouched.
                    with pytest.raises(ServeError, match="JobNotFound"):
                        await client.job_status("missing")
            return status, page

    status, page = asyncio.run(main())
    assert status["state"] == "done"
    assert status["digest"] == offline.digest
    assert page["digest"] == offline.digest
