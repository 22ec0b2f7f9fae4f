"""Load generator: corpus determinism, traffic modes, report shape."""

import asyncio
import threading

import pytest

from repro.io.text_format import dumps_instance
from repro.serve import RoutingServer, ServeConfig
from repro.serve.loadgen import (
    _percentile,
    build_corpus,
    render_report,
    run_loadgen,
)
from tests.serve.gate import RouteGate

pytestmark = pytest.mark.serve


class ServerThread:
    def __init__(self, config: ServeConfig) -> None:
        self.server = RoutingServer(config)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_until_complete(self.server.serve_forever())
        self.loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(15)


def test_build_corpus_is_deterministic():
    a = build_corpus(4, seed=77)
    b = build_corpus(4, seed=77)
    other = build_corpus(4, seed=78)
    dump = lambda corpus: [dumps_instance(c, s) for c, s, _ in corpus]  # noqa: E731
    assert dump(a) == dump(b)
    assert dump(a) != dump(other)
    # Entries are distinct instances, not one instance repeated.
    assert len(set(dump(a))) == len(a)


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 1.0) == 4.0
    assert _percentile(values, 0.5) == 3.0  # round(0.5 * 3) = 2
    assert _percentile([], 0.5) == 0.0


def test_closed_loop_report_with_digest():
    with ServerThread(ServeConfig(port=0, http_port=0, seed=55)) as st:
        report = run_loadgen(
            "127.0.0.1", st.server.port,
            corpus=build_corpus(6, seed=55),
            requests=6, mode="closed", concurrency=3, seed=55,
        )
    assert report["completed"] == 6
    assert report["protocol_errors"] == 0
    assert report["statuses"] == {"ok": 6}
    assert report["shed"] == 0
    assert report["digest"]  # 1:1 corpus coverage -> digest present
    assert report["throughput_rps"] > 0
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
    text = render_report(report)
    assert "ok=6" in text and report["digest"] in text


def test_open_loop_mode_runs_and_counts():
    with ServerThread(ServeConfig(port=0, http_port=0, seed=56)) as st:
        report = run_loadgen(
            "127.0.0.1", st.server.port,
            corpus=build_corpus(4, seed=56),
            requests=8, mode="open", rate=200.0, seed=56,
        )
    assert report["mode"] == "open"
    assert report["rate"] == 200.0
    assert report["completed"] == 8
    # 8 requests over a 4-entry corpus: double coverage still digests
    # (first response per entry), provided every repeat agreed.
    assert report["consistent"] is True
    assert report["digest"] is not None


def test_open_loop_requires_rate():
    with pytest.raises(ValueError, match="rate"):
        run_loadgen(
            "127.0.0.1", 1, corpus=build_corpus(1, seed=1),
            requests=1, mode="open", rate=None,
        )


def test_shed_responses_break_the_digest_but_are_counted():
    server = ServerThread(ServeConfig(
        port=0, http_port=0, seed=57, max_queue=2,
    ))
    # Two admitted requests hold the queue full until ten are refused.
    RouteGate(server.server.engine, until=lambda: (
        server.server.metrics.counter("serve.overloaded") == 10
    ))
    with server as st:
        report = run_loadgen(
            "127.0.0.1", st.server.port,
            corpus=build_corpus(12, seed=57),
            requests=12, mode="closed", concurrency=12, seed=57,
        )
    assert report["completed"] + report["shed"] == 12
    assert report["protocol_errors"] == 0
    # Refusals are counted, but not as completed (served) requests.
    assert report["shed"] == 10
    assert report["completed"] == report["statuses"]["ok"] == 2
    assert report["digest"] is None
    assert "2 completed, 10 refused" in render_report(report)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        run_loadgen("127.0.0.1", 1, corpus=[], requests=1)
