"""Client SDK: blocking client, connect retries, timeouts, transport loss."""

import asyncio
import threading

import pytest

from repro.core.errors import ServeError
from repro.engine.resilience.retry import RetryPolicy
from repro.serve import RoutingClient, RoutingServer, ServeConfig, STATUS_OK
from repro.serve.client import _parse_response
from repro.serve.loadgen import build_corpus
from tests.serve.gate import RouteGate

pytestmark = pytest.mark.serve


class ServerThread:
    """A live server on its own event loop, for exercising sync clients."""

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
        try:
            self.loop.call_soon_threadsafe(self.server.request_drain)
        except RuntimeError:
            pass  # already drained (a test may trigger drain itself)
        self._thread.join(15)


def test_sync_client_routes_and_pings():
    corpus = build_corpus(3, seed=23)
    with ServerThread(ServeConfig(port=0, http_port=0, seed=23)) as st:
        with RoutingClient("127.0.0.1", st.server.port, timeout=30) as client:
            pong = client.ping()
            assert pong["pong"] is True
            for channel, conns, k in corpus:
                result = client.route(channel, conns, max_segments=k)
                assert result.status == STATUS_OK
                assert result.assignment is not None
                assert result.latency > 0
            stats = client.stats()
            assert stats["counters"]["serve.ok"] == len(corpus)


def test_sync_client_timeout_is_typed_and_connection_survives():
    """A timed-out call raises a plain ServeError; the client keeps working.

    The exact solve of the Theorem-2 instance outlives the client's
    0.3 s timeout (the server's own 2 s deadline ends it later); the
    late reply must not poison the connection for the next call.
    """
    from repro.core.errors import ConnectionLostError
    from tests.engine.test_engine import adversarial_instance

    channel, conns = adversarial_instance()
    config = ServeConfig(port=0, http_port=0, seed=5, timeout=2.0)
    with ServerThread(config) as st:
        with RoutingClient(
            "127.0.0.1", st.server.port, timeout=0.3
        ) as client:
            with pytest.raises(ServeError) as caught:
                client.route(channel, conns, algorithm="exact")
            assert not isinstance(caught.value, ConnectionLostError)
            assert client.ping()["pong"] is True


def test_sync_client_connect_retries_then_fails():
    policy = RetryPolicy(
        max_attempts=2, base_delay=0.01, max_delay=0.01, jitter=0.0
    )
    client = RoutingClient(
        "127.0.0.1", 1, timeout=1, connect_policy=policy
    )  # port 1: nothing listens there
    with pytest.raises(ServeError, match="cannot connect"):
        client.connect()


def test_sync_client_requires_connect():
    client = RoutingClient("127.0.0.1", 1)
    with pytest.raises(ServeError, match="not connected"):
        client.ping()


def test_async_client_connect_retries_then_fails():
    from repro.serve import AsyncRoutingClient

    policy = RetryPolicy(
        max_attempts=2, base_delay=0.01, max_delay=0.01, jitter=0.0
    )

    async def main():
        client = AsyncRoutingClient(
            "127.0.0.1", 1, timeout=1, connect_policy=policy
        )
        with pytest.raises(ServeError, match="cannot connect"):
            await client.connect()

    asyncio.run(main())


def test_async_client_pending_fail_on_server_close():
    corpus = build_corpus(1, seed=29)
    channel, conns, k = corpus[0]

    async def main():
        from repro.serve import AsyncRoutingClient

        server = RoutingServer(ServeConfig(port=0, http_port=0, seed=29))
        gate = RouteGate(server.engine)
        await server.start()
        client = AsyncRoutingClient("127.0.0.1", server.port, timeout=10)
        await client.connect()
        # Drain while a request is held in its solve; graceful drain
        # still answers it (flush-don't-drop).
        task = asyncio.ensure_future(
            client.route(channel, conns, max_segments=k)
        )
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, gate.entered.wait, 30)
        drain = asyncio.ensure_future(server.drain())
        await asyncio.sleep(0)
        gate.open()
        await drain
        result = await task
        await client.close()
        return result

    result = asyncio.run(main())
    assert result.status == STATUS_OK


def test_parse_response_maps_fields():
    result = _parse_response({
        "v": 1, "id": "r1", "status": "ok", "assignment": [1, 0],
        "algorithm": "greedy1", "cache_hit": True, "duration_ms": 1.5,
        "trace_id": "t",
    }, latency=0.25)
    assert result.ok
    assert result.assignment == [1, 0]
    assert result.cache_hit is True
    assert result.latency == 0.25
    assert result.trace_id == "t"

    failure = _parse_response({
        "v": 1, "id": "r2", "status": "shed",
        "error_type": "AdmissionRejected", "error": "full",
    }, latency=0.01)
    assert not failure.ok
    assert failure.assignment is None
    assert failure.error_type == "AdmissionRejected"


# ----------------------------------------------------------------------
# typed connection loss + idempotent resend
# ----------------------------------------------------------------------
class FlakyServer:
    """Accepts connections; kills the first N without ever answering."""

    def __init__(self, drop_first: int = 1) -> None:
        self.drop_first = drop_first
        self.connections = 0
        self._server = None

    async def _handle(self, reader, writer):
        self.connections += 1
        if self.connections <= self.drop_first:
            await reader.readline()  # swallow the request, then die
            writer.close()
            return
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                from repro.serve.protocol import decode, encode
                message = decode(line)
                writer.write(encode({
                    "v": 1, "id": message.get("id"), "status": "ok",
                    "pong": True,
                }))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()


def test_async_client_resends_inflight_after_reconnect():
    from repro.serve import AsyncRoutingClient

    async def main():
        async with FlakyServer(drop_first=1) as flaky:
            async with AsyncRoutingClient(
                "127.0.0.1", flaky.port, timeout=10
            ) as client:
                # The first connection dies mid-request; the client must
                # reconnect and replay transparently (ops are idempotent).
                pong = await client.ping()
        return pong, flaky.connections

    pong, connections = asyncio.run(main())
    assert pong["pong"] is True
    assert connections == 2  # proof the request rode a second connection


def test_async_client_raises_typed_error_when_resend_disabled():
    from repro.core.errors import ConnectionLostError
    from repro.serve import AsyncRoutingClient

    async def main():
        async with FlakyServer(drop_first=1) as flaky:
            async with AsyncRoutingClient(
                "127.0.0.1", flaky.port, timeout=10,
                resend_on_reconnect=False,
            ) as client:
                with pytest.raises(ConnectionLostError):
                    await client.ping()

    asyncio.run(main())


def test_async_client_typed_error_when_reconnect_impossible():
    from repro.core.errors import ConnectionLostError
    from repro.serve import AsyncRoutingClient

    async def main():
        flaky = FlakyServer(drop_first=10)
        await flaky.__aenter__()
        client = AsyncRoutingClient(
            "127.0.0.1", flaky.port, timeout=10,
            connect_policy=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.01,
                jitter=0.0,
            ),
        )
        await client.connect()
        # Stop the listener: the established connection still dies
        # mid-request, and now the reconnect cannot land either — the
        # client must surface the typed original error, not a timeout.
        await flaky.__aexit__(None, None, None)
        with pytest.raises(ConnectionLostError):
            await client.ping()
        await client.close()

    asyncio.run(main())


def test_sync_client_connection_loss_is_typed():
    from repro.core.errors import ConnectionLostError

    with ServerThread(ServeConfig(port=0, http_port=0, seed=3)) as st:
        client = RoutingClient("127.0.0.1", st.server.port, timeout=5)
        client.connect()
        assert client.ping()["pong"] is True
        st.loop.call_soon_threadsafe(st.server.request_drain)
        # Wait for the server to drop the connection, then poke it.
        deadline = 50
        while deadline:
            try:
                client.ping()
            except ConnectionLostError:
                break
            except ServeError:
                pytest.fail("expected the typed ConnectionLostError")
            import time
            time.sleep(0.1)
            deadline -= 1
        else:
            pytest.fail("connection never dropped")
        client.close()
