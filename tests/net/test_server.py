"""The generator server: sessions, registry, shutdown, and the CLI.

Everything here runs over real loopback TCP sockets on ephemeral
ports, with the package conftest leak-checking scheduler threads *and*
sessions after every test.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.coexpr.scheduler import PipeScheduler, default_scheduler
from repro.coexpr.wire import _HEADER, WIRE_CALL, WIRE_CREDIT, SocketFramer
from repro.errors import PipeConnectionLost, PipeError
from repro.monitor import EventKind, Tracer
from repro.net import AsyncGeneratorServer, GeneratorServer, RemotePipe
from repro.runtime.failure import FAIL


SERVERS = [GeneratorServer, AsyncGeneratorServer]
SERVER_IDS = ["thread", "async"]


def counter(n):
    return iter(range(n))


def ticker(delay=0.02):
    i = 0
    while True:
        yield i
        i += 1
        time.sleep(delay)


def blobs():
    while True:
        yield b"x" * 65536


def crasher(n):
    yield from range(n)
    raise ValueError("factory crashed")


class Opaque:
    """Pickles by global reference — forbidden on an untrusting server."""


@pytest.fixture
def server():
    srv = GeneratorServer()
    srv.register("counter", counter)
    srv.register("ticker", ticker)
    srv.register("crasher", crasher)
    with srv:
        yield srv


class TestLifecycle:
    def test_ephemeral_port_resolved_on_start(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port != 0

    def test_start_is_idempotent(self, server):
        assert server.start() is server

    def test_start_after_shutdown_rejected(self):
        srv = GeneratorServer().start()
        srv.shutdown()
        with pytest.raises(PipeError, match="shut-down"):
            srv.start()

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()


class TestNamedFactories:
    def test_remote_pipe_drains_factory(self, server):
        pipe = RemotePipe(server.address, "counter", args=(10,))
        assert list(pipe.iterate()) == list(range(10))

    def test_batched_stream_preserves_order(self, server):
        pipe = RemotePipe(server.address, "counter", args=(100,), batch=8)
        assert list(pipe.iterate()) == list(range(100))

    def test_bounded_channel_stream(self, server):
        pipe = RemotePipe(server.address, "counter", args=(50,), capacity=4)
        assert list(pipe.iterate()) == list(range(50))

    def test_take_surface(self, server):
        pipe = RemotePipe(server.address, "counter", args=(2,))
        assert pipe.take() == 0
        assert pipe.take() == 1
        assert pipe.take() is FAIL

    def test_factory_error_propagates_after_data(self, server):
        pipe = RemotePipe(server.address, "crasher", args=(5,))
        seen = []
        with pytest.raises(ValueError, match="factory crashed"):
            for value in range(10):
                item = pipe.take()
                if item is FAIL:
                    break
                seen.append(item)
        assert seen == list(range(5))

    def test_unknown_factory_is_a_pipe_error(self, server):
        pipe = RemotePipe(server.address, "no-such-factory")
        with pytest.raises(PipeError, match="no factory"):
            pipe.take()

    def test_unreachable_server_raises_connection_lost(self):
        dead = GeneratorServer().start()
        address = dead.address
        dead.shutdown()
        pipe = RemotePipe(address, "counter", args=(3,))
        with pytest.raises(PipeConnectionLost):
            pipe.take()

    def test_failed_dial_leaves_pipe_retryable(self):
        # The stuck-_started regression: after a failed connect, the
        # next take must retry the dial (and raise again), not block
        # forever on a channel nothing will ever feed.
        dead = GeneratorServer().start()
        address = dead.address
        dead.shutdown()
        pipe = RemotePipe(address, "counter", args=(3,))
        with pytest.raises(PipeConnectionLost):
            pipe.take()
        with pytest.raises(PipeConnectionLost):
            pipe.take()

    def test_register_rejects_non_callable(self, server):
        with pytest.raises(TypeError):
            server.register("bad", 42)

    def test_concurrent_clients(self, server):
        pipes = [
            RemotePipe(server.address, "counter", args=(40,)).start()
            for _ in range(6)
        ]
        results = [list(p.iterate()) for p in pipes]
        assert results == [list(range(40))] * 6
        assert server.stats["served"] == 6


class TestSpawnPolicy:
    def test_spawn_rejected_when_disabled(self):
        from repro.coexpr.patterns import source_pipe

        with GeneratorServer(allow_spawn=False) as srv:
            pipe = source_pipe(
                range(5), backend="remote", remote_address=srv.address
            ).start()
            assert pipe.degraded is None
            with pytest.raises(PipeError, match="allow_spawn"):
                list(pipe.iterate())

    def test_named_factories_still_served_when_spawn_disabled(self):
        with GeneratorServer(allow_spawn=False) as srv:
            srv.register("counter", counter)
            pipe = RemotePipe(srv.address, "counter", args=(7,))
            assert list(pipe.iterate()) == list(range(7))

    def test_non_primitive_args_refused_when_spawn_disabled(self):
        # Without allow_spawn the server decodes frames with the
        # restricted unpickler: an args payload that needs a global
        # lookup never unpickles, and the session dies before the
        # hostile bytes run anything.
        with GeneratorServer(allow_spawn=False) as srv:
            srv.register("counter", counter)
            pipe = RemotePipe(srv.address, "counter", args=(Opaque(),))
            with pytest.raises(PipeConnectionLost):
                pipe.take()

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_non_loopback_bind_warns(self, server_cls):
        srv = server_cls(host="0.0.0.0")
        try:
            with pytest.warns(RuntimeWarning, match="non-loopback") as record:
                srv.start()
        finally:
            srv.shutdown()
        assert server_cls.__name__ in str(record[0].message)
        assert record[0].filename == __file__  # points at the caller

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_loopback_bind_does_not_warn(self, server_cls, recwarn):
        with server_cls():
            pass
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]


class TestShutdownAndChaos:
    def test_graceful_shutdown_closes_open_streams(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        assert pipe.take() == 1
        # wait=False: the drain below is this same thread, so a blocking
        # shutdown would wait on its own consumer.
        server.shutdown(wait=False)
        # The stream ends cleanly: in-flight values delivered, then close.
        while True:
            item = pipe.take(timeout=5.0)
            if item is FAIL:
                break
        deadline = time.monotonic() + 5.0
        while server.stats["active"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_kill_sessions_surfaces_connection_lost(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        deadline = time.monotonic() + 5.0
        while not server.active_sessions():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert server.kill_sessions() == 1
        with pytest.raises(PipeConnectionLost):
            while pipe.take(timeout=5.0) is not FAIL:
                pass

    def test_kill_wakes_a_sender_blocked_on_a_wedged_client(self):
        # A client that stops reading leaves the sender blocked in
        # sendall once the socket buffers fill.  kill() must wake it
        # (a shutdown does; closing the descriptor from another thread
        # does not) and release the session's threads.
        with GeneratorServer() as srv:
            srv.register("blobs", blobs)
            sock = socket.create_connection(srv.address)
            try:
                framer = SocketFramer(sock)
                framer.send((WIRE_CALL, {"name": "blobs"}))
                framer.send((WIRE_CREDIT, None))
                deadline = time.monotonic() + 5.0
                while not srv.active_sessions():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                session = srv.active_sessions()[0]
                time.sleep(0.5)  # the never-read buffers fill up
                assert srv.kill_sessions() == 1
                assert session.join(2.0)
            finally:
                sock.close()

    def test_sessions_tracked_by_scheduler(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        scheduler = default_scheduler()
        # Both sides of the loopback connection are registered: the
        # server session and the client pump worker.
        assert scheduler.tracked_sessions >= 2
        pipe.cancel(join=True, timeout=5.0)

    def test_scheduler_shutdown_reaps_sessions(self):
        scheduler = PipeScheduler()
        srv = GeneratorServer(scheduler=scheduler)
        srv.register("ticker", ticker)
        srv.start()
        pipe = RemotePipe(
            srv.address, "ticker", capacity=2, scheduler=scheduler
        )
        assert pipe.take() == 0
        scheduler.shutdown(timeout=5.0)
        assert scheduler.leaked() == []
        srv.shutdown(wait=False)


class TestReaderLiveness:
    def test_mid_frame_stall_kills_session(self):
        # A client that sends a partial frame and goes silent must not
        # pin the session (two scheduler threads + a socket) forever:
        # the reader kills it after _STALL_INTERVALS heartbeat
        # intervals of no frame progress.
        srv = GeneratorServer(heartbeat_interval=0.05)
        srv.register("counter", counter)
        with srv:
            sock = socket.create_connection(srv.address)
            try:
                framer = SocketFramer(sock)
                framer.send((WIRE_CALL, {"name": "counter", "args": (3,)}))
                framer.send((WIRE_CREDIT, None))
                deadline = time.monotonic() + 5.0
                while not srv.stats["served"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Half a frame, then silence.
                sock.sendall(_HEADER.pack(100) + b"stalled")
                deadline = time.monotonic() + 5.0
                while srv.stats["active"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            finally:
                sock.close()


class TestSignalHandlers:
    def test_handler_sets_event_instead_of_blocking(self):
        # The handler must only set the returned event — a blocking
        # shutdown inside a signal handler can deadlock or re-enter —
        # so the server is still alive right after delivery and the
        # caller runs the real shutdown.
        srv = GeneratorServer().start()
        old_term = signal.getsignal(signal.SIGTERM)
        old_int = signal.getsignal(signal.SIGINT)
        try:
            stop = srv.install_signal_handlers()
            assert not stop.is_set()
            signal.raise_signal(signal.SIGTERM)
            assert stop.wait(1.0)
            assert srv.is_alive()
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
            srv.shutdown()


class TestMonitorEvents:
    def test_session_and_connect_events(self, server):
        tracer = Tracer()
        with tracer.lifecycle():
            pipe = RemotePipe(server.address, "counter", args=(5,))
            assert list(pipe.iterate()) == list(range(5))
        kinds = [e.kind for e in tracer.events]
        assert EventKind.NET_CONNECT in kinds
        assert EventKind.NET_SESSION in kinds
        stats = tracer.net_stats()
        # The client node carries the dialed address; the server node is
        # the bare factory name.
        host, port = server.address
        client = stats[f"pipe:counter@{host}:{port}"]
        assert client["connects"] == 1
        assert client["losses"] == 0
        assert client["addresses"] == [server.address]
        assert stats["pipe:counter"]["sessions"] == 1


class TestCli:
    def test_serve_round_trip_and_sigterm(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.cli", "--serve",
             "range=builtins:range", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            host, port = line.removeprefix("listening on ").rsplit(":", 1)
            pipe = RemotePipe((host, int(port)), "range", args=(8,))
            assert list(pipe.iterate()) == list(range(8))
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0
            assert "shutdown complete" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_bad_serve_spec_exits_with_error(self):
        from repro.net.cli import main

        with pytest.raises(SystemExit, match="bad --serve spec"):
            main(["--serve", "nonsense"])
