"""The event-loop server: one loop, many sessions, same wire contract.

:class:`AsyncGeneratorServer` speaks the exact protocol of the threaded
:class:`GeneratorServer` — every test here drives it with the
*unmodified* sync client stack (RemotePipe, source_pipe
``backend="remote"``, ServerPool, HealthProber), so passing means
nothing on the wire reveals which substrate answered.  On top of the
parity suite this file pins the eager-drain rule: a health probe's
death verdict wakes the in-flight watchdogs *now*, so failover latency
is bounded by a poll slice, not a heartbeat timeout.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.coexpr.patterns import source_pipe
from repro.coexpr.scheduler import PipeScheduler, default_scheduler
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.coexpr.wire import (
    _HEADER,
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CREDIT,
    WIRE_DATA,
    SocketFramer,
)
from repro.errors import (
    PipeConnectionLost,
    PipeError,
    PipeServerBusy,
)
from repro.monitor import EventKind, Tracer
from repro.net import (
    AsyncGeneratorServer,
    GeneratorServer,
    RemotePipe,
    ServerPool,
    probe_address,
)
from repro.runtime.failure import FAIL


def counter(n):
    return iter(range(n))


def ticker(delay=0.02):
    i = 0
    while True:
        yield i
        i += 1
        time.sleep(delay)


def crasher(n):
    yield from range(n)
    raise ValueError("factory crashed")


#: Activations completed by the running :func:`spinner` body.
PROGRESS = {"spun": 0}


def spinner(n, spin):
    """Each activation burns *spin* seconds of CPU without sleeping, so
    the loop only runs other tasks when the sender yields it."""
    for i in range(n):
        stop = time.perf_counter() + spin
        while time.perf_counter() < stop:
            pass
        PROGRESS["spun"] = i + 1
        yield i


def endless():
    return itertools.count()


@pytest.fixture
def server():
    srv = AsyncGeneratorServer()
    srv.register("counter", counter)
    srv.register("ticker", ticker)
    srv.register("crasher", crasher)
    with srv:
        yield srv


def wait_active(server, count, timeout=5.0):
    limit = time.monotonic() + timeout
    while server.stats["active"] != count and time.monotonic() < limit:
        time.sleep(0.01)
    return server.stats["active"]


class TestLifecycle:
    def test_ephemeral_port_resolved_on_start(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port != 0

    def test_start_is_idempotent(self, server):
        assert server.start() is server

    def test_start_after_shutdown_rejected(self):
        srv = AsyncGeneratorServer().start()
        srv.shutdown()
        with pytest.raises(PipeError, match="shut-down"):
            srv.start()

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()

    def test_repr_names_the_substrate(self, server):
        assert "AsyncGeneratorServer" in repr(server)


class TestSyncClientInterop:
    """The unmodified sync client, end to end over loopback TCP."""

    def test_remote_pipe_drains_factory(self, server):
        pipe = RemotePipe(server.address, "counter", args=(10,))
        assert list(pipe.iterate()) == list(range(10))

    def test_batched_stream_preserves_order(self, server):
        pipe = RemotePipe(server.address, "counter", args=(100,), batch=8)
        assert list(pipe.iterate()) == list(range(100))

    def test_bounded_channel_stream(self, server):
        # capacity=4 keeps the client replenishing small credit windows:
        # the loop-side sender must park on credit, not drop or reorder.
        pipe = RemotePipe(server.address, "counter", args=(50,), capacity=4)
        assert list(pipe.iterate()) == list(range(50))

    def test_take_surface(self, server):
        pipe = RemotePipe(server.address, "counter", args=(2,))
        assert pipe.take() == 0
        assert pipe.take() == 1
        assert pipe.take() is FAIL

    def test_spawned_body_streams(self, server):
        piped = source_pipe(
            range(12), backend="remote", remote_address=server.address
        ).start()
        assert piped.degraded is None
        assert list(piped.iterate()) == list(range(12))

    def test_factory_error_propagates_after_data(self, server):
        pipe = RemotePipe(server.address, "crasher", args=(5,))
        seen = []
        with pytest.raises(ValueError, match="factory crashed"):
            while True:
                item = pipe.take()
                if item is FAIL:
                    break
                seen.append(item)
        assert seen == list(range(5))

    def test_unknown_factory_is_a_pipe_error(self, server):
        pipe = RemotePipe(server.address, "no-such-factory")
        with pytest.raises(PipeError, match="no factory"):
            pipe.take()

    def test_many_concurrent_sessions_on_one_loop(self, server):
        # The tentpole claim in miniature: one loop thread multiplexes
        # every session; no per-session threads appear server-side.
        pipes = [
            RemotePipe(server.address, "counter", args=(40,)).start()
            for _ in range(20)
        ]
        results = [list(p.iterate()) for p in pipes]
        assert results == [list(range(40))] * 20
        assert server.stats["served"] == 20

    def test_spawn_rejected_when_disabled(self):
        with AsyncGeneratorServer(allow_spawn=False) as srv:
            piped = source_pipe(
                range(5), backend="remote", remote_address=srv.address
            ).start()
            assert piped.degraded is None
            with pytest.raises(PipeError, match="allow_spawn"):
                list(piped.iterate())

    def test_named_factories_still_served_when_spawn_disabled(self):
        with AsyncGeneratorServer(allow_spawn=False) as srv:
            srv.register("counter", counter)
            pipe = RemotePipe(srv.address, "counter", args=(7,))
            assert list(pipe.iterate()) == list(range(7))


class TestControlSessions:
    """PING/PONG and PEERS answered by the loop: membership tooling
    works against either substrate without knowing which it probed."""

    def test_probe_address_succeeds(self, server):
        assert probe_address(server.address)

    def test_probe_does_not_disturb_a_serving_session(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        assert probe_address(server.address)
        assert pipe.take() == 1
        pipe.cancel(join=True, timeout=5.0)

    def test_gossip_exchange_is_push_pull(self, server):
        with AsyncGeneratorServer(name="peer") as other:
            other.add_peer(("10.0.0.9", 4000), weight=3.0)
            merged = other.announce([server.address])
            assert merged >= 1
            peers = [tuple(entry[:2]) for entry in server.known_peers()]
            assert ("10.0.0.9", 4000) in peers
            assert other.address[:2] in peers

    def test_mixed_fleet_gossip(self, server):
        # Threaded and event-loop replicas in one fleet: gossip crosses
        # the substrate boundary both ways.
        with GeneratorServer(name="legacy") as legacy:
            legacy.announce([server.address])
            peers = [tuple(entry[:2]) for entry in server.known_peers()]
            assert legacy.address[:2] in peers


class TestOverload:
    def test_over_capacity_dial_is_shed_with_retry_hint(self):
        with AsyncGeneratorServer(max_sessions=1, retry_after=0.25) as server:
            blocker = source_pipe(
                range(100_000),
                backend="remote",
                remote_address=server.address,
                capacity=1,
            ).start()
            assert blocker.take() == 0  # session established loop-side
            tracer = Tracer()
            with tracer.lifecycle():
                shed = source_pipe(
                    range(10), backend="remote", remote_address=server.address
                ).start()
                with pytest.raises(PipeServerBusy) as excinfo:
                    shed.take()
            assert excinfo.value.retry_after == 0.25
            assert excinfo.value.address == server.address
            assert server.stats["shed"] == 1
            assert server.stats["active"] == 1  # the blocker kept its slot
            events = tracer.summary()[f"server:{server.name}"]
            assert len(events[EventKind.SHED]) == 1
            blocker.cancel(join=True, timeout=5.0)

    def test_greedy_quota_serves_unbounded_clients(self):
        with AsyncGeneratorServer(max_credit=4) as server:
            piped = source_pipe(
                range(100), backend="remote", remote_address=server.address
            ).start()
            assert list(piped.iterate()) == list(range(100))


class TestShutdownAndChaos:
    def test_graceful_shutdown_closes_open_streams(self, server):
        pipe = RemotePipe(server.address, "ticker", capacity=2)
        assert pipe.take() == 0
        assert pipe.take() == 1
        server.shutdown(wait=False)
        # The stream ends cleanly: in-flight values delivered, then close.
        while True:
            item = pipe.take(timeout=5.0)
            if item is FAIL:
                break
        assert wait_active(server, 0) == 0

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

    def test_server_tracked_by_scheduler(self, server):
        # The loop thread is ONE scheduler session however many streams
        # it serves — plus one pump per client.
        pipes = [
            RemotePipe(server.address, "ticker", capacity=2).start()
            for _ in range(3)
        ]
        for pipe in pipes:
            assert pipe.take() == 0
        assert default_scheduler().tracked_sessions >= 4
        for pipe in pipes:
            pipe.cancel(join=True, timeout=5.0)

    def test_scheduler_shutdown_reaps_loop_and_sessions(self):
        scheduler = PipeScheduler()
        srv = AsyncGeneratorServer(scheduler=scheduler)
        srv.register("ticker", ticker)
        srv.start()
        pipe = RemotePipe(
            srv.address, "ticker", capacity=2, scheduler=scheduler
        )
        assert pipe.take() == 0
        scheduler.shutdown(timeout=5.0)
        assert scheduler.leaked() == []
        srv.shutdown(wait=False)

    def test_mid_frame_stall_kills_session(self):
        srv = AsyncGeneratorServer(heartbeat_interval=0.05)
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
                # Half a frame, then silence: the resumable reader must
                # notice the stalled mid-frame read and kill the session.
                sock.sendall(_HEADER.pack(100) + b"stalled")
                deadline = time.monotonic() + 5.0
                while srv.stats["active"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            finally:
                sock.close()

    def test_exactly_once_replay_after_kill(self, server):
        # Abrupt session death mid-stream: supervision reconnects to the
        # same loop and the replay skips the delivered prefix.
        piped = supervise(
            source_pipe(range(60)).coexpr,
            backend="remote",
            remote_address=server.address,
            capacity=2,
            backoff=NO_BACKOFF,
            max_retries=5,
        )
        it = piped.iterate()
        head = [next(it) for _ in range(5)]
        server.kill_sessions()
        assert head + list(it) == list(range(60))
        assert piped.failures >= 1


class TestMonitorEvents:
    def test_session_events_carry_both_kinds(self, server):
        tracer = Tracer()
        with tracer.lifecycle():
            pipe = RemotePipe(server.address, "counter", args=(5,))
            assert list(pipe.iterate()) == list(range(5))
        kinds = [e.kind for e in tracer.events]
        assert EventKind.NET_CONNECT in kinds
        assert EventKind.NET_SESSION in kinds  # substrate-blind accounting
        assert EventKind.ASYNC_SESSION in kinds  # substrate-aware detail
        events = tracer.summary()["pipe:counter"]
        assert len(events[EventKind.NET_SESSION]) == 1


class TestTimeSlice:
    """The sender yields the loop per millisecond of activations: slow
    activations still yield after every item, fast ones are batched."""

    def test_slow_activations_keep_beats_and_sessions_flowing(self, server):
        # A 64-item batch takes ~640 ms, longer than the client's 0.5 s
        # watchdog: only beats sent between activations keep it alive.
        server.register("spinner", spinner)
        PROGRESS["spun"] = 0
        total = 128
        slow = RemotePipe(
            server.address,
            "spinner",
            args=(total, 0.01),
            batch=64,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
        ).start()
        limit = time.monotonic() + 5.0
        while PROGRESS["spun"] == 0 and time.monotonic() < limit:
            time.sleep(0.005)
        fast = RemotePipe(server.address, "counter", args=(200,))
        assert list(fast.iterate()) == list(range(200))
        assert PROGRESS["spun"] < total  # finished while slow was mid-stream
        assert list(slow.iterate()) == list(range(total))

    def test_cancel_stops_an_endless_fast_body_within_a_heartbeat(
        self, server
    ):
        # Unlimited credit and a client that keeps reading with the
        # socket open: the sender never parks on credit or a full
        # socket, so WIRE_CANCEL only reaches the session's reader
        # through the time-sliced yield.
        server.register("endless", endless)
        sock = socket.create_connection(server.address)
        framer = SocketFramer(sock)
        framer.send(
            (WIRE_CALL, {"name": "endless", "heartbeat_interval": 0.5})
        )
        framer.send((WIRE_CREDIT, None))
        assert framer.recv() == (WIRE_DATA, [0])
        assert wait_active(server, 1) == 1
        stop = threading.Event()

        def keep_reading():
            sock.settimeout(0.05)
            while not stop.is_set():
                try:
                    framer.recv()
                except (socket.timeout, TimeoutError):
                    continue
                except (EOFError, OSError):
                    return

        reader = threading.Thread(target=keep_reading, daemon=True)
        reader.start()
        try:
            started = time.monotonic()
            framer.send((WIRE_CANCEL,))
            assert wait_active(server, 0) == 0
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            reader.join(5.0)
            framer.close()
        assert not reader.is_alive()
        assert elapsed < 0.5, f"cancel took {elapsed:.2f}s"


class TestEagerDrain:
    """Satellite: a probe's MEMBER_DOWN verdict wakes in-flight
    watchdogs immediately — failover starts well inside one heartbeat."""

    def test_probe_verdict_wakes_the_watchdog(self, server):
        with AsyncGeneratorServer() as backup:
            pool = ServerPool([server.address, backup.address])
            # A huge heartbeat budget: without the eager drain, the pump
            # would sit on this stream for ~30s before noticing anything.
            pipe = RemotePipe(
                server.address, "ticker", capacity=1, heartbeat_interval=3.0
            )
            assert pipe.take() == 0
            started = time.monotonic()
            assert pool.mark_down(server.address, "probe missed 3 pings")
            with pytest.raises(PipeConnectionLost, match="marked down"):
                while pipe.take(timeout=5.0) is not FAIL:
                    pass
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"drain took {elapsed:.2f}s"

    def test_failover_latency_under_one_heartbeat(self):
        # The replica stays ALIVE but the prober declares it down: only
        # the eager drain makes the stream leave it at all.  The whole
        # failover — loss, redial, exactly-once replay — must complete
        # in a fraction of the 20s heartbeat budget.
        with AsyncGeneratorServer() as victim, AsyncGeneratorServer() as backup:
            pool = ServerPool([victim.address, backup.address])
            piped = supervise(
                source_pipe(range(5000)).coexpr,
                backend="remote",
                remote_address=pool,
                capacity=2,
                backoff=NO_BACKOFF,
                max_retries=3,
                heartbeat_interval=2.0,
            )
            it = piped.iterate()
            head = [next(it) for _ in range(5)]
            primary = pool.last_address("source")
            verdict = time.monotonic()
            assert pool.mark_down(primary, "probe missed 3 pings")
            tail = list(it)
            elapsed = time.monotonic() - verdict
            assert head + tail == list(range(5000))  # exactly-once
            assert piped.failures == 1
            assert pool.stats()["failovers"] == 1
            assert pool.last_address("source") != primary
            assert elapsed < 2.0, f"failover took {elapsed:.2f}s"


class TestCli:
    def test_async_serve_round_trip_and_sigterm(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.cli", "--async", "--serve",
             "range=builtins:range", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on ")
            host, port = line.removeprefix("listening on ").rsplit(":", 1)
            address = (host, int(port))
            assert probe_address(address)
            pipe = RemotePipe(address, "range", args=(8,))
            assert list(pipe.iterate()) == list(range(8))
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0
            assert "shutdown complete" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
