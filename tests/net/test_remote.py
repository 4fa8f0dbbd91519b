"""``backend="remote"`` end to end: transparency, degradation, recovery.

The acceptance scenario lives here: a three-stage remote pipeline under
supervision survives a mid-stream server-side session kill by
reconnecting and replaying — yielding exactly the sequence the thread
backend yields — with the loss visible in ``Tracer.net_stats()`` and no
leaked workers or sessions afterwards.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe, stage
from repro.coexpr.pipe import Pipe
from repro.coexpr.scheduler import default_scheduler
from repro.coexpr.supervision import (
    NO_BACKOFF,
    supervise,
    supervised_pipeline,
    supervised_stage,
)
from repro.errors import PipeConnectionLost, RetryExhaustedError
from repro.monitor import EventKind, Tracer
from repro.net import AsyncGeneratorServer, GeneratorServer, RemotePipe
from repro.net.client import remote_unsafe_reason


# Stage functions must be module-level: a remote body crosses the wire
# by pickle, which serializes functions by qualified name.

def double(x):
    return 2 * x


def negate(x):
    return -x


def increment(x):
    return x + 1


def fan_out(x):
    yield x
    yield x + 100


def slow_increment(x):
    time.sleep(0.005)
    return x + 1


def jitter_increment(x):
    time.sleep(0.001 * (x % 5))
    return x + 1


def crash_on_seven(x):
    if x == 7:
        raise ValueError("x was seven")
    return x


def one_then_sleep():
    yield 0
    time.sleep(1.0)


def one_then_naps():
    # The same second of silence, in 20 ms activations (each yields a
    # result): an event-loop session gets its loop back between them.
    yield 0
    for i in range(1, 50):
        time.sleep(0.02)
        yield i


@pytest.fixture
def server():
    with GeneratorServer() as srv:
        yield srv


class TestTransparency:
    """Remote pipes yield exactly what the thread backend yields."""

    def test_source_pipe_streams(self, server):
        pipe = source_pipe(
            range(30), backend="remote", remote_address=server.address
        ).start()
        assert pipe.degraded is None
        assert list(pipe.iterate()) == list(range(30))

    def test_stage_matches_thread_backend(self, server):
        local = list(stage(double, source_pipe(range(25))).start().iterate())
        remote = list(
            stage(
                double,
                range(25),
                backend="remote",
                remote_address=server.address,
            )
            .start()
            .iterate()
        )
        assert remote == local == [2 * x for x in range(25)]

    def test_three_stage_pipeline_matches_thread(self, server):
        stages = (increment, double, negate)
        local = list(pipeline(range(40), *stages).iterate())
        piped = pipeline(
            range(40),
            *stages,
            backend="remote",
            remote_address=server.address,
        )
        assert list(piped.iterate()) == local
        assert piped.degraded is None

    def test_generator_stage_fan_out(self, server):
        local = list(pipeline(range(10), fan_out).iterate())
        remote = list(
            pipeline(
                range(10),
                fan_out,
                backend="remote",
                remote_address=server.address,
            ).iterate()
        )
        assert remote == local

    def test_batched_remote_stream(self, server):
        pipe = source_pipe(
            range(200),
            backend="remote",
            remote_address=server.address,
            batch=16,
        ).start()
        assert list(pipe.iterate()) == list(range(200))

    def test_linger_flush_preserves_order(self, server):
        # The flush-reorder regression: with a jittery producer, a small
        # max_linger, and a fast heartbeat, the session's reader-side
        # linger flush races the sender's batch flush over and over —
        # the stream must still arrive in production order.
        pipe = pipeline(
            range(60),
            jitter_increment,
            backend="remote",
            remote_address=server.address,
            batch=4,
            max_linger=0.01,
            heartbeat_interval=0.02,
        )
        assert list(pipe.iterate()) == [x + 1 for x in range(60)]
        assert pipe.degraded is None

    def test_error_cause_chain_crosses_the_wire(self, server):
        pipe = pipeline(
            range(20),
            crash_on_seven,
            backend="remote",
            remote_address=server.address,
        )
        seen = []
        with pytest.raises(ValueError, match="x was seven") as excinfo:
            for value in pipe.iterate():
                seen.append(value)
        # Data produced before the crash is drained first.
        assert seen == list(range(7))
        assert excinfo.value.remote_traceback

    def test_validation(self):
        coexpr_pipe = source_pipe(range(3), backend="remote",
                                  remote_address=("127.0.0.1", 1))
        assert coexpr_pipe.remote_address == ("127.0.0.1", 1)
        with pytest.raises(ValueError, match="remote_address"):
            Pipe(coexpr_pipe.coexpr, backend="remote")
        with pytest.raises(ValueError, match="backend"):
            Pipe(coexpr_pipe.coexpr, backend="carrier-pigeon")


class TestDegradation:
    """Bodies that cannot cross the wire fall back to threads."""

    def test_unpicklable_body_degrades(self, server):
        secret = object()
        pipe = stage(
            lambda x: (x, id(secret)),
            range(3),
            backend="remote",
            remote_address=server.address,
        ).start()
        assert pipe.degraded is not None
        assert "picklable" in pipe.degraded
        assert [v for v, _ in pipe.iterate()] == [0, 1, 2]

    def test_unreachable_server_degrades(self):
        gone = GeneratorServer().start()
        address = gone.address
        gone.shutdown()
        pipe = source_pipe(
            range(5), backend="remote", remote_address=address
        ).start()
        assert pipe.degraded is not None
        assert "connect" in pipe.degraded
        assert list(pipe.iterate()) == list(range(5))

    def test_degraded_event_emitted(self):
        tracer = Tracer()
        with tracer.lifecycle():
            pipe = stage(
                lambda x: x,
                range(3),
                backend="remote",
                remote_address=("127.0.0.1", 1),
            ).start()
            list(pipe.iterate())
        assert EventKind.DEGRADED in [e.kind for e in tracer.events]

    def test_remote_unsafe_reason_accepts_module_level_bodies(self, server):
        good = source_pipe(
            range(3), backend="remote", remote_address=server.address
        )
        assert remote_unsafe_reason(good) is None


class TestDataParallel:
    def test_map_reduce_matches_thread(self, server):
        import operator

        data = list(range(500))
        dp_remote = DataParallel(
            chunk_size=100, backend="remote", remote_address=server.address
        )
        dp_thread = DataParallel(chunk_size=100)
        expected = list(dp_thread.map_reduce(double, data, operator.add, 0))
        folds = list(dp_remote.map_reduce(double, data, operator.add, 0))
        assert folds == expected
        assert sum(folds) == 2 * sum(data)
        assert server.stats["served"] == 5  # one session per chunk task

    def test_map_flat_matches_thread(self, server):
        data = list(range(120))
        dp_remote = DataParallel(
            chunk_size=30, backend="remote", remote_address=server.address
        )
        expected = list(DataParallel(chunk_size=30).map_flat(double, data))
        assert list(dp_remote.map_flat(double, data)) == expected


class TestWatchdog:
    def test_silent_server_surfaces_connection_lost(self):
        # A fake server that accepts and then never speaks: the client
        # watchdog must fire instead of hanging.
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        accepted = []

        def quiet_accept():
            sock, _ = listener.accept()
            accepted.append(sock)

        thread = threading.Thread(target=quiet_accept, daemon=True)
        thread.start()
        try:
            pipe = source_pipe(
                range(5),
                backend="remote",
                remote_address=listener.getsockname(),
                heartbeat_interval=0.05,
                heartbeat_timeout=0.3,
            ).start()
            assert pipe.degraded is None
            with pytest.raises(PipeConnectionLost, match="no heartbeat"):
                list(pipe.iterate())
        finally:
            thread.join(5.0)
            for sock in accepted:
                sock.close()
            listener.close()

    def test_kill_mid_stream_is_retryable_loss(self, server):
        pipe = source_pipe(
            range(1000),
            backend="remote",
            remote_address=server.address,
            capacity=2,
        ).start()
        it = pipe.iterate()
        assert next(it) == 0
        server.kill_sessions()
        with pytest.raises(PipeConnectionLost) as excinfo:
            list(it)
        assert excinfo.value.address == server.address


class TestReaderLingerTick:
    """A partial batch leaves the server within its linger bound while
    the body is busy: only the session reader's tick can flush it (the
    sender is inside the body, and 64 results never fill the batch)."""

    @pytest.mark.parametrize(
        "server_cls, body, results",
        [
            (GeneratorServer, one_then_sleep, 1),
            (GeneratorServer, one_then_naps, 50),
            # One blocking activation holds an event-loop server's loop,
            # reader included, for its whole length (see _YIELD_SLICE);
            # that substrate's tick runs between activations.
            (AsyncGeneratorServer, one_then_naps, 50),
        ],
    )
    def test_first_result_arrives_within_the_linger_bound(
        self, server_cls, body, results
    ):
        with server_cls() as srv:
            pipe = Pipe(
                CoExpression(body),
                batch=64,
                max_linger=0.05,
                backend="remote",
                remote_address=srv.address,
            )
            started = time.monotonic()
            assert pipe.take() == 0
            assert time.monotonic() - started < 0.5
            assert pipe.degraded is None
            assert list(pipe.iterate()) == list(range(1, results))


class TestLingerUnderSlowHeartbeat:
    """The reader honours ``max_linger`` at its own bound: it wakes when
    a partial batch comes due, not only at the next heartbeat."""

    @pytest.mark.parametrize("server_cls", [GeneratorServer, AsyncGeneratorServer])
    def test_first_result_arrives_within_the_linger_bound(self, server_cls):
        with server_cls() as srv:
            pipe = Pipe(
                CoExpression(one_then_naps),
                batch=64,
                max_linger=0.05,
                heartbeat_interval=0.5,
                backend="remote",
                remote_address=srv.address,
            )
            started = time.monotonic()
            assert pipe.take() == 0
            assert time.monotonic() - started < 0.3
            assert pipe.degraded is None
            assert list(pipe.iterate()) == list(range(1, 50))

    @pytest.mark.parametrize("server_cls", [GeneratorServer, AsyncGeneratorServer])
    def test_zero_linger_idle_session_does_not_spin(self, server_cls):
        # After result 0 the body sleeps 1 s with the batch empty: the
        # reader wakes once per tick, but never spins on max_linger=0.
        with server_cls() as srv:
            pipe = Pipe(
                CoExpression(one_then_sleep),
                batch=64,
                max_linger=0,
                backend="remote",
                remote_address=srv.address,
            )
            assert pipe.take() == 0
            before = process_cpu()
            time.sleep(0.5)
            used = process_cpu() - before
            assert list(pipe.iterate()) == []
        assert used < 0.1


def process_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TestBackpressure:
    def test_credit_bounds_server_runahead(self, server):
        # A bounded client channel with a slow consumer: credit-based
        # flow control must keep the server from racing ahead by more
        # than ~two windows (channel + one replenished slice in flight).
        pipe = source_pipe(
            range(10_000),
            backend="remote",
            remote_address=server.address,
            capacity=4,
        ).start()
        it = pipe.iterate()
        for expected in range(5):
            assert next(it) == expected
            time.sleep(0.02)
            assert len(pipe.out) <= 8
        pipe.cancel(join=True, timeout=5.0)


class TestSupervisedRecovery:
    def test_supervise_reconnects_and_replays(self, server):
        piped = supervise(
            source_pipe(range(60)).coexpr,
            backend="remote",
            remote_address=server.address,
            capacity=2,
            backoff=NO_BACKOFF,
            max_retries=5,
        )
        it = piped.iterate()
        head = [next(it) for _ in range(3)]
        server.kill_sessions()
        assert head + list(it) == list(range(60))
        assert piped.failures >= 1

    def test_acceptance_three_stage_kill_recovery(self, server):
        """The PR acceptance scenario, end to end."""
        stages = (slow_increment, double, negate)
        expected = list(pipeline(range(50), *stages).iterate())

        tracer = Tracer()
        with tracer.lifecycle():
            piped = supervised_pipeline(
                range(50),
                *stages,
                backend="remote",
                remote_address=server.address,
                capacity=4,
                backoff=NO_BACKOFF,
                max_retries=5,
            )
            it = piped.iterate()
            received = [next(it) for _ in range(10)]
            server.kill_sessions()
            received += list(it)

        assert received == expected
        assert piped.failures >= 1

        stats = tracer.net_stats()["pipe:pipeline[3]"]
        assert stats["connects"] >= 2      # original dial + reconnect
        assert stats["sessions"] >= 2      # both server-side sessions
        assert stats["losses"] >= 1
        assert all(server.address == a for a in stats["addresses"])

        # Nothing survives: no worker threads, no sessions, no sockets.
        server.shutdown(wait=True)
        leaked = default_scheduler().leaked(join_timeout=2.0)
        assert leaked == []

    def test_retry_budget_exhausts_on_repeated_kills(self, server):
        piped = supervise(
            source_pipe(range(10_000)).coexpr,
            backend="remote",
            remote_address=server.address,
            capacity=1,
            backoff=NO_BACKOFF,
            max_retries=1,
        )
        it = piped.iterate()
        assert next(it) == 0
        from repro.errors import RetryExhaustedError

        with pytest.raises(RetryExhaustedError):
            while True:
                server.kill_sessions()
                next(it)


def count_to(n):
    return iter(range(n))


class TestRemotePipeIsAPipe:
    """A RemotePipe feeding a stage obeys the stage's degrade rules."""

    def test_process_stage_over_remote_pipe_degrades(self, server):
        # The forked child would inherit the started session's buffered
        # items and nothing after them: the stage must run in the parent.
        server.register("count", count_to)
        upstream = RemotePipe(server.address, "count", args=(49,), capacity=2).start()
        piped = stage(increment, upstream, backend="process", take_timeout=3).start()
        assert piped.degraded is not None
        assert list(piped.iterate()) == [x + 1 for x in range(49)]

    def test_async_stage_over_remote_pipe_degrades(self, server):
        # A RemotePipe's take blocks: on the shared loop it would stall
        # every other task.
        server.register("count", count_to)
        upstream = RemotePipe(server.address, "count", args=(20,))
        piped = stage(increment, upstream, backend="async", take_timeout=3).start()
        assert "starve the loop" in piped.degraded
        assert list(piped.iterate()) == [x + 1 for x in range(20)]

    def test_supervised_stage_cancels_remote_upstream_when_it_gives_up(self, server):
        server.register("count", count_to)
        upstream = RemotePipe(server.address, "count", args=(1000,), capacity=2)
        mid = supervised_stage(
            crash_on_seven, upstream, max_retries=0, backoff=NO_BACKOFF
        )
        assert mid.upstream is upstream
        with pytest.raises(RetryExhaustedError):
            list(mid.iterate())
        assert upstream.cancelled
        mid.cancel(join=True, timeout=2.0)
