"""Admission control, load shedding, and the client circuit breaker.

The overload contract: a :class:`GeneratorServer` at ``max_sessions``
answers a new dial with ``WIRE_BUSY(retry_after)`` and closes — it
*sheds* instead of hanging the client.  The client surfaces
:class:`~repro.errors.PipeServerBusy` (retryable), consecutive
busy/lost outcomes trip the per-address :class:`CircuitBreaker`, and
while the breaker is open ``backend="remote"`` degrades to the thread
tier without dropping or reordering anything already delivered.  Quota
knobs (``max_credit``, ``max_batch``) bound what one session can buffer
without changing the stream the client observes.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

import pytest

from repro.coexpr.patterns import source_pipe
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.coexpr.wire import (
    _HEADER,
    WIRE_BEAT,
    WIRE_CALL,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_ERROR,
    WIRE_QUOTA,
    SocketFramer,
    decode_error,
)
from repro.errors import PipeConnectionLost, PipeError, PipeServerBusy
from repro.monitor import EventKind, Tracer
from repro.net import (
    AsyncGeneratorServer,
    CircuitBreaker,
    GeneratorServer,
    RemotePipe,
    breaker_for,
)
from repro.net.client import _BREAKER_THRESHOLD

SERVERS = [GeneratorServer, AsyncGeneratorServer]
SERVER_IDS = ["thread", "async"]


def occupy(server, n=100_000):
    """A live session pinning one capacity slot (capacity=1 keeps the
    server's sender credit-blocked, so the session stays open)."""
    blocker = source_pipe(
        range(n),
        backend="remote",
        remote_address=server.address,
        capacity=1,
    ).start()
    assert blocker.take() == 0  # session established server-side
    assert blocker.degraded is None
    return blocker


def wait_active(server, count, timeout=2.0):
    limit = time.monotonic() + timeout
    while server.stats["active"] != count and time.monotonic() < limit:
        time.sleep(0.01)
    return server.stats["active"]


class TestLoadShedding:
    def test_over_capacity_dial_is_shed_with_retry_hint(self):
        with GeneratorServer(max_sessions=1, retry_after=0.25) as server:
            blocker = occupy(server)
            tracer = Tracer()
            with tracer.lifecycle():
                shed = source_pipe(
                    range(10),
                    backend="remote",
                    remote_address=server.address,
                ).start()
                with pytest.raises(PipeServerBusy) as excinfo:
                    shed.take()
            # The dial never hangs: it is answered, with the hint.
            assert excinfo.value.retry_after == 0.25
            assert excinfo.value.address == server.address
            assert server.stats["shed"] == 1
            assert server.stats["active"] == 1  # the blocker kept its slot
            health = tracer.health_stats()[f"server:{server.name}"]
            assert health["shed"] == 1
            blocker.cancel(join=True, timeout=5.0)

    def test_capacity_freed_admits_the_next_dial(self):
        with GeneratorServer(max_sessions=1) as server:
            blocker = occupy(server)
            blocker.cancel(join=True, timeout=5.0)
            assert wait_active(server, 0) == 0
            admitted = source_pipe(
                range(15), backend="remote", remote_address=server.address
            ).start()
            assert list(admitted.iterate()) == list(range(15))
            assert admitted.degraded is None

    def test_cancel_mid_stream_releases_the_session(self):
        with GeneratorServer() as server:
            piped = source_pipe(
                range(100_000),
                backend="remote",
                remote_address=server.address,
                capacity=2,
            ).start()
            assert piped.take() == 0
            piped.cancel(join=True, timeout=5.0)
            # The server-side producer is actively reclaimed, not left
            # credit-blocked until the heartbeat gives up on the socket.
            assert wait_active(server, 0) == 0


class TestQuotas:
    def test_greedy_quota_serves_unbounded_clients(self):
        # An unbounded client grants unlimited credit once and never
        # replenishes; the quota converts that to self-replenishing
        # quota-sized slices — the stream must still be exact.
        with GeneratorServer(max_credit=4) as server:
            piped = source_pipe(
                range(100), backend="remote", remote_address=server.address
            ).start()
            assert list(piped.iterate()) == list(range(100))

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_bounded_credit_is_clamped_to_quota(self, server_cls):
        # The client cannot see the clamp: it must still pay owed credit
        # before every blocking receive, or a 2-item quota against a
        # 64-item window (grant threshold 32) deadlocks.
        with server_cls(max_credit=2) as server:
            piped = source_pipe(
                range(50),
                backend="remote",
                remote_address=server.address,
                capacity=64,
            ).start()
            assert list(piped.iterate()) == list(range(50))

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_batch_clamped_to_server_cap(self, server_cls):
        with server_cls(max_batch=3) as server:
            piped = source_pipe(
                range(40),
                backend="remote",
                remote_address=server.address,
                batch=32,
            ).start()
            assert list(piped.iterate()) == list(range(40))


def slow_range(n, delay):
    for i in range(n):
        time.sleep(delay)
        yield i


class TestCreditCoalescing:
    """The client pays credit back in coalesced grants, not per slice."""

    @pytest.fixture
    def credit_sends(self, monkeypatch):
        """Every ``WIRE_CREDIT`` envelope sent through a framer."""
        sent = []
        send = SocketFramer.send

        def counting_send(framer, envelope):
            if envelope[0] == WIRE_CREDIT:
                sent.append(envelope)
            send(framer, envelope)

        monkeypatch.setattr(SocketFramer, "send", counting_send)
        return sent

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_per_item_stream_sends_few_credit_envelopes(
        self, server_cls, credit_sends
    ):
        # 960 single-item slices used to cost 961 grants each (the
        # initial window plus one per slice).  The server tells the
        # client its quota (none here), so the client pays once half the
        # 1024-item window is owed: two grants per stream, whichever
        # side is faster.  The pin bounds three streams together at 64
        # grants per stream.
        with server_cls() as server:
            for _ in range(3):
                piped = source_pipe(
                    range(960),
                    backend="remote",
                    remote_address=server.address,
                    capacity=1024,
                    batch=1,
                ).start()
                assert list(piped.iterate()) == list(range(960))
        assert len(credit_sends) <= 3 * 64

    @pytest.mark.parametrize("quota", [None, 4])
    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_grants_follow_the_quota_exactly(self, server_cls, quota, credit_sends):
        # The same stream against a known quota: the initial window,
        # then one grant per max(1, min(window, quota) // 2) items.
        with server_cls(max_credit=quota) as server:
            piped = source_pipe(
                range(960),
                backend="remote",
                remote_address=server.address,
                capacity=1024,
                batch=1,
            ).start()
            assert list(piped.iterate()) == list(range(960))
        # Without a quota the last 448 owed items are never paid: the
        # stream closes first.
        paid = 512 if quota is None else quota // 2
        grants = [(WIRE_CREDIT, 1024)] + [(WIRE_CREDIT, paid)] * (960 // paid)
        assert credit_sends == grants

    @pytest.mark.parametrize("ask", [True, False])
    @pytest.mark.parametrize("quota", [None, 4])
    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_quota_is_the_first_envelope_when_asked(
        self, server_cls, quota, ask, pipe_scheduler
    ):
        with server_cls(allow_spawn=False, max_credit=quota) as server:
            server.register("counter", counter)
            framer = dial_counter(server, {"args": (10,), "quota": ask})
            try:
                framer.send((WIRE_CREDIT, None))
                received = until_hangup(framer, 5.0)
            finally:
                framer.close()
            assert received is not None
            stream = [e for e in received if e[0] != WIRE_BEAT]
            if ask:
                assert received[0] == (WIRE_QUOTA, quota)
                stream = stream[1:]
            assert stream[-1] == (WIRE_CLOSE,)
            slices = [e[1] for e in stream[:-1]]
            assert all(kind == WIRE_DATA for kind, _ in stream[:-1])
            assert [item for slice_ in slices for item in slice_] == list(range(10))
            assert all(len(slice_) <= (quota or 10) for slice_ in slices)
            assert wait_active(server, 0) == 0
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    @pytest.mark.parametrize("quota", [0, 2.5, True])
    def test_bad_quota_is_a_protocol_violation(self, quota):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            framer = SocketFramer(conn)
            framer.recv()  # the call request
            framer.recv()  # the initial window
            framer.send((WIRE_QUOTA, quota))
            try:
                while True:
                    framer.recv()  # until the client hangs up
            except (EOFError, OSError):
                pass
            framer.close()

        peer = threading.Thread(target=serve, daemon=True)
        peer.start()
        try:
            pipe = RemotePipe(
                listener.getsockname(),
                "anything",
                capacity=64,
                heartbeat_timeout=5.0,
            )
            with pytest.raises(PipeConnectionLost, match="protocol violation"):
                list(pipe.iterate())
        finally:
            peer.join(5.0)
            listener.close()
        assert not peer.is_alive()

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_owed_credit_paid_behind_interleaved_beats(self, server_cls):
        # A one-item quota with beats between the items: the last data
        # frame is often followed by a buffered beat, so credit owed by
        # that frame must still be paid before the pump blocks again.
        with server_cls(max_credit=1) as server:
            server.register("slow", slow_range)
            pipe = RemotePipe(
                server.address,
                "slow",
                args=(40, 0.002),
                capacity=64,
                heartbeat_interval=0.001,
                heartbeat_timeout=5.0,
            )
            assert list(pipe.iterate()) == list(range(40))

    def test_buffered_beat_behind_data_does_not_strand_credit(self):
        # Deterministic form of the trap: a peer that writes each item
        # and a beat in one segment, then waits for that item's credit.
        # The beat is already buffered when the data frame is handled,
        # so only the pay-before-blocking rule releases the credit.
        listener = socket.create_server(("127.0.0.1", 0))
        grants = []

        def frame(envelope):
            payload = pickle.dumps(envelope)
            return _HEADER.pack(len(payload)) + payload

        def serve():
            conn, _ = listener.accept()
            framer = SocketFramer(conn)
            framer.recv()  # the call request
            framer.recv()  # the initial window
            for item in range(3):
                conn.sendall(frame((WIRE_DATA, [item])) + frame((WIRE_BEAT, 0)))
                grants.append(framer.recv())
            framer.send((WIRE_CLOSE,))
            framer.close()

        peer = threading.Thread(target=serve, daemon=True)
        peer.start()
        try:
            pipe = RemotePipe(
                listener.getsockname(),
                "anything",
                capacity=64,
                heartbeat_timeout=5.0,
            )
            assert list(pipe.iterate()) == [0, 1, 2]
        finally:
            peer.join(5.0)
            listener.close()
        assert not peer.is_alive()
        assert grants == [(WIRE_CREDIT, 1)] * 3


def counter(n):
    return iter(range(n))


def dial_counter(server, request):
    """A raw client that asked for ``counter`` with *request* fields."""
    sock = socket.create_connection(server.address)
    framer = SocketFramer(sock)
    framer.send((WIRE_CALL, {"name": "counter", "args": (10_000,), **request}))
    return framer


def until_hangup(framer, timeout):
    """The envelopes received before the server closed the connection,
    or None when it did not close within *timeout*."""
    received = []
    framer.sock.settimeout(timeout)
    try:
        while True:
            received.append(framer.recv())
    except TimeoutError:
        return None
    except (EOFError, OSError, PipeError):
        return received


BAD_FIELDS = [
    ("batch", 0),
    ("batch", 2.5),
    ("max_linger", "x"),
    ("max_linger", -1.0),
    ("max_linger", float("nan")),
    ("heartbeat_interval", -1),
    ("heartbeat_interval", 0),
    ("heartbeat_interval", float("inf")),
    ("quota", "x"),
]


class TestMalformedInput:
    """Client-controlled request fields and credit are validated once,
    in the shared session rules, so both substrates reject them the same
    way — probed here with raw clients against ``allow_spawn=False``,
    the untrusted posture."""

    @pytest.mark.parametrize(
        "field, value", BAD_FIELDS, ids=[f"{f}={v!r}" for f, v in BAD_FIELDS]
    )
    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_bad_request_field_is_an_error_then_close(
        self, server_cls, field, value, pipe_scheduler
    ):
        with server_cls(allow_spawn=False) as server:
            server.register("counter", counter)
            framer = dial_counter(server, {field: value})
            try:
                framer.send((WIRE_CREDIT, None))
                framer.sock.settimeout(5.0)
                kind, payload = framer.recv()
                assert kind == WIRE_ERROR
                error = decode_error(payload)
                assert isinstance(error, PipeError)
                assert field in str(error)
                assert framer.recv() == (WIRE_CLOSE,)
            finally:
                framer.close()
            assert wait_active(server, 0) == 0
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    @pytest.mark.parametrize("credit", ["x", -3, 2.5])
    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_bad_credit_kills_the_session(self, server_cls, credit, pipe_scheduler):
        heartbeat = 0.5
        with server_cls(allow_spawn=False, heartbeat_interval=heartbeat) as server:
            server.register("counter", counter)
            framer = dial_counter(server, {})
            try:
                framer.send((WIRE_CREDIT, credit))
                received = until_hangup(framer, heartbeat)
            finally:
                framer.close()
            # Gone within one heartbeat, and nothing streamed on the
            # strength of the bad grant.
            assert received is not None
            assert [e for e in received if e[0] != WIRE_BEAT] == []
            assert wait_active(server, 0) == 0
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    @pytest.mark.parametrize("server_cls", SERVERS, ids=SERVER_IDS)
    def test_tiny_heartbeat_is_raised_to_the_tick(self, server_cls):
        # No credit is ever granted, so the session only beats; each
        # beat carries the server's monotonic clock (same process).
        with server_cls() as server:
            server.register("counter", counter)
            framer = dial_counter(server, {"heartbeat_interval": 1e-9})
            try:
                start = time.monotonic()
                time.sleep(0.3)
                framer.sock.settimeout(5.0)
                beats = 0
                while True:
                    kind, stamp = framer.recv()
                    assert kind == WIRE_BEAT
                    if stamp > start + 0.2:
                        break
                    beats += 1
            finally:
                framer.close()
            assert wait_active(server, 0) == 0
        assert 0 < beats <= 400


class TestCircuitBreaker:
    def test_state_machine_and_events(self):
        breaker = CircuitBreaker(("127.0.0.1", 65000), threshold=3)
        tracer = Tracer()
        with tracer.lifecycle():
            assert breaker.allow()
            breaker.record_failure(retry_after=0.1)
            breaker.record_failure(retry_after=0.1)
            assert breaker.state == CircuitBreaker.CLOSED  # under threshold
            breaker.record_failure(retry_after=0.1)
            assert breaker.state == CircuitBreaker.OPEN
            assert not breaker.allow()  # open: fail fast
            assert 0.0 < breaker.remaining() <= 0.1
            time.sleep(0.12)
            assert breaker.allow()      # the half-open probe
            assert breaker.state == CircuitBreaker.HALF_OPEN
            assert not breaker.allow()  # only ONE probe is admitted
            breaker.record_success()
            assert breaker.state == CircuitBreaker.CLOSED
            assert breaker.allow()
        kinds = [e.kind for e in tracer.events]
        assert kinds.count(EventKind.BREAKER_OPEN) == 1
        assert kinds.count(EventKind.BREAKER_PROBE) == 1
        assert kinds.count(EventKind.BREAKER_CLOSE) == 1

    def test_failed_probe_reopens_immediately(self):
        breaker = CircuitBreaker(("127.0.0.1", 65001), threshold=3)
        for _ in range(3):
            breaker.record_failure(retry_after=0.05)
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure(retry_after=0.05)  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN

    def test_shed_storm_trips_the_breaker_then_degrades(self):
        with GeneratorServer(max_sessions=1, retry_after=30.0) as server:
            blocker = occupy(server)
            for _ in range(_BREAKER_THRESHOLD):
                shed = source_pipe(
                    range(5), backend="remote", remote_address=server.address
                ).start()
                with pytest.raises(PipeServerBusy):
                    shed.take()
            breaker = breaker_for(server.address)
            assert breaker.state == CircuitBreaker.OPEN
            # Breaker open: the next pipe degrades to the thread tier
            # without even dialing — and still yields the exact stream.
            degraded = source_pipe(
                range(5), backend="remote", remote_address=server.address
            ).start()
            assert degraded.degraded is not None
            assert "circuit breaker" in degraded.degraded
            assert list(degraded.iterate()) == list(range(5))
            assert server.stats["shed"] == _BREAKER_THRESHOLD  # no 4th dial
            blocker.cancel(join=True, timeout=5.0)

    def test_supervision_rides_the_breaker_to_thread_tier(self):
        # Supervision keeps retrying retryable sheds; once the breaker
        # trips, the next restart degrades and completes on threads.
        with GeneratorServer(max_sessions=1, retry_after=30.0) as server:
            blocker = occupy(server)
            piped = supervise(
                source_pipe(range(40)).coexpr,
                backend="remote",
                remote_address=server.address,
                backoff=NO_BACKOFF,
                max_retries=10,
            )
            assert list(piped.iterate()) == list(range(40))
            assert piped.failures == _BREAKER_THRESHOLD
            assert breaker_for(server.address).state == CircuitBreaker.OPEN
            blocker.cancel(join=True, timeout=5.0)

    def test_delivered_items_survive_degradation(self):
        # Mid-stream server death: supervision reconnects, the dial
        # fails, and the stream finishes on the thread tier with the
        # already-delivered prefix neither dropped nor reordered.
        server = GeneratorServer().start()
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
        # Abrupt kill + closed listener: the loss is a crash (not a
        # clean WIRE_CLOSE) and the reconnect dial is refused.
        server.kill_sessions()
        server.shutdown(wait=True)
        assert head + list(it) == list(range(60))
        assert piped.failures >= 1

    def test_probe_reconnects_once_capacity_frees(self):
        with GeneratorServer(max_sessions=1, retry_after=0.3) as server:
            blocker = occupy(server)
            for _ in range(_BREAKER_THRESHOLD):
                shed = source_pipe(
                    range(5), backend="remote", remote_address=server.address
                ).start()
                with pytest.raises(PipeServerBusy):
                    shed.take()
            assert breaker_for(server.address).state == CircuitBreaker.OPEN
            blocker.cancel(join=True, timeout=5.0)
            assert wait_active(server, 0) == 0
            time.sleep(0.35)  # past retry_after: the breaker admits a probe
            probe = source_pipe(
                range(20), backend="remote", remote_address=server.address
            ).start()
            assert probe.degraded is None
            assert list(probe.iterate()) == list(range(20))
            assert breaker_for(server.address).state == CircuitBreaker.CLOSED

    def test_remote_pipe_fails_fast_while_open(self):
        # RemotePipe has no local body to degrade to: an open breaker
        # surfaces PipeServerBusy (retryable) without touching the net.
        address = ("127.0.0.1", 65002)  # nothing listens here — no dial happens
        breaker = breaker_for(address)
        for _ in range(_BREAKER_THRESHOLD):
            breaker.record_failure(retry_after=30.0)
        proxy = RemotePipe(address, "whatever")
        with pytest.raises(PipeServerBusy) as excinfo:
            proxy.start()
        assert excinfo.value.retry_after > 0.0
