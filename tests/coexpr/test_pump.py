"""One stream pump under the process and the remote transport.

A scripted peer — a forked stub child, or a raw socket server — sends
the same data and then ends the stream one of five ways.  The consumer
must see the same values on both transports, then the transport's
error with the reason the pump gave, and nothing may leak.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.coexpr import proc
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.pipe import Pipe
from repro.coexpr.proc import default_context
from repro.coexpr.wire import (
    WIRE_CLOSE,
    WIRE_DATA,
    WIRE_ERROR,
    SocketFramer,
    encode_error,
)
from repro.errors import PipeConnectionLost, PipeWorkerLost
from repro.net import RemotePipe

SLICES = ([1, 2], [3])
HEARTBEAT_TIMEOUT = 0.5


def _ending(how: str) -> tuple:
    """The envelopes a peer sends after the data, for *how* it ends."""
    if how == "error":
        return ((WIRE_ERROR, encode_error(ValueError("boom"))), (WIRE_CLOSE,))
    if how == "unknown":
        return (("bogus", 3),)
    if how == "malformed":
        return ((WIRE_DATA,),)
    return ()


def _stub_child(how: str):
    def child(sock, *args):  # runs in the forked child
        framer = SocketFramer(sock)
        framer.recv()  # the request
        framer.recv()  # the initial window
        for slice_ in SLICES:
            framer.send((WIRE_DATA, slice_))
        for envelope in _ending(how):
            framer.send(envelope)
        if how == "eof":
            framer.close()
        if how != "error":
            time.sleep(30)  # no beats: the pump's reap ends this
        framer.close()

    return child


def _process_pipe(how, monkeypatch, stack):
    monkeypatch.setattr(proc, "_child_main", _stub_child(how))
    return Pipe(
        CoExpression(lambda: iter(()), name="scripted"),
        backend="process",
        heartbeat_timeout=HEARTBEAT_TIMEOUT,
    )


def _remote_pipe(how, monkeypatch, stack):
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        framer = SocketFramer(conn)
        framer.recv()  # the request
        framer.recv()  # the initial window
        for slice_ in SLICES:
            framer.send((WIRE_DATA, slice_))
        for envelope in _ending(how):
            framer.send(envelope)
        if how in ("silence", "unknown", "malformed"):
            try:
                while True:
                    framer.recv()  # until the client hangs up
            except (EOFError, OSError):
                pass
        framer.close()

    peer = threading.Thread(target=serve, daemon=True)
    peer.start()
    stack.append((peer, listener))
    return RemotePipe(
        listener.getsockname(), "scripted", heartbeat_timeout=HEARTBEAT_TIMEOUT
    )


TRANSPORTS = {"process": _process_pipe, "remote": _remote_pipe}

#: Each transport's loss error.
LOST = {"process": PipeWorkerLost, "remote": PipeConnectionLost}

#: The reason the consumer's error carries, the same on both transports.
REASONS = {
    "error": "boom",
    "eof": "connection closed before end of stream",
    "silence": "no heartbeat",
    "unknown": "protocol violation: 'bogus' envelope",
    "malformed": "protocol violation: malformed envelope",
}


@pytest.mark.skipif(
    default_context().get_start_method() != "fork",
    reason="the stub child is patched in before the fork",
)
@pytest.mark.parametrize("how", sorted(REASONS))
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_pump_parity(transport, how, monkeypatch, pipe_scheduler):
    stack: list = []
    pipe = TRANSPORTS[transport](how, monkeypatch, stack)
    error_type = ValueError if how == "error" else LOST[transport]
    got = []
    try:
        with pytest.raises(error_type, match=REASONS[how]):
            for value in pipe.iterate():
                got.append(value)
        assert pipe.degraded is None
    finally:
        pipe.cancel(join=True, timeout=5.0)
        for peer, listener in stack:
            peer.join(5.0)
            listener.close()
            assert not peer.is_alive()
    assert got == [item for slice_ in SLICES for item in slice_]
    assert pipe_scheduler.leaked(join_timeout=2.0) == []
