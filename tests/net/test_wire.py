"""The wire vocabulary: error codec round-trips and socket framing.

Property layer (hypothesis): a framed envelope sequence round-trips
byte-identically through :class:`SocketFramer` no matter how the byte
stream is fragmented, and an error envelope never overtakes the data
framed before it.
"""

from __future__ import annotations

import pickle
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coexpr.wire import (
    MAX_FRAME,
    WIRE_CLOSE,
    WIRE_DATA,
    WIRE_ERROR,
    FrameError,
    SocketFramer,
    _HEADER,
    decode_error,
    decode_frame,
    encode_error,
)
from repro.errors import PipeError


def raise_chained():
    try:
        raise KeyError("inner")
    except KeyError as inner:
        raise ValueError("outer") from inner


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("refuses to pickle")


class TestErrorCodec:
    def test_round_trip_preserves_type_and_args(self):
        try:
            raise RuntimeError("boom", 42)
        except RuntimeError as error:
            decoded = decode_error(encode_error(error))
        assert isinstance(decoded, RuntimeError)
        assert decoded.args == ("boom", 42)

    def test_cause_chain_survives(self):
        try:
            raise_chained()
        except ValueError as error:
            decoded = decode_error(encode_error(error))
        assert isinstance(decoded, ValueError)
        assert isinstance(decoded.__cause__, KeyError)
        assert decoded.__cause__.args == ("inner",)

    def test_traceback_text_attached(self):
        try:
            raise_chained()
        except ValueError as error:
            decoded = decode_error(encode_error(error))
        assert "raise_chained" in decoded.remote_traceback

    def test_unpicklable_error_falls_back_to_repr(self):
        try:
            raise Unpicklable("cannot cross")
        except Unpicklable as error:
            decoded = decode_error(encode_error(error))
        assert isinstance(decoded, PipeError)
        assert "Unpicklable" in str(decoded)

    def test_unpicklable_cause_still_chains(self):
        try:
            try:
                raise Unpicklable("deep")
            except Unpicklable as inner:
                raise ValueError("outer") from inner
        except ValueError as error:
            decoded = decode_error(encode_error(error))
        assert isinstance(decoded, ValueError)
        assert isinstance(decoded.__cause__, PipeError)

    def test_self_referential_cause_terminates(self):
        error = ValueError("loop")
        error.__cause__ = error
        payload = encode_error(error)
        assert payload["cause"] is None

    def test_corrupt_pickle_body_decodes_to_pipe_error(self):
        payload = encode_error(ValueError("x"))
        payload["body"] = ("pickle", b"not a pickle")
        decoded = decode_error(payload)
        assert isinstance(decoded, PipeError)
        assert "undecodable" in str(decoded)


@pytest.fixture
def framer_pair():
    left, right = socket.socketpair()
    a, b = SocketFramer(left), SocketFramer(right)
    yield a, b
    a.close()
    b.close()


class TestSocketFramer:
    def test_round_trip(self, framer_pair):
        a, b = framer_pair
        a.send((WIRE_DATA, [1, "two", None]))
        assert b.recv() == (WIRE_DATA, [1, "two", None])

    def test_many_frames_in_order(self, framer_pair):
        a, b = framer_pair
        for i in range(50):
            a.send((WIRE_DATA, [i]))
        assert [b.recv()[1][0] for i in range(50)] == list(range(50))

    def test_timeout_preserves_partial_frame(self, framer_pair):
        a, b = framer_pair
        payload = pickle.dumps((WIRE_DATA, list(range(100))))
        framed = _HEADER.pack(len(payload)) + payload
        b.sock.settimeout(0.05)
        a.sock.sendall(framed[:7])  # header + a sliver of the body
        with pytest.raises((socket.timeout, TimeoutError)):
            b.recv()
        a.sock.sendall(framed[7:])
        b.sock.settimeout(1.0)
        assert b.recv() == (WIRE_DATA, list(range(100)))

    def test_eof_on_clean_close(self, framer_pair):
        a, b = framer_pair
        a.close()
        with pytest.raises(EOFError):
            b.recv()

    def test_close_mid_frame_is_a_frame_error(self, framer_pair):
        a, b = framer_pair
        a.sock.sendall(_HEADER.pack(1000) + b"partial")
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            b.recv()

    def test_oversized_frame_rejected(self, framer_pair):
        a, b = framer_pair
        a.sock.sendall(_HEADER.pack(MAX_FRAME + 1))
        with pytest.raises(FrameError, match="oversized"):
            b.recv()

    def test_undecodable_frame_rejected(self, framer_pair):
        a, b = framer_pair
        a.sock.sendall(_HEADER.pack(4) + b"\xff\xff\xff\xff")
        with pytest.raises(FrameError, match="undecodable"):
            b.recv()

    @pytest.mark.parametrize("path", ["framer", "decode_frame"])
    def test_non_tuple_envelope_rejected(self, framer_pair, path):
        a, b = framer_pair
        payload = pickle.dumps(["not", "a", "tuple"])
        with pytest.raises(FrameError, match="malformed"):
            if path == "framer":
                a.sock.sendall(_HEADER.pack(len(payload)) + payload)
                b.recv()
            else:
                decode_frame(payload, trusted=True)

    def test_buffered_sees_pipelined_frames(self, framer_pair):
        # The select-deadlock regression: frames pulled into the user
        # space buffer by an earlier recv must be visible to buffered(),
        # because the socket will never poll readable for them.
        a, b = framer_pair
        a.send((WIRE_DATA, [1]))
        a.send((WIRE_DATA, [2]))
        assert not b.buffered()
        assert b.recv() == (WIRE_DATA, [1])
        assert b.buffered()
        assert b.recv() == (WIRE_DATA, [2])
        assert not b.buffered()

    def test_buffered_false_on_partial_frame(self, framer_pair):
        a, b = framer_pair
        a.send((WIRE_DATA, [1]))
        payload = pickle.dumps((WIRE_DATA, [2]))
        a.sock.sendall(_HEADER.pack(len(payload)) + payload[:3])
        assert b.recv() == (WIRE_DATA, [1])  # pulls the partial in too
        assert not b.buffered()
        a.sock.sendall(payload[3:])
        assert b.recv() == (WIRE_DATA, [2])

    def test_try_recv_never_blocks_on_a_partial_frame(self, framer_pair):
        # The reader-stall regression: one receive step per readable
        # select, never a blocking wait for the rest of the frame.
        a, b = framer_pair
        payload = pickle.dumps((WIRE_DATA, [1]))
        a.sock.sendall(_HEADER.pack(len(payload)) + payload[:3])
        assert b.try_recv() is None
        assert b.partial()
        a.sock.sendall(payload[3:4])
        assert b.try_recv() is None  # one byte of progress: still partial
        a.sock.sendall(payload[4:])
        while True:
            envelope = b.try_recv()
            if envelope is not None:
                break
        assert envelope == (WIRE_DATA, [1])
        assert not b.partial()

    def test_try_recv_serves_buffered_frame_without_reading(self, framer_pair):
        a, b = framer_pair
        a.send((WIRE_DATA, [1]))
        a.send((WIRE_DATA, [2]))
        assert b.recv() == (WIRE_DATA, [1])  # pulls both frames in
        # A socket read here would time out: the frame must come from
        # the user-space buffer alone.
        b.sock.settimeout(0.5)
        assert b.try_recv() == (WIRE_DATA, [2])

    def test_try_recv_raises_eof_on_clean_close(self, framer_pair):
        a, b = framer_pair
        a.close()
        with pytest.raises(EOFError):
            b.try_recv()


class _NeedsGlobal:
    """Pickling an instance records a global lookup for this class."""


class TestRestrictedFraming:
    """``trusted=False``: primitives pass, global lookups are refused."""

    @pytest.fixture
    def untrusting_pair(self):
        left, right = socket.socketpair()
        a, b = SocketFramer(left), SocketFramer(right, trusted=False)
        yield a, b
        a.close()
        b.close()

    def test_primitive_envelopes_decode(self, untrusting_pair):
        a, b = untrusting_pair
        envelope = (WIRE_DATA, [1, "two", b"three", None, 4.5, [True, {}]])
        a.send(envelope)
        assert b.recv() == envelope

    @pytest.mark.parametrize("path", ["framer", "decode_frame"])
    def test_global_bearing_frame_is_a_frame_error(self, untrusting_pair, path):
        a, b = untrusting_pair
        envelope = (WIRE_DATA, [_NeedsGlobal()])
        with pytest.raises(FrameError, match="untrusted frame"):
            if path == "framer":
                a.send(envelope)
                b.recv()
            else:
                decode_frame(pickle.dumps(envelope), trusted=False)

    def test_nested_pickle_bytes_stay_opaque(self, untrusting_pair):
        # A spawn request's body is pickled *bytes* inside the envelope:
        # the restricted framer must pass it through undecoded, so the
        # allow_spawn policy check runs before any hostile unpickling.
        a, b = untrusting_pair
        body = pickle.dumps((_NeedsGlobal, ()))
        a.send(("spawn", {"body": body, "name": "x"}))
        assert b.recv() == ("spawn", {"body": body, "name": "x"})


class _ChunkedSock:
    """A fake socket delivering a fixed byte stream in scripted chunks."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, _size):
        if not self.chunks:
            return b""
        return self.chunks.pop(0)

    def close(self):
        pass


_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)
_envelopes = st.lists(
    st.tuples(st.just(WIRE_DATA), st.lists(_values, max_size=5)),
    min_size=1,
    max_size=8,
)


class TestFramingProperties:
    @given(envelopes=_envelopes, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_under_arbitrary_fragmentation(self, envelopes, data):
        stream = bytearray()
        for envelope in envelopes:
            payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
            stream += _HEADER.pack(len(payload)) + payload
        # Fragment the byte stream at hypothesis-chosen boundaries.
        chunks, pos = [], 0
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            chunks.append(bytes(stream[pos : pos + step]))
            pos += step
        framer = SocketFramer(_ChunkedSock(chunks))
        assert [framer.recv() for _ in envelopes] == envelopes
        with pytest.raises(EOFError):
            framer.recv()

    @given(slices=st.lists(st.lists(st.integers(), max_size=4), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_error_never_overtakes_data(self, slices):
        left, right = socket.socketpair()
        a, b = SocketFramer(left), SocketFramer(right)
        try:
            for slice_ in slices:
                a.send((WIRE_DATA, slice_))
            a.send((WIRE_ERROR, encode_error(ValueError("after data"))))
            a.send((WIRE_CLOSE,))
            received = [b.recv() for _ in range(len(slices) + 2)]
        finally:
            a.close()
            b.close()
        assert [e[1] for e in received[: len(slices)]] == slices
        assert received[-2][0] == WIRE_ERROR
        assert received[-1] == (WIRE_CLOSE,)
