"""The wire protocol — one envelope vocabulary for every pipe transport.

In-process, channel traffic is method calls (``put_many`` / ``put_error``
/ ``close``).  When the same traffic crosses an OS boundary each call
becomes a tagged tuple — an *envelope* — on a stream socket: a
``socketpair`` end for process-backed pipes (:mod:`repro.coexpr.proc`)
or a TCP connection for remote pipes (:mod:`repro.net`).  This module is the single
definition of that vocabulary plus the two codecs every transport needs:

* **error encoding** — a producer exception as a transportable payload,
  preserving the ``__cause__`` chain and the traceback text (a remote
  crash should read like a local one);
* **socket framing** — length-prefixed pickle frames
  (:func:`encode_frame` / :func:`decode_frame`, shared by every socket
  substrate) and a blocking-socket reader over them, timeout-safe (a
  read that times out mid-frame keeps its partial bytes and resumes
  cleanly).

Envelope ordering is the transport invariant every tier pins with tests:
data slices arrive in production order, an error never overtakes the
data produced before it, and a close terminates the stream.

**Trust model.**  Frames are pickles, and unpickling runs arbitrary
code — so a framer must only ever fully trust bytes from a peer the
application trusts (the client dialing a server it chose; a server
explicitly running client bodies with ``allow_spawn=True``).  A server
that does *not* execute client code constructs its framer with
``trusted=False``: frames are then decoded by a restricted unpickler
that refuses every global lookup, limiting envelopes to compositions
of primitive values (numbers, strings, bytes, bools, None, and
containers of them) and turning a hostile payload into a
:class:`FrameError` instead of code execution.
"""

from __future__ import annotations

import io
import math
import pickle
import struct
import threading
import traceback
from typing import Any

from ..errors import PipeError

# ---------------------------------------------------------------------------
# Envelope kinds.  Server/worker -> consumer:
# ---------------------------------------------------------------------------

#: ``(WIRE_DATA, [values])`` — a batched slice; lands as ``Channel.put_many``.
WIRE_DATA = "data"
#: ``(WIRE_ERROR, payload)`` — a producer crash; lands as ``Channel.put_error``.
WIRE_ERROR = "error"
#: ``(WIRE_CLOSE,)`` — producer exhaustion; lands as ``Channel.close``.
WIRE_CLOSE = "close"
#: ``(WIRE_BEAT, monotonic_time)`` — liveness only; never enters the channel.
WIRE_BEAT = "beat"
#: ``(WIRE_BUSY, retry_after)`` — admission control: the server is at
#: capacity and is closing instead of serving; dial again after
#: *retry_after* seconds.  Sent before any session exists, so it is the
#: one server->client envelope that can be the entire conversation.
WIRE_BUSY = "busy"
#: ``(WIRE_QUOTA, max_credit | None)`` — the server's cap on a session's
#: outstanding credit (None = no cap).  Sent once, before any other
#: envelope of the stream, and only when the request asked for it with
#: ``"quota": True``; a client that knows the quota can coalesce its
#: grants without waiting on timing (see :mod:`repro.net.client`).
WIRE_QUOTA = "quota"

# ---------------------------------------------------------------------------
# Consumer -> server kinds (the network tier's request/control channel).
# ---------------------------------------------------------------------------

#: ``(WIRE_SPAWN, {...})`` — run a pickled ``(factory, env)`` body remotely.
#: Request fields shared with :data:`WIRE_CALL`: ``batch``,
#: ``max_linger``, ``heartbeat_interval``, and ``quota`` — True asks the
#: server to answer with :data:`WIRE_QUOTA` before the stream (absent or
#: False: no answer; any other value is a malformed request).
WIRE_SPAWN = "spawn"
#: ``(WIRE_CALL, {...})`` — run a factory the server registered by name
#: (``name``, ``args``, plus the request fields above).
WIRE_CALL = "call"
#: ``(WIRE_CREDIT, n | None)`` — grant the sender *n* more items (None =
#: unlimited; the flow-control half of a bounded channel over a socket).
WIRE_CREDIT = "credit"
#: ``(WIRE_CANCEL,)`` — the consumer abandoned the stream; stop producing.
WIRE_CANCEL = "cancel"
#: ``(WIRE_DEADLINE, remaining_seconds)`` — the stream's budget.  Always
#: *remaining* time, never an absolute timestamp: monotonic clocks have
#: per-process epochs and wall clocks are host-local, so the receiver
#: re-anchors the budget against its own clock on receipt (see
#: :mod:`repro.coexpr.deadline`).  Primitive payload, so it survives the
#: restricted unpickler of an ``allow_spawn=False`` server.
WIRE_DEADLINE = "deadline"

# ---------------------------------------------------------------------------
# Control-channel kinds (the cluster tier's membership vocabulary).  A
# connection whose *first* envelope is one of these becomes a control
# session: no body runs, the server just answers.  Payloads are strictly
# primitive — a health probe must work against an ``allow_spawn=False``
# server, whose restricted unpickler refuses anything richer.
# ---------------------------------------------------------------------------

#: ``(WIRE_PING, nonce)`` — a health probe.  Any live server answers with
#: a :data:`WIRE_PONG` echoing the nonce; a server at capacity answers
#: the whole *connection* with :data:`WIRE_BUSY` instead, which a prober
#: treats as alive (shedding is load, not death).
WIRE_PING = "ping"
#: ``(WIRE_PONG, nonce)`` — the probe reply.
WIRE_PONG = "pong"
#: ``(WIRE_PEERS, [[host, port, weight], ...])`` — one push-pull gossip
#: exchange: the sender's known fleet as a list of primitive triples;
#: the reply is the receiver's fleet (its own advertised address first).
#: Both sides merge what they learn.
WIRE_PEERS = "peers"


def _is_number(value: Any) -> bool:
    """True for an int or a finite float (a bool is not a number here).

    The one numeric rule for the tuning fields a request carries:
    :class:`~repro.coexpr.coalesce.Coalescer` checks ``max_linger`` with
    it, ``Pipe`` and the generator server check ``heartbeat_interval``.
    """
    return type(value) is int or (type(value) is float and math.isfinite(value))


# ---------------------------------------------------------------------------
# Error encoding.
# ---------------------------------------------------------------------------

#: Longest ``__cause__`` chain shipped across a boundary.
_MAX_CAUSE_DEPTH = 8


def encode_error(error: BaseException, _depth: int = 0) -> dict:
    """An exception as a wire payload: pickled when possible, repr
    otherwise — with the ``__cause__`` chain and traceback text attached.

    Pickle alone loses both: ``BaseException.__reduce__`` carries only
    ``args`` (plus ``__dict__``), so a chained cause and the traceback
    silently vanish at the boundary.  They are encoded separately here
    and re-attached by :func:`decode_error`, so a consumer sees the same
    ``raise ... from ...`` chain a local producer would have raised.
    """
    payload: dict = {"cause": None, "traceback": None}
    tb = error.__traceback__
    if tb is not None:
        payload["traceback"] = "".join(traceback.format_tb(tb))
    cause = error.__cause__
    if cause is not None and cause is not error and _depth < _MAX_CAUSE_DEPTH:
        payload["cause"] = encode_error(cause, _depth + 1)
    try:
        payload["body"] = ("pickle", pickle.dumps(error))
    except Exception:  # noqa: BLE001 - anything unpicklable falls back
        payload["body"] = ("repr", type(error).__name__, repr(error))
    return payload


def decode_error(payload: dict) -> BaseException:
    """Rebuild a transported exception (repr fallback → PipeError).

    Re-attaches the decoded ``__cause__`` chain and stores the producer's
    traceback text as ``remote_traceback`` on the rebuilt exception.
    """
    body = payload["body"]
    if body[0] == "pickle":
        try:
            error: BaseException = pickle.loads(body[1])
        except Exception:  # noqa: BLE001 - corrupted payload
            error = PipeError("worker crashed (undecodable error payload)")
    else:
        error = PipeError(f"worker raised {body[1]}: {body[2]}")
    cause = payload.get("cause")
    if cause is not None:
        error.__cause__ = decode_error(cause)
    tb_text = payload.get("traceback")
    if tb_text:
        try:
            error.remote_traceback = tb_text  # type: ignore[attr-defined]
        except Exception:  # noqa: BLE001 - slotted exception classes
            pass
    return error


# ---------------------------------------------------------------------------
# Socket framing.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">I")

#: Refuse frames beyond this size — a corrupted length prefix must not
#: make the reader try to allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(PipeError):
    """The byte stream does not parse as a framed envelope."""


class _RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that refuses every global lookup.

    Primitive values (numbers, strings, bytes, bools, None) and
    containers of them decode without ``find_class``; anything that
    needs a class or function — the code-execution surface of pickle —
    raises, which :func:`decode_frame` turns into a
    :class:`FrameError`.
    """

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(
            f"untrusted frame references global {module}.{name}; "
            "only primitive payloads are accepted"
        )


def _restricted_loads(frame: bytes) -> Any:
    return _RestrictedUnpickler(io.BytesIO(frame)).load()


def encode_frame(envelope: tuple) -> bytes:
    """One envelope as a length-prefixed frame, ready to write."""
    payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


def _frame_length(header: bytes) -> int:
    """The body length a frame header announces (bounded by
    :data:`MAX_FRAME`)."""
    (need,) = _HEADER.unpack(header)
    if need > MAX_FRAME:
        raise FrameError(f"oversized frame ({need} bytes)")
    return need


def decode_frame(frame: bytes, trusted: bool) -> tuple:
    """One frame body back into its envelope.

    ``trusted=False`` decodes through the restricted unpickler (see the
    module docstring's trust model).  A body that does not unpickle, or
    unpickles to anything but a non-empty tuple, raises
    :class:`FrameError`.
    """
    loads = pickle.loads if trusted else _restricted_loads
    try:
        envelope = loads(frame)
    except Exception as error:  # noqa: BLE001 - corrupt frame
        raise FrameError(f"undecodable frame: {error!r}") from error
    if not isinstance(envelope, tuple) or not envelope:
        raise FrameError(f"malformed envelope: {envelope!r}")
    return envelope


class SocketFramer:
    """Length-prefixed pickle frames over a stream socket.

    ``send`` is thread-safe (one lock per framer: a beat thread and a
    data sender may share the socket).  ``recv`` is single-reader and
    **timeout-safe**: bytes received before a ``socket.timeout`` stay
    buffered, so the next call resumes the partial frame instead of
    desynchronizing the stream.  A clean peer close surfaces as
    :class:`EOFError`; torn connections raise :class:`OSError`.

    ``trusted=False`` decodes frames with a restricted unpickler that
    refuses global lookups (see the module docstring's trust model) —
    the mode for a peer whose code the application did not choose to
    run.
    """

    __slots__ = ("sock", "trusted", "_send_lock", "_buf", "_need")

    def __init__(self, sock: Any, trusted: bool = True) -> None:
        self.sock = sock
        self.trusted = trusted
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._need: int | None = None

    def send(self, envelope: tuple) -> None:
        """Frame and ship one envelope (blocking, thread-safe)."""
        frame = encode_frame(envelope)
        with self._send_lock:
            self.sock.sendall(frame)

    def buffered(self) -> bool:
        """True when a complete frame is already in the receive buffer.

        A reader that multiplexes with ``select`` must check this before
        waiting on the socket: bytes pulled by an earlier :meth:`recv`
        (e.g. a credit grant pipelined right behind a request) live in
        this buffer, not in the kernel — the socket will never poll
        readable for them.
        """
        if self._need is not None:
            return len(self._buf) >= self._need
        if len(self._buf) < _HEADER.size:
            return False
        (need,) = _HEADER.unpack(self._buf[: _HEADER.size])
        return len(self._buf) - _HEADER.size >= need

    def partial(self) -> bool:
        """True when a frame has started arriving but is incomplete.

        The liveness companion of :meth:`buffered`: these bytes live in
        user space, so the socket will never poll readable for them —
        a reader bounding mid-frame stalls must ask the framer, not
        select.
        """
        if self.buffered():
            return False
        return self._need is not None or bool(self._buf)

    def _extract(self) -> tuple | None:
        """Pop one complete envelope out of the buffer (None = partial)."""
        if self._need is None and len(self._buf) >= _HEADER.size:
            self._need = _frame_length(self._buf[: _HEADER.size])
            del self._buf[: _HEADER.size]
        if self._need is None or len(self._buf) < self._need:
            return None
        frame = bytes(self._buf[: self._need])
        del self._buf[: self._need]
        self._need = None
        return decode_frame(frame, self.trusted)

    def _pull(self) -> None:
        """One ``recv`` call into the buffer; EOF raised as usual."""
        chunk = self.sock.recv(65536)
        if not chunk:
            if self._buf or self._need is not None:
                raise FrameError("connection closed mid-frame")
            raise EOFError("connection closed")
        self._buf += chunk

    def recv(self) -> tuple:
        """The next envelope; honors the socket's timeout setting.

        Raises ``socket.timeout`` (``TimeoutError``) with the partial
        frame preserved, :class:`EOFError` on an orderly close, and
        :class:`FrameError` on an unparseable stream.
        """
        while True:
            envelope = self._extract()
            if envelope is not None:
                return envelope
            self._pull()

    def try_recv(self) -> tuple | None:
        """One receive *step*: never blocks after a readable ``select``.

        Returns a buffered envelope if one is complete, else performs
        exactly one ``recv`` call (guaranteed not to block when select
        just reported the socket readable) and returns the envelope it
        completed — or None while the frame is still partial.  A reader
        multiplexing with select uses this instead of :meth:`recv` so a
        peer that stalls mid-frame cannot pin the reading thread.
        """
        envelope = self._extract()
        if envelope is not None:
            return envelope
        self._pull()
        return self._extract()

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        try:
            self.sock.close()
        except OSError:
            pass
