"""The generator server — named pipeline factories behind a TCP listener.

One server hosts many concurrent clients; each accepted connection
becomes a *session* that runs one pipeline body to exhaustion and
streams its results back as wire envelopes.  A session is two scheduler
threads:

* the **sender** reads the request, builds the body (a pickled
  ``(factory, env)`` pair for ``spawn`` requests, a registered factory
  for ``call`` requests), and drives it — coalescing results into
  batched ``WIRE_DATA`` slices, never sending more items than the
  client has granted credit for (the flow-control mirror of a bounded
  channel: a slow client throttles the producer instead of ballooning
  the socket buffer);
* the **reader** consumes the control channel — credit grants and
  cancellation — and doubles as the *beater* and the linger flusher:
  each receive waits until the next beat or until a partial batch can
  come due (:class:`~repro.coexpr.coalesce.Coalescer`), whichever is
  sooner and never less than 1 ms; then it flushes a batch that has
  out-lingered its bound and sends a due ``WIRE_BEAT``.

The rules themselves, and the flows that run them — the sender's
stream loop included — are written once in :class:`_SessionRules`:
:class:`Session` is their threaded I/O driver, :mod:`repro.net.aserver`
their event-loop driver.  A process pipe's child
(:mod:`repro.coexpr.proc`) serves exactly one threaded :class:`Session`
over a ``socketpair`` end, under an unstarted server.

Stream termination follows the channel contract end to end: data
slices in production order, a crash flushed *after* the data produced
before it (``WIRE_ERROR`` carrying the cause-preserving payload of
:func:`repro.coexpr.wire.encode_error`), then ``WIRE_CLOSE``.

Sessions register with the :class:`~repro.coexpr.scheduler.PipeScheduler`
session accounting, so ``leaked()`` and ``shutdown()`` cover open
connections exactly as they cover threads and child processes.
:meth:`GeneratorServer.shutdown` is the graceful path — stop accepting,
close each session's body, flush, ``WIRE_CLOSE``, then kill stragglers —
and :meth:`GeneratorServer.install_signal_handlers` wires it to
SIGTERM/SIGINT for the ``junicon-serve`` entry point.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import math
import pickle
import select
import socket
import threading
import time
import warnings
from typing import Any, Callable

from ..coexpr.coalesce import _MIN_TICK, Coalescer
from ..coexpr.coexpression import CoExpression
from ..coexpr.deadline import Deadline
from ..coexpr.scheduler import PipeScheduler, default_scheduler
from ..coexpr.wire import (
    WIRE_BEAT,
    WIRE_BUSY,
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_DEADLINE,
    WIRE_ERROR,
    WIRE_PEERS,
    WIRE_PING,
    WIRE_PONG,
    WIRE_QUOTA,
    WIRE_SPAWN,
    FrameError,
    SocketFramer,
    _is_number,
    encode_error,
)
from ..errors import PipeDeadlineExceeded, PipeError, SchedulerShutdownError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL

#: How long a session waits for the client's request envelope.
_REQUEST_TIMEOUT = 10.0
#: Accept-loop poll slice — bounds shutdown latency, not throughput.
_ACCEPT_SLICE = 0.2
#: Credit-wait slice for a sender with items but no credit.
_CREDIT_SLICE = 0.1
#: A client that leaves a frame half-sent for this many heartbeat
#: intervals is dead: the session is killed (the server-side mirror of
#: the client watchdog's ``TIMEOUT_INTERVALS`` in repro.coexpr.options).
_STALL_INTERVALS = 10
#: How long a shed connection's lingering half-close drains the
#: client's in-flight handshake before the socket is abandoned.
_SHED_LINGER = 0.5


def _is_loopback(host: str) -> bool:
    """True when *host* only ever admits local clients."""
    return host in ("localhost", "::1") or host.startswith("127.")


#: What a send or receive raises once the peer is gone (the event
#: loop's ConnectionError and IncompleteReadError are subclasses).
_GONE = (OSError, EOFError, FrameError)
#: What the request read raises when the client left before asking.
_VANISHED = _GONE + (TimeoutError, asyncio.TimeoutError)


def _run_sync(flow: Any) -> Any:
    """Run a flow whose awaits never suspend to completion; its result.

    The threaded driver's primitives block instead of suspending, so a
    shared flow finishes within its first step.
    """
    try:
        flow.send(None)
    except StopIteration as done:
        return done.value
    flow.close()
    raise RuntimeError("a threaded session flow tried to suspend")


class _SessionRules:
    """The session rules both server substrates share.

    Everything here is substrate-neutral: request validation, credit
    arithmetic, draining the coalescer under credit, the session
    deadline, the control-channel replies, the reader's envelope
    dispatch, wakeups and liveness bounds, and the flows that run them
    (request → body → stream → terminator, the control loop, the
    reader).  :class:`Session` (threads) and
    :class:`~repro.net.aserver._AsyncSession` (event-loop tasks) are I/O
    drivers over it: each supplies its locking (``_guard``), the I/O
    primitives the flows await — the sender's time slice (``_yield``)
    among them — its credit wakeup (``_wake``: a condition notify or an
    event set) and ``kill``, which the dispatch calls.
    """

    #: Seconds of activations the sender runs between ``_yield`` calls
    #: to its driver (inf: never — a threaded sender has its own thread).
    _yield_slice = math.inf

    __slots__ = (
        "server",
        "peer",
        "name",
        "request_name",
        "heartbeat_interval",
        "coexpr",
        "handle",
        "reader_handle",
        "_guard",
        "_credit",
        "_greedy",
        "_deadline",
        "_coalescer",
        "_stall_at",
        "_killed",
        "_cancelled",
        "_finished",
        "_reader_done",
        "_torn",
    )

    def __init__(self, server: "GeneratorServer", peer: Any, name: str) -> None:
        self.server = server
        self.peer = peer
        self.name = name
        self.request_name = ""
        self.heartbeat_interval = server.heartbeat_interval
        self.coexpr: CoExpression | None = None
        self.handle: Any = None  # the sender: a scheduler handle or a task
        self.reader_handle: Any = None  # the reader, likewise
        #: Serializes the coalescer and the teardown decisions between the
        #: sender and the reader — a no-op unless the driver runs them on
        #: two threads.
        self._guard: Any = contextlib.nullcontext()
        #: Items the client has granted (None = unlimited, its channel is
        #: unbounded).  Starts at zero: nothing is sent before the first
        #: grant, which the client ships right behind its request.
        self._credit: int | None = 0
        #: True once a quota clamped an *unlimited* grant: the sender
        #: self-replenishes credit (the client will never send more).
        self._greedy = False
        #: Budget received in a ``WIRE_DEADLINE`` envelope, re-anchored
        #: against this host's monotonic clock.
        self._deadline: Deadline | None = None
        #: The batching rule: what the sender has produced and not yet
        #: sent, and when the reader must flush it.
        self._coalescer = Coalescer()
        #: When a half-received frame's stall bound runs out (None = no
        #: frame is partial).
        self._stall_at: float | None = None
        self._killed = False
        self._cancelled = False
        self._finished = False
        self._reader_done = False
        self._torn = False

    def _stopping(self) -> bool:
        return self._killed or self._cancelled

    # -- request ---------------------------------------------------------------

    def _build_body(self, first: tuple) -> CoExpression:
        """Validate the request envelope and build its body.

        Every field is client input: a malformed one is a
        :class:`PipeError` the driver reports as ``WIRE_ERROR`` then
        ``WIRE_CLOSE``, never a value a later tick trips over.
        """
        kind, *payload = first
        if kind not in (WIRE_SPAWN, WIRE_CALL) or not payload:
            raise PipeError(f"expected a spawn/call request, got {kind!r}")
        request = payload[0]
        self.request_name = request.get("name") or kind
        try:
            coalescer = Coalescer(
                request.get("batch", 1), request.get("max_linger")
            )
        except ValueError as error:
            raise PipeError(f"request {error}") from None
        interval = request.get("heartbeat_interval")
        if interval is not None and not (_is_number(interval) and interval > 0):
            raise PipeError(
                f"request heartbeat_interval must be None or a finite "
                f"number > 0, got {interval!r}"
            )
        if type(request.get("quota", False)) is not bool:
            raise PipeError(
                f"request quota must be True or False, got {request['quota']!r}"
            )
        if self.server.max_batch is not None:
            # The coalescer holds up to one batch before the sender
            # blocks on credit, so this caps per-session buffered items
            # no matter what slice size the client asks for.
            coalescer.batch = min(coalescer.batch, self.server.max_batch)
        self._coalescer = coalescer
        if interval is not None:
            # Raised to the tick floor, so no request can make the
            # reader beat in a tight loop.
            self.heartbeat_interval = max(float(interval), _MIN_TICK)
        if kind == WIRE_SPAWN:
            if not self.server.allow_spawn:
                raise PipeError(
                    f"server {self.server.name!r} does not accept spawn "
                    "requests (allow_spawn=False); use a registered factory"
                )
            factory, env = pickle.loads(request["body"])
            return CoExpression(factory, lambda: env, name=self.request_name)
        factory = self.server._factory(request["name"])
        args = tuple(request.get("args") or ())
        return CoExpression(factory, lambda: args, name=self.request_name)

    # -- credit ----------------------------------------------------------------

    def _apply_grant(self, amount: int | None) -> None:
        """The credit arithmetic of one ``WIRE_CREDIT`` (None = unlimited).

        A server ``max_credit`` quota caps outstanding credit here, at
        the grant path — the one place every credit enters.  Bounded
        grants accumulate only up to the quota.  An *unlimited* grant
        (the client's channel is unbounded, so it will never send
        another credit envelope) becomes quota-sized **greedy** credit
        instead: :meth:`_refill` self-replenishes it, so the stream
        proceeds in quota-sized slices rather than wedging on a
        replenishment that cannot come.
        """
        quota = self.server.max_credit
        if amount is None:
            if quota is None:
                self._credit = None
            else:
                self._greedy = True
                self._credit = quota
        elif self._credit is not None:
            self._credit += amount
            if quota is not None and self._credit > quota:
                self._credit = quota

    def grant(self, amount: int | None) -> None:
        """Apply one ``WIRE_CREDIT`` envelope (see :meth:`_apply_grant`)
        and wake a sender waiting for credit."""
        with self._guard:
            self._apply_grant(amount)
            self._wake()

    def _refill(self) -> bool:
        """Replenish greedy credit; False when only the client can."""
        if self._greedy:
            self._credit = self.server.max_credit
            return True
        return False

    def _take(self) -> list | None:
        """Drain the slice of the coalescer the current credit covers
        and charge it (None = no credit)."""
        credit = self._credit
        if credit == 0:
            return None
        slice_ = self._coalescer.drain(credit)
        if credit is not None:
            self._credit = credit - len(slice_)
        return slice_

    # -- sender ----------------------------------------------------------------

    def _check_deadline(self, deadline: Deadline) -> None:
        """Raise the session-deadline crash once *deadline* has expired.

        A reported crash, not a kill: the driver's failure path flushes
        buffered data first, so the client still receives everything
        produced within budget.
        """
        if not deadline.expired():
            return
        if lifecycle_enabled():
            emit_lifecycle(
                Event(
                    EventKind.DEADLINE_EXPIRED,
                    f"pipe:{self.request_name}",
                    0,
                    {"where": "session", "remaining": 0.0},
                )
            )
        raise PipeDeadlineExceeded(
            f"session {self.request_name!r}: deadline exceeded (session)",
            where="session",
        )

    def _control_reply(self, envelope: tuple) -> tuple | None:
        """The answer to one control-session envelope (``WIRE_PING`` /
        ``WIRE_PEERS``); None for anything else — a protocol violation
        that drops the connection."""
        kind = envelope[0]
        arg = envelope[1] if len(envelope) > 1 else None
        if kind == WIRE_PING:
            return (WIRE_PONG, arg)
        if kind == WIRE_PEERS:
            if arg:
                self.server._merge_peers(arg)
            return (WIRE_PEERS, self.server.known_peers())
        return None

    # -- reader ----------------------------------------------------------------

    def _dispatch(self, envelope: tuple) -> bool:
        """Apply one control-channel envelope; True when the reader
        must stop (the session was cancelled or killed)."""
        self._stall_at = None  # a whole frame arrived
        kind = envelope[0]
        if kind == WIRE_CREDIT:
            amount = envelope[1] if len(envelope) > 1 else None
            if amount is None or (type(amount) is int and amount >= 0):
                self.grant(amount)
                return False
            self.kill()  # a credit no window can hold: protocol violation
            return True
        if kind == WIRE_DEADLINE:
            # Budget, never a timestamp: re-anchor against our own
            # monotonic clock (see repro.coexpr.deadline).
            budget = envelope[1] if len(envelope) > 1 else 0.0
            try:
                self._deadline = Deadline(float(budget))
            except (TypeError, ValueError):
                pass  # malformed budget: ignore, don't kill the stream
            return False
        if kind == WIRE_CANCEL:
            self.kill()
            return True
        return False  # anything else (a stray beat) is ignored

    def _stalled(self, partial: bool) -> bool:
        """The mid-frame stall bound: True once a frame has stayed
        *partial* for ``stall_intervals`` heartbeat intervals — a
        wedged client must not pin a session and its socket forever."""
        if not partial:
            self._stall_at = None
            return False
        now = time.monotonic()
        if self._stall_at is None:
            self._stall_at = (
                now + self.server.stall_intervals * self.heartbeat_interval
            )
            return False
        return now >= self._stall_at

    def _reader_wait(self, now: float, beat_at: float) -> float:
        """How long the reader's next receive may wait for a frame."""
        if self._finished:
            return self.heartbeat_interval  # draining: nothing to send
        with self._guard:
            if self._credit == 0:
                # Nothing can leave before a grant, and a grant is a
                # frame: it ends the receive whatever the wait.
                return max(beat_at - now, _MIN_TICK)
            return self._coalescer.sleep_for(now, beat_at)

    # -- flows -----------------------------------------------------------------
    #
    # One copy of the flows that interleave these rules with I/O.  Each
    # driver supplies the awaited primitives (_recv_request, _recv_step,
    # _send, _flush, and _yield when its _yield_slice is finite) and
    # _partial, _start_reader, _half_close and _close.  The event-loop
    # driver's primitives suspend; the threaded driver's block instead,
    # so its flows never suspend and run to completion under _run_sync.

    async def _serve(self) -> None:
        """The session's main flow: request → body → stream → terminator.

        A request with ``"quota": True`` is answered with one
        ``(WIRE_QUOTA, max_credit)`` before anything else of the stream,
        so the client can size its credit grants to the server's cap.

        A connection whose first envelope is a control kind
        (``WIRE_PING`` / ``WIRE_PEERS``) never builds a body: it
        becomes a control session — the membership tier's probe and
        gossip channel — served until the peer hangs up.
        """
        try:
            try:
                envelope = await self._recv_request()
            except _VANISHED:
                return  # client vanished before asking for anything
            except Exception as error:  # noqa: BLE001 - reported to the client
                await self._send_failure(error)
                return
            if envelope[0] in (WIRE_PING, WIRE_PEERS):
                self.request_name = "control"
                await self._run_control(envelope)
                return
            try:
                coexpr = self._build_body(envelope)
            except Exception as error:  # noqa: BLE001 - reported to the client
                await self._send_failure(error)
                return
            self.coexpr = coexpr
            self.server._note_session(self)
            if envelope[1].get("quota"):
                # Before the reader starts, so nothing (not even a beat)
                # can precede it.
                try:
                    await self._send((WIRE_QUOTA, self.server.max_credit))
                except _GONE:
                    return  # client gone before the stream began
            self._start_reader()
            await self._stream(coexpr)
        finally:
            self._finish()

    async def _stream(self, coexpr: CoExpression) -> None:
        """Run the body to exhaustion, coalescing its results, then send
        the terminator (data first, then any error, then close).

        A full batch is flushed at once (waiting for credit); a partial
        one is the reader's to flush once it out-lingers its bound.
        """
        guard = self._guard
        coalescer = self._coalescer
        last_yield = time.monotonic()
        try:
            while not self._stopping():
                deadline = self._deadline
                if deadline is not None:
                    self._check_deadline(deadline)
                value = coexpr.activate()
                if value is FAIL:
                    break
                now = time.monotonic()
                with guard:
                    full = coalescer.append(value, now)
                if full:
                    await self._flush(block=True)
                if now - last_yield >= self._yield_slice:
                    await self._yield()
                    last_yield = time.monotonic()
            await self._flush(block=True)
            if not self._killed:
                await self._send((WIRE_CLOSE,))
        except _GONE:
            pass  # peer gone mid-stream: nothing left to tell it
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - forwarded to the client
            await self._send_failure(error)

    async def _run_control(self, envelope: tuple | None) -> None:
        """Serve ping/peers envelopes until the peer closes or goes
        silent.

        A prober holds this connection open across rounds, so the loop
        answers any number of control frames.  Each receive waits one
        heartbeat interval — short enough that a graceful shutdown
        (``finish`` sets ``_cancelled``) is honored promptly — and a
        peer silent for the request timeout is dropped, so an abandoned
        prober cannot pin a session slot forever.
        """
        idle_deadline = time.monotonic() + _REQUEST_TIMEOUT
        try:
            while not self._stopping():
                if envelope is not None:
                    reply = self._control_reply(envelope)
                    if reply is None:
                        return  # protocol violation: drop the connection
                    await self._send(reply)
                    idle_deadline = time.monotonic() + _REQUEST_TIMEOUT
                elif time.monotonic() >= idle_deadline:
                    return  # silent peer: reclaim the slot
                envelope = await self._recv_step(self.heartbeat_interval)
        except _GONE:
            pass  # peer gone: the control session just ends

    async def _send_failure(self, error: BaseException) -> None:
        """Data first, then the error, then close — the wire invariant."""
        try:
            await self._flush(block=True)
            await self._send((WIRE_ERROR, encode_error(error)))
            await self._send((WIRE_CLOSE,))
        except _GONE:
            pass  # peer gone: the error dies with the session

    async def _run_reader(self) -> None:
        """Control channel + beater + linger flusher: credits, deadlines,
        cancellation, liveness, and partial batches.

        Each receive waits until the next beat or until a partial batch
        can come due, whichever is sooner (never less than one
        :data:`~repro.coexpr.coalesce._MIN_TICK`).  A receive that ends
        without a whole frame counts toward the mid-frame stall bound.
        Whatever ended the receive, a batch that has out-lingered its
        bound is then flushed and a due ``WIRE_BEAT`` is sent — one per
        heartbeat interval, however many frames arrive.

        Once the sender has finished the reader switches to *drain*
        mode — a lingering close that keeps consuming until the client
        closes its end.  Closing our socket any earlier would RST the
        connection while the client's late credit grants are still in
        flight, destroying the stream tail (data, the error, the close
        terminator) in the client's kernel buffer.
        """
        now = time.monotonic()
        beat_at = now + self.heartbeat_interval
        try:
            while not self._killed:
                try:
                    envelope = await self._recv_step(self._reader_wait(now, beat_at))
                    if envelope is not None:
                        if self._dispatch(envelope):
                            break
                    elif self._stalled(self._partial()):
                        self.kill()  # stalled mid-frame: a dead client
                        break
                    if self._finished:
                        continue  # draining a half-closed socket: no beats
                    now = time.monotonic()
                    with self._guard:
                        due = self._coalescer.due_in(now) == 0
                    if due:
                        await self._flush(block=False)
                    if now >= beat_at:
                        await self._send((WIRE_BEAT, now))
                        beat_at = now + self.heartbeat_interval
                except EOFError:
                    if not self._finished:
                        self.kill()  # client left mid-stream: stop the body
                    break
                except _GONE:
                    # Torn connection: stop the body, wake the sender.
                    self.kill()
                    break
        finally:
            # Whichever of the reader and the sender finishes last
            # closes the socket (see _finish).
            with self._guard:
                self._reader_done = True
                finished = self._finished
            if finished:
                self._teardown()

    # -- teardown --------------------------------------------------------------

    def finish(self) -> None:
        """Graceful teardown: stop producing, flush, close the stream.

        Closing the co-expression makes its next activation fail, so the
        sender falls out of its loop naturally — delivering the batch it
        had coalesced and the ``WIRE_CLOSE`` terminator before the
        socket goes down.
        """
        with self._guard:
            self._cancelled = True
            self._wake()
        if self.coexpr is not None:
            self.coexpr.close()

    def _finish(self) -> None:
        """The sender's exit: stop the body and tear the session down.

        While the reader still runs, it tears down instead, when it
        exits: the socket is closed by whichever of the two finishes
        last, never while the other may still use it.  Unless the
        session was killed, that reader also gets the lingering close
        (see :meth:`_run_reader`): our FIN now, the close at the
        client's.
        """
        if self.coexpr is not None:
            self.coexpr.close()
        with self._guard:
            if self._finished:
                return
            self._finished = True
            reader_running = self.reader_handle is not None and not self._reader_done
            if reader_running and not self._killed:
                self._half_close()
        if not reader_running:
            self._teardown()

    def _teardown(self) -> None:
        """Final socket close + deregistration (idempotent)."""
        with self._guard:
            if self._torn:
                return
            self._torn = True
            self._close()
        self.server._forget(self)


class Session(_SessionRules):
    """One client connection: a body, its sender thread, and its reader
    thread — the threaded driver over :class:`_SessionRules`."""

    _ids = itertools.count(1)

    __slots__ = ("framer", "_cond", "_order")

    def __init__(self, server: "GeneratorServer", sock: Any, peer: Any) -> None:
        super().__init__(server, peer, f"net-session-{next(self._ids)}")
        # A server that does not execute client code must not unpickle
        # arbitrary client objects either: without allow_spawn, frames
        # decode through the restricted unpickler (primitives only).
        self.framer = SocketFramer(sock, trusted=server.allow_spawn)
        self._cond = self._guard = threading.Condition()
        #: Serializes the drain/send-WIRE_DATA pair across the two
        #: flushing threads (sender and the reader's linger tick) —
        #: separate from ``_cond`` so credit grants still land while a
        #: sendall is throttled by the socket.
        self._order = threading.Lock()

    # -- worker/session protocol (scheduler accounting) ------------------------

    def is_alive(self) -> bool:
        for handle in (self.handle, self.reader_handle):
            if handle is not None and handle.is_alive():
                return True
        return False

    def join(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in (self.handle, self.reader_handle):
            if handle is None:
                continue
            budget = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            handle.join(budget)
        return not self.is_alive()

    def kill(self) -> None:
        """Abrupt teardown: shut the socket down now (idempotent).

        The chaos path — the client sees a torn connection, its
        watchdog raises :class:`~repro.errors.PipeConnectionLost`, and
        supervision (if any) reconnects.  Also what scheduler shutdown
        and the graceful path's straggler sweep use.

        A shutdown, not a close: it wakes whichever thread is blocked on
        the socket but keeps the descriptor allocated.  Closing it here
        would free the number while the other thread may be about to use
        it, and the accept loop reuses freed numbers at once — a late
        send or shutdown would then land on another client's
        connection.  :meth:`_teardown` closes the socket once both
        threads are done with it.
        """
        with self._cond:
            self._killed = True
            self._wake()
            if not self._torn:
                try:
                    self.framer.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # never connected, or the peer already reset it
        if self.coexpr is not None:
            self.coexpr.close()

    def _wake(self) -> None:
        self._cond.notify_all()

    # -- sender ----------------------------------------------------------------

    async def _flush(self, block: bool) -> None:
        """Send buffered items as credit allows.

        ``block=True`` (the sender) waits for credit until the buffer is
        empty; ``block=False`` (the reader's linger tick) sends whatever
        the current credit covers and returns.

        Both threads flush, so the pop-slice/send pair runs under the
        ``_order`` lock: preempted between the two, one flusher could
        otherwise ship an earlier slice *after* the other's later one —
        or let the sender emit ``WIRE_CLOSE``/``WIRE_ERROR`` while the
        reader still held an unsent slice.  ``_order`` is not ``_cond``,
        so a sendall throttled by the socket never stops the reader from
        applying credit grants; and the credit wait happens *outside*
        ``_order``, so a credit-starved sender never locks the reader's
        linger tick out of the control channel the credit must arrive on.
        """
        while True:
            with self._order:
                with self._cond:
                    if not self._coalescer or self._killed:
                        return
                    slice_ = self._take()
                if slice_ is not None:
                    self.framer.send((WIRE_DATA, slice_))
                    continue
            # Out of credit with items still buffered.
            if not block:
                return
            with self._cond:
                if (
                    self._coalescer
                    and self._credit == 0
                    and not self._killed
                    and not self._refill()
                ):
                    self._cond.wait(_CREDIT_SLICE)

    def run(self) -> None:
        """The sender thread: the shared :meth:`_serve` flow."""
        _run_sync(self._serve())

    def _start_reader(self) -> None:
        self.reader_handle = self.server.scheduler.submit(
            lambda: _run_sync(self._run_reader()), name=f"{self.name}-reader"
        )

    async def _send(self, envelope: tuple) -> None:
        self.framer.send(envelope)

    async def _recv_request(self) -> tuple:
        # The request read is the only timed receive on this socket: the
        # reader thread polls with select over a *blocking* socket, so
        # the sender's sendall never inherits a receive timeout (a send
        # throttled past one heartbeat interval is flow control, not a
        # dead peer).
        self.framer.sock.settimeout(_REQUEST_TIMEOUT)
        try:
            return self.framer.recv()
        finally:
            try:
                self.framer.sock.settimeout(None)
            except OSError:
                pass

    async def _recv_step(self, wait: float) -> tuple | None:
        """The next envelope, or None after *wait* seconds without a
        whole frame.

        The socket stays blocking (a receive timeout would infect the
        sender's sendall), so this polls with select and receives
        through the framer's one-step
        :meth:`~repro.coexpr.wire.SocketFramer.try_recv` — never
        blocking past the bytes select reported.
        """
        limit = time.monotonic() + wait
        while True:
            if not self.framer.buffered():
                wait = limit - time.monotonic()
                if wait <= 0:
                    return None
                try:
                    ready, _, _ = select.select([self.framer.sock], [], [], wait)
                except ValueError as error:  # closed under us (fd -1)
                    raise OSError(str(error)) from error
                if not ready:
                    return None
            envelope = self.framer.try_recv()
            if envelope is not None:
                return envelope

    def _partial(self) -> bool:
        # Asked of the framer, not select: partial bytes an earlier
        # receive pulled into user space never poll readable again.
        return self.framer.partial()

    # -- teardown --------------------------------------------------------------

    def _half_close(self) -> None:
        try:
            self.framer.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _close(self) -> None:
        self.framer.close()


class GeneratorServer:
    """A TCP listener hosting named pipeline factories.

    ``register(name, factory)`` publishes a factory clients can run with
    :class:`~repro.net.client.RemotePipe`; with ``allow_spawn=True``
    (default) the server also runs bodies clients ship by pickle — the
    transparent ``backend="remote"`` tier.  ``port=0`` binds an
    ephemeral port (read :attr:`address` after :meth:`start`).

    **Trust model: the wire is for trusted networks only.**  With
    ``allow_spawn=True`` every connecting client can execute arbitrary
    code by design — that is what the spawn tier *is* — so the server
    must only ever be reachable by clients trusted with the host.  With
    ``allow_spawn=False`` the protocol surface shrinks to registered
    factories and frames decode through a restricted unpickler that
    refuses global lookups (client envelopes — requests, credit,
    cancel — are then limited to primitive payloads, so ``WIRE_CALL``
    args must be primitive too); that removes the unpickling RCE, but
    the port is still unauthenticated.  Binding a non-loopback host
    emits a :class:`RuntimeWarning` for exactly this reason.

    Every session's threads come from *scheduler* (default: the process
    default), and every session registers with its session accounting —
    a shut-down scheduler closes the server's connections along with
    everything else it owns.

    **Admission control.**  ``max_sessions`` bounds concurrently open
    sessions: an over-capacity dial is answered with a single
    ``WIRE_BUSY(retry_after)`` envelope and closed — load is *shed*,
    never silently queued, so the client fails fast (and its circuit
    breaker learns the server is saturated) instead of hanging.
    ``max_credit`` caps each session's outstanding flow-control credit
    and ``max_batch`` caps its coalescing slice, so one greedy client
    cannot make the server buffer unboundedly on its behalf.  A
    client that asks is told ``max_credit`` in a ``WIRE_QUOTA``
    envelope, so it never owes more than the server will accept.
    ``stall_intervals`` tunes how many silent heartbeat intervals a
    mid-frame client gets before its session is killed (the hostile/
    wedged-client bound).
    """

    #: Lifecycle events announcing each new session.
    _SESSION_EVENTS = (EventKind.NET_SESSION,)

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: PipeScheduler | None = None,
        heartbeat_interval: float = 0.1,
        allow_spawn: bool = True,
        name: str = "genserver",
        max_sessions: int | None = None,
        max_credit: int | None = None,
        max_batch: int | None = None,
        retry_after: float = 0.5,
        stall_intervals: float = _STALL_INTERVALS,
        advertise: tuple | None = None,
        weight: float = 1.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 or None")
        if max_credit is not None and max_credit < 1:
            raise ValueError("max_credit must be >= 1 or None")
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1 or None")
        if retry_after < 0:
            raise ValueError("retry_after must be >= 0")
        if stall_intervals <= 0:
            raise ValueError("stall_intervals must be > 0")
        self.host = host
        self.port = port
        self.scheduler = scheduler or default_scheduler()
        self.heartbeat_interval = heartbeat_interval
        self.allow_spawn = allow_spawn
        self.name = name
        #: Admission bound (None = unlimited): dials past this many open
        #: sessions are shed with ``WIRE_BUSY``.
        self.max_sessions = max_sessions
        #: Per-session cap on outstanding credit (None = honor grants).
        self.max_credit = max_credit
        #: Per-session cap on the coalescing slice (None = honor request).
        self.max_batch = max_batch
        #: Seconds a shed client is told to wait before redialing.
        self.retry_after = retry_after
        #: Heartbeat intervals of mid-frame silence before a session is
        #: killed as stalled.
        self.stall_intervals = stall_intervals
        if weight <= 0:
            raise ValueError("weight must be > 0")
        #: The ``(host, port)`` this server *gossips* — for a replica
        #: behind NAT or a container boundary, the reachable address
        #: rather than the bind address (``junicon-serve --advertise``).
        #: None = the bound address.
        self.advertise = (
            None if advertise is None else (str(advertise[0]), int(advertise[1]))
        )
        #: This replica's gossiped capacity weight (vnode scaling on
        #: the client's weighted ring).
        self.weight = float(weight)
        self._peers: dict[tuple, float] = {}  # known fleet: address -> weight
        self._factories: dict[str, Callable[..., Any]] = {}
        self._listener: socket.socket | None = None
        self._accept_handle: Any = None
        self._lock = threading.Lock()
        self._sessions: list[Session] = []
        self._stopped = False
        self._started = False
        self._served = 0
        self._shed_count = 0

    # -- registry --------------------------------------------------------------

    def register(self, name: str, factory: Callable[..., Any]) -> "GeneratorServer":
        """Publish *factory* under *name* for ``call`` requests.

        ``factory(*args)`` must return what a co-expression body may be:
        an iterator, an iterable, or an
        :class:`~repro.runtime.iterator.IconIterator`.
        """
        if not callable(factory):
            raise TypeError(f"factory for {name!r} is not callable: {factory!r}")
        with self._lock:
            self._factories[name] = factory
        return self

    def _factory(self, name: Any) -> Callable[..., Any]:
        with self._lock:
            try:
                return self._factories[name]
            except KeyError:
                raise PipeError(
                    f"server {self.name!r} has no factory {name!r} "
                    f"(registered: {sorted(self._factories) or 'none'})"
                ) from None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "GeneratorServer":
        """Bind, listen, and run the accept loop on a scheduler thread."""
        if not self._claim_start():
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(_ACCEPT_SLICE)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        # The server itself registers as a session: a shut-down
        # scheduler calls kill(), which closes the listener and stops
        # the accept loop along with every open connection.
        self.scheduler.track_session(self)
        try:
            self._accept_handle = self.scheduler.submit(
                self._accept_loop, name=f"{self.name}-accept"
            )
        except BaseException:
            self.scheduler.untrack_session(self)
            listener.close()
            raise
        return self

    def _claim_start(self) -> bool:
        """The shared ``start()`` prologue: False when already started;
        refuses a shut-down server; warns about a non-loopback bind."""
        with self._lock:
            if self._stopped:
                raise PipeError(f"start on a shut-down {type(self).__name__}")
            if self._started:
                return False
            self._started = True
        self._warn_non_loopback()
        return True

    def _warn_non_loopback(self) -> None:
        """Warn (at the ``start()`` caller) before binding a host that
        admits non-local clients: the wire is unauthenticated."""
        if not _is_loopback(self.host):
            warnings.warn(
                f"{type(self).__name__} {self.name!r} is binding non-loopback "
                f"host {self.host!r}: the wire protocol is unauthenticated "
                + (
                    "and allow_spawn=True lets any client execute arbitrary "
                    "code — expose it to trusted networks only"
                    if self.allow_spawn
                    else "— expose it to trusted networks only"
                ),
                RuntimeWarning,
                stacklevel=4,
            )

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves an ephemeral ``port=0``."""
        return (self.host, self.port)

    @property
    def advertised_address(self) -> tuple:
        """What this server tells the fleet it is reachable as:
        ``advertise`` when set (NAT/containers), else the bound
        address."""
        return self.advertise if self.advertise is not None else self.address

    # -- gossip fleet ----------------------------------------------------------

    def known_peers(self) -> list:
        """This server's fleet view as primitive wire triples —
        ``[[host, port, weight], ...]`` — itself (advertised address)
        first.  The ``WIRE_PEERS`` reply payload."""
        host, port = self.advertised_address
        with self._lock:
            peers = [[host, port, self.weight]] + [
                [h, p, w] for (h, p), w in self._peers.items()
                if (h, p) != (host, port)
            ]
        return peers

    def add_peer(self, address: Any, weight: float | None = None) -> None:
        """Record a fleet member this server should gossip about.
        *address* takes any member spelling (``"host:port"``, a pair,
        a weighted triple); an explicit ``weight=`` wins."""
        from .membership import as_member

        (host, port), parsed = as_member(address)
        weight = parsed if weight is None else float(weight)
        if (host, port) == self.advertised_address:
            return
        with self._lock:
            self._peers[(host, port)] = weight

    def _merge_peers(self, entries: Any) -> None:
        """Fold a ``WIRE_PEERS`` payload into the fleet view (the pull
        half of a push-pull exchange).  Malformed entries are dropped;
        the payload is an unauthenticated claim, so this is additive
        advisory state — never an eviction."""
        from .membership import parse_wire_members

        me = self.advertised_address
        with self._lock:
            for address, weight in parse_wire_members(entries):
                if address != me:
                    self._peers[address] = weight

    def announce(self, targets: Any = None) -> int:
        """Push-pull a ``WIRE_PEERS`` exchange with each target (default:
        every known peer), merging what they reply; returns how many
        exchanges completed.  Best-effort by design — a replica joining
        a fleet announces itself to a seed so gossiping pools discover
        it, and an unreachable seed is simply skipped.
        """
        from .membership import as_member, exchange_peers

        if targets is None:
            with self._lock:
                addresses = list(self._peers)
        else:
            addresses = [as_member(value)[0] for value in targets]
        me = self.advertised_address
        count = 0
        known = [
            ((entry[0], entry[1]), entry[2]) for entry in self.known_peers()
        ]
        for address in addresses:
            if address == me:
                continue
            try:
                fleet = exchange_peers(address, known)
            except OSError:
                continue
            count += 1
            with self._lock:
                for peer, weight in fleet:
                    if peer != me:
                        self._peers[peer] = weight
        return count

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped:
            try:
                sock, peer = listener.accept()
            except (socket.timeout, TimeoutError):
                continue
            except OSError:
                return  # listener closed under us: shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.max_sessions is not None:
                # Only this thread admits sessions, so a check under the
                # lock cannot be raced upward — a concurrent _forget can
                # only free a slot, which at worst sheds one dial early.
                with self._lock:
                    over = len(self._sessions) >= self.max_sessions
                if over:
                    self._shed(sock, peer)
                    continue
            session = Session(self, sock, peer)
            try:
                self.scheduler.track_session(session)
            except SchedulerShutdownError:
                sock.close()
                return
            with self._lock:
                if self._stopped:
                    self.scheduler.untrack_session(session)
                    sock.close()
                    return
                self._sessions.append(session)
                self._served += 1
            try:
                session.handle = self.scheduler.submit(
                    session.run, name=session.name
                )
            except SchedulerShutdownError:
                session._teardown()  # never ran: close and deregister
                return

    def _shed(self, sock: Any, peer: Any) -> None:
        """Refuse one over-capacity dial: ``WIRE_BUSY(retry_after)``,
        then close — the client fails fast instead of hanging.

        The close is a *lingering* half-close: an abrupt ``close()``
        while the client's handshake envelopes are still in flight would
        RST the connection and destroy the busy reply in the client's
        kernel buffer — the client would see a torn dial with no retry
        hint.  Sending FIN first and draining the handshake bytes (off
        the accept thread, so a shed storm cannot serialize admission)
        lets the envelope land."""
        self._count_shed(peer)
        try:
            SocketFramer(sock).send((WIRE_BUSY, self.retry_after))
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            try:
                sock.close()
            except OSError:
                pass
            sock = None  # the impatient client already hung up
        if sock is not None:
            try:
                self.scheduler.submit(
                    lambda: self._drain_shed(sock), name=f"{self.name}-shed"
                )
            except SchedulerShutdownError:
                try:
                    sock.close()
                except OSError:
                    pass

    def _count_shed(self, peer: Any) -> None:
        """Account one shed dial: bump the counter, emit ``SHED``.

        Called before the busy reply goes out: the moment the reply is
        on the wire the client can raise PipeServerBusy and a tracer
        watching for the shed may already have unsubscribed.
        """
        with self._lock:
            self._shed_count += 1
            active = len(self._sessions)
        if lifecycle_enabled():
            emit_lifecycle(
                Event(
                    EventKind.SHED,
                    f"server:{self.name}",
                    0,
                    {
                        "peer": peer,
                        "active": active,
                        "max_sessions": self.max_sessions,
                        "retry_after": self.retry_after,
                    },
                )
            )

    @staticmethod
    def _drain_shed(sock: Any) -> None:
        """Consume a shed client's in-flight handshake until it closes
        its end (bounded: a writer that never stops is abandoned)."""
        limit = time.monotonic() + _SHED_LINGER
        try:
            sock.settimeout(0.05)
            while time.monotonic() < limit:
                try:
                    if not sock.recv(4096):
                        break  # client saw the busy reply and hung up
                except (socket.timeout, TimeoutError):
                    continue
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _note_session(self, session: _SessionRules) -> None:
        if lifecycle_enabled():
            for kind in self._SESSION_EVENTS:
                emit_lifecycle(
                    Event(
                        kind,
                        f"pipe:{session.request_name}",
                        0,
                        {
                            "peer": session.peer,
                            "name": session.request_name,
                            "server": self.name,
                        },
                    )
                )

    def _forget(self, session: Session) -> None:
        with self._lock:
            try:
                self._sessions.remove(session)
            except ValueError:
                pass
        self.scheduler.untrack_session(session)

    def active_sessions(self) -> list:
        """Sessions currently open (snapshot)."""
        with self._lock:
            return list(self._sessions)

    def kill_sessions(self) -> int:
        """Hard-kill every live session (the chaos hook); returns the
        count.  Clients see :class:`~repro.errors.PipeConnectionLost`."""
        sessions = self.active_sessions()
        for session in sessions:
            session.kill()
        return len(sessions)

    @property
    def stats(self) -> dict:
        """``{"served": total sessions accepted, "active": open now,
        "shed": dials refused at capacity}``."""
        with self._lock:
            return {
                "served": self._served,
                "active": len(self._sessions),
                "shed": self._shed_count,
            }

    def stats_line(self) -> str:
        """One operator-readable line of :attr:`stats` — the shape
        ``junicon-serve --stats-interval`` logs to stderr."""
        snapshot = self.stats
        host, port = self.address
        return (
            f"stats {host}:{port} served={snapshot['served']} "
            f"active={snapshot['active']} shed={snapshot['shed']}"
        )

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting and close every session gracefully.

        Each open session stops producing, flushes its coalesced batch,
        and sends ``WIRE_CLOSE`` — in-flight results are delivered, not
        dropped.  Sessions that do not drain within *timeout* are
        killed.  Idempotent.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        sessions = self.active_sessions()
        for session in sessions:
            session.finish()
        if wait:
            deadline = time.monotonic() + timeout
            for session in sessions:
                session.join(max(0.0, deadline - time.monotonic()))
            for session in sessions:
                if session.is_alive():
                    session.kill()
                    session.join(1.0)
        if self._accept_handle is not None:
            self._accept_handle.join(1.0)
        self.scheduler.untrack_session(self)

    # -- session protocol (scheduler accounting) -------------------------------

    def kill(self) -> None:
        """Scheduler-shutdown hook: stop accepting, close every session."""
        self.shutdown(wait=False)

    def is_alive(self) -> bool:
        handle = self._accept_handle
        return handle is not None and handle.is_alive()

    def join(self, timeout: float | None = None) -> bool:
        handle = self._accept_handle
        if handle is None:
            return True
        handle.join(timeout)
        return not handle.is_alive()

    def install_signal_handlers(self) -> threading.Event:
        """Arrange a graceful :meth:`shutdown` on SIGTERM/SIGINT.

        The handler itself only sets the returned event — a blocking
        shutdown (lock acquisition, multi-second joins) inside a signal
        handler can deadlock on state the interrupted frame holds, or
        re-enter when a second signal lands.  The *caller* waits on the
        event and runs the shutdown on an ordinary thread::

            stop = server.install_signal_handlers()
            stop.wait()
            server.shutdown(wait=True)

        Call from the main thread (a CPython requirement for
        ``signal.signal``); ``junicon-serve`` is exactly this pattern.
        """
        import signal

        stop = threading.Event()

        def _handler(signum: int, frame: Any) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
        return stop

    def __enter__(self) -> "GeneratorServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopped
            else ("listening" if self._started else "unstarted")
        )
        return (
            f"{type(self).__name__}({self.name}, {self.host}:{self.port}, "
            f"{state}, active={len(self._sessions)})"
        )
