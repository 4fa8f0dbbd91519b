"""The stream pump — the parent half of a pipe whose producer runs elsewhere.

A process pipe (:mod:`repro.coexpr.proc`) and a remote pipe
(:mod:`repro.net.client`) both run their producer as one session of the
generator server (:class:`~repro.net.server.Session`) on the far end of
a stream socket — a forked child's ``socketpair`` end, or a TCP
connection — and receive its results as wire envelopes
(:mod:`repro.coexpr.wire`).  On this side one loop,
:meth:`StreamPump.pump`, is transport and monitor at once: it forwards
the envelopes into the pipe's ordinary
:class:`~repro.coexpr.channel.Channel` — so ``@`` stays a ``take``, as
in the paper — and it watches the stream's liveness.

The pump owns the client half of the session protocol:

* the handshake: the request (which asks for the server's quota), the
  initial credit window and, when the pipe carries one, the deadline
  budget;
* the receive loop and its cancel check;
* the heartbeat watchdog: every envelope refreshes the deadline, and
  silence past ``heartbeat_timeout`` is a loss;
* the envelope dispatch: ``QUOTA`` sizes the credit grants, ``DATA``
  goes into the channel, ``ERROR`` after the data before it, ``CLOSE``
  ends the stream, ``BEAT`` is liveness only, and a kind it does not
  know, or a payload that does not fit its kind, is a loss ("protocol
  violation");
* coalesced credit, and cancel as ``WIRE_CANCEL``;
* the loss report, made at most once: the transport's error goes into
  the channel after every result delivered before it;
* the teardown: close the channel, release the transport, and apply
  the pipe's end-of-worker upstream rule (:meth:`Pipe._worker_done
  <repro.coexpr.pipe.Pipe._worker_done>`).

Flow control is credit-based: the pump grants credit equal to the
pipe's capacity up front (None = unlimited for an unbounded channel)
and gives credit back only for items ``put_many`` has delivered — so
the producer's credit plus the data in flight never exceed one window,
and a slow consumer throttles the far producer the same way it
throttles a local worker blocked on a full channel.  Grants are
coalesced: the pump owes the delivered count and pays it once half
the effective window is owed — or the whole window, when that is 3 or
less and half would be a grant per item.  The effective window is
``min(window, Q)`` for the quota *Q* the server answers with
``WIRE_QUOTA`` before the stream, so the grant count is set by the
stream, the window and the quota, not by which side is faster.  Until
the quota is known every slice is paid at once, since the clamp is
unknown.

A transport subclass supplies its loss error (:meth:`StreamPump._loss`),
its release step and whatever envelopes only it speaks
(:meth:`~StreamPump._control`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..errors import ChannelClosedError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from .options import POLL_SLICE
from .wire import (
    WIRE_BEAT,
    WIRE_CALL,
    WIRE_CANCEL,
    WIRE_CLOSE,
    WIRE_CREDIT,
    WIRE_DATA,
    WIRE_DEADLINE,
    WIRE_ERROR,
    WIRE_QUOTA,
    FrameError,
    SocketFramer,
    decode_error,
)


class StreamLost(Exception):
    """Raised inside the pump (or a transport hook) when the stream is
    lost; the pump reports :attr:`reason` once and stops."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class StreamPump:
    """One producer session across a socket plus the pump thread
    draining it.

    The pump body runs on a scheduler thread (:attr:`handle`), so it is
    joinable and leak-checked exactly like a thread-backend worker.
    """

    __slots__ = (
        "pipe",
        "scheduler",
        "name",
        "heartbeat_timeout",
        "handle",
        "framer",
        "window",
        "_loss_once",
        "_healthy",
        "_owed",
        "_threshold",
    )

    #: The monitor event a loss emits.
    LOST_EVENT = ""
    #: The ``transport`` a ``DEADLINE_PROPAGATED`` event names.
    TRANSPORT = ""

    def __init__(self, pipe: Any, scheduler: Any, name: str, sock: Any) -> None:
        self.pipe = pipe
        self.scheduler = scheduler
        self.name = name
        self.heartbeat_timeout = pipe.options.beat_timeout
        self.handle: Any = None
        self.framer = SocketFramer(sock)
        #: Credit window: the channel capacity (None = unbounded).
        self.window: int | None = pipe.capacity or None
        #: Held by the first loss report; never released.
        self._loss_once = threading.Lock()
        #: True once the stream proved the producer ran (first data,
        #: error or close envelope).
        self._healthy = False
        # Coalesced credit: items delivered but not yet granted back,
        # paid once `_threshold` are owed.  Until the server has told
        # its quota a clamp it cannot see could leave both sides
        # waiting, so every delivery is paid at once; WIRE_QUOTA then
        # sets the threshold from the effective window E =
        # min(window, quota): E itself when E <= 3 (half of it would be
        # a grant per item), else E // 2.  After the first grant is
        # clamped to E, the server's credit, the data in flight and the
        # owed count sum to E, so a pump that blocks owing less than
        # the threshold (never more than E) leaves the server credit or
        # data on the way.
        self._owed = 0
        self._threshold = 1

    # -- handshake -------------------------------------------------------------

    def handshake(self, name: str, kind: str = WIRE_CALL, **fields: Any) -> None:
        """Ask for the stream of the factory *name* — a ``WIRE_CALL``
        unless *kind* says otherwise, with the pipe's batching and
        heartbeat, the quota question and any further request *fields*
        — then ship the initial credit grant and (when the pipe carries
        one) the deadline budget: remaining seconds, the only form that
        survives a clock boundary."""
        options = self.pipe.options
        request = {
            "name": name,
            "batch": options.batch,
            "max_linger": options.max_linger,
            "heartbeat_interval": options.beat_interval,
            "quota": True,
        }
        request.update(fields)
        self.framer.send((kind, request))
        self.framer.send((WIRE_CREDIT, self.window))
        deadline = self.pipe.deadline
        if deadline is not None:
            remaining = deadline.remaining()
            self.framer.send((WIRE_DEADLINE, remaining))
            if lifecycle_enabled():
                emit_lifecycle(
                    Event(
                        EventKind.DEADLINE_PROPAGATED,
                        f"pipe:{self.name}",
                        0,
                        {"remaining": remaining, "transport": self.TRANSPORT},
                    )
                )
        self.framer.sock.settimeout(POLL_SLICE)

    # -- what a transport supplies ---------------------------------------------

    def _endpoints(self) -> tuple[Callable[[], tuple], Callable[[list], Any]]:
        """The receive primitive and the data sink.  A transport wraps
        the sink only while it has a per-item hook armed (the remote
        tier's chaos ticks), so the data path pays for none otherwise."""
        return self.framer.recv, self._deliver

    def _loss(self, reason: str) -> tuple[Exception, dict]:
        """The error the consumer sees for a loss, and the event value."""
        raise NotImplementedError

    def _release(self) -> None:
        """Free the transport once the pump is done."""
        self.framer.close()

    def _served(self) -> None:
        """The producer reported data, an error or its end: it ran."""
        self._healthy = True

    def _idle(self) -> None:
        """A receive slice passed with nothing; raise :class:`StreamLost`
        if the transport knows the producer is gone."""

    def _silent(self) -> None:
        """The producer missed its heartbeat deadline, and its loss is
        about to be reported: a transport that can stop it stops it."""

    def _control(self, envelope: tuple) -> None:
        """A kind outside the data path: ``WIRE_QUOTA`` sizes the credit
        grants; any other is a loss unless the transport speaks it."""
        if envelope[0] != WIRE_QUOTA:
            raise StreamLost(f"protocol violation: {envelope[0]!r} envelope")
        quota = envelope[1]
        if quota is not None and not (type(quota) is int and quota >= 1):
            raise StreamLost(f"protocol violation: {envelope!r}")
        window = self.window
        if window is not None:
            effective = window if quota is None else min(window, quota)
            self._threshold = effective if effective <= 3 else effective // 2

    # -- the pump --------------------------------------------------------------

    def pump(self) -> None:
        """Forward envelopes into the pipe's channel; watch liveness.

        The deadline is only *checked* when a receive times out and is
        refreshed by every envelope — so a pump that spent seconds
        blocked in ``put_many`` (slow consumer) finds the producer's
        buffered beats waiting and never false-positives.  A reset is an
        end of stream like an EOF: a Unix-socket peer that exits with
        credit grants unread resets the connection after its last
        envelope.
        """
        pipe = self.pipe
        out = pipe.out
        receive, deliver = self._endpoints()
        timeout = self.heartbeat_timeout
        deadline = time.monotonic() + timeout
        try:
            while not pipe._cancelled:
                try:
                    envelope = receive()
                except TimeoutError:
                    if time.monotonic() < deadline:
                        self._idle()
                        continue
                    self._silent()
                    raise StreamLost(f"no heartbeat within {timeout:.2f}s") from None
                except (EOFError, FrameError, ConnectionResetError) as error:
                    raise StreamLost(
                        "connection closed before end of stream"
                    ) from error
                except OSError as error:
                    raise StreamLost(f"transport error: {error!r}") from error
                deadline = time.monotonic() + timeout
                kind = envelope[0]
                if kind == WIRE_DATA:
                    deliver(envelope[1])
                elif kind == WIRE_BEAT:
                    pass
                elif kind == WIRE_ERROR:
                    self._served()
                    pipe._errored = True
                    out.put_error(decode_error(envelope[1]))
                elif kind == WIRE_CLOSE:
                    self._served()
                    return
                else:
                    self._control(envelope)
        except StreamLost as lost:
            if not pipe._cancelled:
                self._mark_lost(lost.reason)
        except (LookupError, TypeError, ValueError) as error:
            # A known kind with a missing or mistyped payload.
            if not pipe._cancelled:
                self._mark_lost(f"protocol violation: malformed envelope ({error!r})")
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        finally:
            out.close()
            self._release()
            pipe._worker_done()

    def _deliver(self, slice_: list) -> None:
        """One data slice: into the channel, then the credit owed for it."""
        if not self._healthy:
            self._served()
        self.pipe.out.put_many(slice_)
        if self.window is not None:
            self._owed += len(slice_)
            if self._owed >= self._threshold:
                try:
                    self.framer.send((WIRE_CREDIT, self._owed))
                except (OSError, EOFError) as error:
                    raise StreamLost(f"transport error: {error!r}") from None
                self._owed = 0

    def _mark_lost(self, reason: str) -> None:
        """Report the loss: the first report only, so one lost stream is
        one failure however many ways the pump sees it die."""
        if not self._loss_once.acquire(blocking=False):
            return
        error, value = self._loss(reason)
        if lifecycle_enabled():
            emit_lifecycle(Event(self.LOST_EVENT, f"pipe:{self.name}", 0, value))
        self.pipe._errored = True
        try:
            self.pipe.out.put_error(error)
        except ChannelClosedError:
            pass  # consumer cancelled while the stream was dying

    # -- worker protocol -------------------------------------------------------

    def terminate(self) -> None:
        """Tell the producer to stop, then close the socket (idempotent)."""
        try:
            self.framer.send((WIRE_CANCEL,))
        except (OSError, EOFError):
            pass  # session already gone
        self.framer.close()

    def join(self, timeout: float | None = None) -> bool:
        if self.handle is not None:
            return self.handle.join(timeout)
        return True

    def is_alive(self) -> bool:
        return self.handle is not None and self.handle.is_alive()
