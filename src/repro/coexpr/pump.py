"""The stream pump — the parent half of a pipe whose producer runs elsewhere.

A process pipe (:mod:`repro.coexpr.proc`) and a remote pipe
(:mod:`repro.net.client`) both run their producer across a boundary and
receive its results as wire envelopes (:mod:`repro.coexpr.wire`).  On
this side one loop, :meth:`StreamPump.pump`, is transport and monitor
at once: it forwards the envelopes into the pipe's ordinary
:class:`~repro.coexpr.channel.Channel` — so ``@`` stays a ``take``, as
in the paper — and it watches the stream's liveness.

The pump owns what the two transports share:

* the receive loop and its cancel check;
* the heartbeat watchdog: every envelope refreshes the deadline, and
  silence past ``heartbeat_timeout`` is a loss;
* the envelope dispatch: ``DATA`` into the channel, ``ERROR`` after the
  data before it, ``CLOSE`` ends the stream, ``BEAT`` is liveness only,
  and a kind it does not know, or a payload that does not fit its kind,
  is a loss ("protocol violation");
* the loss report, made at most once: the transport's error goes into
  the channel after every result delivered before it;
* the teardown: close the channel, release the transport, and cancel
  the upstream when the stream errored or was cancelled.

A transport subclass supplies its receive primitive and data sink
(:meth:`StreamPump._endpoints`), its loss error (:meth:`~StreamPump.
_loss`), its release step and whatever envelopes only it speaks
(:meth:`~StreamPump._control`).  The sink is called once per data
envelope and is the channel's own ``put_many`` unless the transport
must count deliveries (remote credit), so the hot path pays no call a
transport does not need.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..errors import ChannelClosedError
from ..monitor.events import Event, emit_lifecycle, lifecycle_enabled
from .wire import WIRE_BEAT, WIRE_CLOSE, WIRE_DATA, WIRE_ERROR, FrameError, decode_error


class StreamLost(Exception):
    """Raised inside the pump (or a transport hook) when the stream is
    lost; the pump reports :attr:`reason` once and stops."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class StreamPump:
    """One producer across a boundary plus the pump thread draining it.

    The pump body runs on a scheduler thread (:attr:`handle`), so it is
    joinable and leak-checked exactly like a thread-backend worker.
    """

    __slots__ = (
        "pipe",
        "scheduler",
        "name",
        "heartbeat_timeout",
        "handle",
        "_loss_once",
    )

    #: The monitor event a loss emits.
    LOST_EVENT = ""

    def __init__(self, pipe: Any, scheduler: Any, name: str) -> None:
        self.pipe = pipe
        self.scheduler = scheduler
        self.name = name
        self.heartbeat_timeout = pipe.options.beat_timeout
        self.handle: Any = None
        #: Held by the first loss report; never released.
        self._loss_once = threading.Lock()

    # -- what a transport supplies ---------------------------------------------

    def _endpoints(self) -> tuple[Callable[[], tuple], Callable[[list], Any]]:
        """The receive primitive and the data sink.

        The receive returns the next envelope; it raises
        :class:`TimeoutError` when nothing arrived within a poll slice,
        :class:`EOFError`, :class:`OSError` or
        :class:`~repro.coexpr.wire.FrameError` when the transport is
        gone, and :class:`StreamLost` for a loss it judged itself."""
        raise NotImplementedError

    def _loss(self, reason: str) -> tuple[Exception, dict]:
        """The error the consumer sees for a loss, and the event value."""
        raise NotImplementedError

    def _release(self) -> None:
        """Free the transport once the pump is done."""

    def _served(self) -> None:
        """The producer reported an error or its end: it ran."""

    def _control(self, envelope: tuple) -> None:
        """An envelope kind the pump does not know: a loss unless the
        transport speaks it."""
        raise StreamLost(f"protocol violation: {envelope[0]!r} envelope")

    # -- the pump --------------------------------------------------------------

    def pump(self) -> None:
        """Forward envelopes into the pipe's channel; watch liveness.

        The deadline is only *checked* when a receive times out and is
        refreshed by every envelope — so a pump that spent seconds
        blocked in ``put_many`` (slow consumer) finds the producer's
        buffered beats waiting and never false-positives.
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
                        continue
                    raise StreamLost(f"no heartbeat within {timeout:.2f}s") from None
                except (EOFError, FrameError) as error:
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
            if pipe._cancelled or pipe._errored:
                pipe._cancel_upstream()

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

    def join(self, timeout: float | None = None) -> bool:
        if self.handle is not None:
            return self.handle.join(timeout)
        return True

    def is_alive(self) -> bool:
        return self.handle is not None and self.handle.is_alive()
