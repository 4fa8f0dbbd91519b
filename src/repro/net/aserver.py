"""The event-loop generator server — thousands of sessions, one thread.

A :class:`~repro.net.server.GeneratorServer` session costs two OS
threads (sender + reader), so one threaded server tops out at a few
hundred concurrent streams.  :class:`AsyncGeneratorServer` is an I/O
driver over the shared session rules
(:class:`~repro.net.server._SessionRules`: request validation, credit
flow control, the deadline rule, the control-channel replies, the
reader's dispatch and liveness bounds) and the shared frame codec of
:mod:`repro.coexpr.wire`.  It multiplexes every session as a pair of
coroutines on one event loop: a session costs two *tasks* instead of
two threads, so concurrency scales with memory, not with OS thread
limits.

Interoperability is the point: the sync
:class:`~repro.net.client.RemotePipe` client (and ``backend="remote"``
pipes, :class:`~repro.net.membership.HealthProber` probes,
:class:`~repro.net.cluster.ServerPool` routing, gossip exchanges) work
against this server *unchanged* — nothing on the wire reveals which
server answered.  The backend-matrix tests pin the observable stream
contract on both servers: data slices in production order, data before
error, close terminates, deadlines cross the wire as remaining seconds
and are re-anchored on receipt, shed dials get a busy envelope through
a lingering half-close.

The trust model is the threaded server's, from the same code:
``allow_spawn`` decides whether frames decode through full pickle (the
server runs client code by design — trusted networks only) or the
restricted unpickler that refuses every global lookup, and malformed
request fields or credit end the session.

The cooperative caveat of :mod:`repro.coexpr.aio` applies: one
``activate()`` runs to completion on the loop, so the tier multiplexes
*between* results.  Streams of many small results interleave fairly
(the sender yields once per millisecond of activations, or after
every item when one activation takes that long); a single
multi-second activation would stall every session — host such bodies
on the threaded server.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from ..coexpr.aio import _YIELD_SLICE
from ..coexpr.wire import (
    WIRE_BUSY,
    WIRE_DATA,
    _HEADER,
    _frame_length,
    decode_frame,
    encode_frame,
)
from ..monitor.events import EventKind
from .server import (
    _CREDIT_SLICE,
    _REQUEST_TIMEOUT,
    _SHED_LINGER,
    GeneratorServer,
    _SessionRules,
)

#: How long the loop thread's graceful drain waits for sessions to
#: flush + close before cancelling their tasks outright.
_DRAIN_TIMEOUT = 5.0


class _AsyncSession(_SessionRules):
    """One client connection: a body and its sender/reader coroutines.

    An I/O driver over the shared session rules
    (:class:`~repro.net.server._SessionRules`): asyncio tasks, an
    ``asyncio.Event`` credit wakeup and stream reads stand in for the
    threaded driver's threads, condition and select.
    """

    __slots__ = ("reader", "writer", "_wlock", "_credit_wakeup", "_need")

    #: The async tier's one yield rule: a streaming session yields the
    #: loop once per slice of activations, so beats, credit, cancel and
    #: linger ticks wait at most a slice plus one activation.
    _yield_slice = _YIELD_SLICE

    def __init__(
        self,
        server: "AsyncGeneratorServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: Any,
    ) -> None:
        super().__init__(server, peer, f"aio-session-{id(self):x}")
        self.reader = reader
        self.writer = writer
        #: Serializes frame sends AND the pop-slice/send pair: two
        #: flushers (sender, reader's linger tick) must never interleave
        #: slices out of production order, and asyncio's drain() allows
        #: only one waiter.
        self._wlock = asyncio.Lock()
        self._credit_wakeup = asyncio.Event()
        #: Bytes still owed on a half-received frame (resumable receive
        #: state, so a heartbeat timeout never desynchronizes the
        #: stream; also the reader's mid-frame stall signal).
        self._need: int | None = None

    # -- framing (coroutine-side, cancellation-safe) ---------------------------

    async def _recv(self) -> tuple:
        """The next envelope.  Resumable under ``asyncio.wait_for``
        cancellation: a consumed header is remembered in ``_need``, and
        ``readexactly`` leaves its buffer intact when cancelled mid-wait
        — so a receive timeout never loses stream position."""
        if self._need is None:
            header = await self.reader.readexactly(_HEADER.size)
            self._need = _frame_length(header)
        frame = await self.reader.readexactly(self._need)
        self._need = None
        return decode_frame(frame, self.server.allow_spawn)

    async def _send(self, envelope: tuple) -> None:
        frame = encode_frame(envelope)
        async with self._wlock:
            self.writer.write(frame)
            await self.writer.drain()

    # -- worker/session protocol -----------------------------------------------

    def _abort(self) -> None:
        """:meth:`kill`'s cut: abort the transport now.  Loop-thread
        only — cross-thread callers go through the server's
        ``call_soon_threadsafe``."""
        try:
            self.writer.transport.abort()
        except Exception:  # noqa: BLE001 - transport already gone
            pass

    def _wake(self) -> None:
        self._credit_wakeup.set()

    # -- sender ----------------------------------------------------------------

    async def _flush(self, block: bool) -> None:
        """Send buffered items as credit allows (``block=True`` parks on
        credit until the buffer drains; ``block=False`` is the reader's
        linger tick).  The pop/send pair runs under ``_wlock``, so the
        two flushers can never reorder slices."""
        while True:
            async with self._wlock:
                if not self._coalescer or self._killed:
                    return
                slice_ = self._take()
                if slice_ is not None:
                    self.writer.write(encode_frame((WIRE_DATA, slice_)))
                    await self.writer.drain()
                    continue
            # Out of credit with items still buffered.
            if not block or self._killed:
                return
            if self._refill():
                continue
            self._credit_wakeup.clear()
            try:
                await asyncio.wait_for(
                    self._credit_wakeup.wait(), _CREDIT_SLICE
                )
            except asyncio.TimeoutError:
                pass

    async def _yield(self) -> None:
        """Give the loop back (time-sliced fairness, see _YIELD_SLICE)."""
        await asyncio.sleep(0)

    def _start_reader(self) -> None:
        self.reader_handle = asyncio.get_running_loop().create_task(
            self._run_reader(), name=f"{self.name}-reader"
        )

    async def _recv_request(self) -> tuple:
        return await asyncio.wait_for(self._recv(), _REQUEST_TIMEOUT)

    async def _recv_step(self, wait: float) -> tuple | None:
        """The next envelope, or None after *wait* seconds without a
        whole frame."""
        try:
            return await asyncio.wait_for(self._recv(), wait)
        except asyncio.TimeoutError:
            return None

    def _partial(self) -> bool:
        return self._need is not None

    # -- teardown --------------------------------------------------------------

    def _half_close(self) -> None:
        try:
            if self.writer.can_write_eof():
                self.writer.write_eof()
        except (OSError, RuntimeError):
            pass

    def _close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - transport already gone
            pass

    # -- chaos/accounting protocol (what kill_sessions/stats expect) -----------

    def is_alive(self) -> bool:
        return self.handle is not None and not self.handle.done()

    def join(self, timeout: float | None = None) -> bool:
        return not self.is_alive()


class AsyncGeneratorServer(GeneratorServer):
    """A :class:`GeneratorServer` whose sessions are event-loop tasks.

    Drop-in: the constructor, registry, gossip surface
    (``known_peers``/``add_peer``/``announce``), admission knobs
    (``max_sessions``/``max_credit``/``max_batch``/``retry_after``/
    ``stall_intervals``), ``stats``, context-manager protocol, and
    signal handling are inherited; only the execution substrate
    changes.  One scheduler thread runs the event loop; every session
    is a pair of coroutines on it, so concurrent sessions cost memory —
    not OS threads — and the ``junicon-serve --async`` deployment
    multiplexes thousands of streams where the threaded server tops
    out at hundreds.

    The server registers with the scheduler's session accounting and
    the loop thread is an ordinary scheduler thread: a shut-down
    scheduler stops the loop (cancelling every session task) along with
    everything else it owns — the no-orphans contract unchanged.
    """

    _SESSION_EVENTS = (EventKind.NET_SESSION, EventKind.ASYNC_SESSION)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if len(args) < 6:  # name is the sixth positional parameter
            kwargs.setdefault("name", "agenserver")
        super().__init__(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._bound = threading.Event()
        self._start_error: BaseException | None = None
        self._stop_async: asyncio.Event | None = None
        self._drain_timeout = _DRAIN_TIMEOUT

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "AsyncGeneratorServer":
        """Bind, listen, and run the event loop on a scheduler thread
        (its accept thread: ``kill``/``is_alive``/``join`` are the
        threaded server's)."""
        if not self._claim_start():
            return self
        self.scheduler.track_session(self)
        try:
            self._accept_handle = self.scheduler.submit(
                self._run_loop, name=f"{self.name}-loop"
            )
        except BaseException:
            self.scheduler.untrack_session(self)
            raise
        self._bound.wait()
        if self._start_error is not None:
            error = self._start_error
            self.scheduler.untrack_session(self)
            raise error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()
            if not self._bound.is_set():
                self._start_error = error
                self._bound.set()
        finally:
            try:
                loop.close()
            except Exception:  # noqa: BLE001
                pass
            self._bound.set()  # belt-and-braces: never strand start()

    async def _main(self) -> None:
        self._stop_async = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connect, self.host, self.port
            )
        except OSError as error:
            self._start_error = error
            self._bound.set()
            return
        try:
            self.host, self.port = server.sockets[0].getsockname()[:2]
            self._bound.set()
            await self._stop_async.wait()
        finally:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # noqa: BLE001
                pass
            await self._drain_sessions()

    async def _drain_sessions(self) -> None:
        """Graceful loop-side drain: finish every session (flush +
        ``WIRE_CLOSE``), bound the wait, cancel stragglers."""
        sessions = self.active_sessions()
        for session in sessions:
            session.finish()
        tasks = [
            t
            for s in sessions
            for t in (s.handle, s.reader_handle)
            if t is not None and not t.done()
        ]
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self._drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for session in sessions:
            session._teardown()

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopped:
            writer.close()
            return
        try:
            peer = writer.get_extra_info("peername")
        except Exception:  # noqa: BLE001 - transport already gone
            peer = None
        if self.max_sessions is not None:
            with self._lock:
                over = len(self._sessions) >= self.max_sessions
            if over:
                await self._shed_async(reader, writer, peer)
                return
        session = _AsyncSession(self, reader, writer, peer)
        with self._lock:
            if self._stopped:
                writer.close()
                return
            self._sessions.append(session)
            self._served += 1
        session.handle = asyncio.current_task()
        try:
            await session._serve()
        finally:
            if not session._torn and (
                session._killed or session.reader_handle is None
            ):
                session._teardown()

    async def _shed_async(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: Any,
    ) -> None:
        """Refuse one over-capacity dial: ``WIRE_BUSY(retry_after)``
        through a lingering half-close, so the busy reply survives the
        client's in-flight handshake (same shape as the threaded
        server's shed path)."""
        self._count_shed(peer)
        try:
            writer.write(encode_frame((WIRE_BUSY, self.retry_after)))
            await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
            limit = time.monotonic() + _SHED_LINGER
            while time.monotonic() < limit:
                try:
                    chunk = await asyncio.wait_for(reader.read(4096), 0.05)
                except asyncio.TimeoutError:
                    continue
                if not chunk:
                    break  # client saw the busy reply and hung up
        except (OSError, ConnectionError):
            pass  # the impatient client already hung up
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    # -- cross-thread control ----------------------------------------------

    def _call_on_loop(self, fn: Any) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def kill_sessions(self) -> int:
        """Hard-kill every live session on the loop (the chaos hook)."""
        sessions = self.active_sessions()
        self._call_on_loop(
            lambda: [session.kill() for session in sessions]
        )
        return len(sessions)

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting and drain every session gracefully: each one
        flushes its coalesced batch and sends ``WIRE_CLOSE``; stragglers
        past *timeout* are cancelled.  Idempotent."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._drain_timeout = timeout
        started = self._started

        def _signal() -> None:
            if self._stop_async is not None:
                self._stop_async.set()

        self._call_on_loop(_signal)
        handle = self._accept_handle
        if wait and handle is not None:
            # The loop thread exits once the drain completes; give it
            # the drain budget plus slack for the cancellation sweep.
            handle.join(timeout + 2.0)
        if started:
            self.scheduler.untrack_session(self)
