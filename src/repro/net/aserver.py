"""The event-loop generator server — thousands of sessions, one thread.

A :class:`~repro.net.server.GeneratorServer` session costs two OS
threads (sender + reader), so one threaded server tops out at a few
hundred concurrent streams.  :class:`AsyncGeneratorServer` speaks the
*identical* wire protocol — the framing, credit flow control, deadline
rule, ``WIRE_BUSY`` shedding, and ``WIRE_PING``/``WIRE_PEERS`` control
channel of :mod:`repro.coexpr.wire` — but multiplexes every session as
a pair of coroutines on one event loop: a session costs two *tasks*
instead of two threads, so concurrency scales with memory, not with OS
thread limits.

Interoperability is the point: the sync
:class:`~repro.net.client.RemotePipe` client (and ``backend="remote"``
pipes, :class:`~repro.net.membership.HealthProber` probes,
:class:`~repro.net.cluster.ServerPool` routing, gossip exchanges) work
against this server *unchanged* — nothing on the wire reveals which
server answered.  The observable stream contract is pinned by the same
backend-matrix tests: data slices in production order, data before
error, close terminates, deadlines cross the wire as remaining seconds
and are re-anchored on receipt, shed dials get a busy envelope through
a lingering half-close.

The trust model matches the threaded server exactly: ``allow_spawn``
decides whether frames decode through full pickle (the server runs
client code by design — trusted networks only) or the restricted
unpickler that refuses every global lookup.

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
import pickle
import threading
import time
from typing import Any

from ..coexpr.coexpression import CoExpression
from ..coexpr.deadline import Deadline
from ..coexpr.wire import (
    MAX_FRAME,
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
    WIRE_SPAWN,
    FrameError,
    _HEADER,
    _restricted_loads,
    encode_error,
)
from ..errors import PipeDeadlineExceeded, PipeError
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from .server import (
    _CREDIT_SLICE,
    _REQUEST_TIMEOUT,
    _SHED_LINGER,
    GeneratorServer,
)

#: How long the loop thread's graceful drain waits for sessions to
#: flush + close before cancelling their tasks outright.
_DRAIN_TIMEOUT = 5.0
#: A streaming session yields the loop once this many seconds of
#: activations have run since its last yield: fast bodies amortize the
#: loop round trip over many items, while a slow activation still
#: yields after every item — so beats, credit, cancel and linger ticks
#: wait at most this long plus one activation.
_YIELD_SLICE = 0.001


class _AsyncSession:
    """One client connection: a body and its sender/reader coroutines.

    The coroutine twin of :class:`~repro.net.server.Session`: same
    request handling, same credit/greedy-quota semantics, same deadline
    re-anchoring, same data-before-error-before-close termination, same
    lingering half-close drain — with asyncio primitives standing in
    for threads, conditions, and select.
    """

    __slots__ = (
        "server",
        "reader",
        "writer",
        "peer",
        "name",
        "request_name",
        "batch",
        "max_linger",
        "heartbeat_interval",
        "coexpr",
        "task",
        "reader_task",
        "_wlock",
        "_credit",
        "_greedy",
        "_credit_wakeup",
        "_deadline",
        "_buffer",
        "_buf_oldest",
        "_need",
        "_killed",
        "_cancelled",
        "_finished",
        "_torn",
    )

    def __init__(
        self,
        server: "AsyncGeneratorServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:  # noqa: BLE001 - transport already gone
            self.peer = None
        self.name = f"aio-session-{id(self):x}"
        self.request_name = ""
        self.batch = 1
        self.max_linger: float | None = None
        self.heartbeat_interval = server.heartbeat_interval
        self.coexpr: CoExpression | None = None
        self.task: asyncio.Task | None = None
        self.reader_task: asyncio.Task | None = None
        #: Serializes frame sends AND the pop-slice/send pair: two
        #: flushers (sender, reader's linger tick) must never interleave
        #: slices out of production order, and asyncio's drain() allows
        #: only one waiter.
        self._wlock = asyncio.Lock()
        #: Items the client has granted (None = unlimited); starts at
        #: zero — nothing is sent before the first grant.
        self._credit: int | None = 0
        #: True once a quota clamped an unlimited grant (the sender then
        #: self-replenishes in quota-sized slices).
        self._greedy = False
        self._credit_wakeup = asyncio.Event()
        #: Budget from a ``WIRE_DEADLINE`` envelope, re-anchored here.
        self._deadline: Deadline | None = None
        self._buffer: list = []
        self._buf_oldest = 0.0
        #: Bytes still owed on a half-received frame (resumable receive
        #: state, so a heartbeat timeout never desynchronizes the
        #: stream; also the reader's mid-frame stall signal).
        self._need: int | None = None
        self._killed = False
        self._cancelled = False
        self._finished = False
        self._torn = False

    # -- framing (coroutine-side, cancellation-safe) ---------------------------

    async def _recv(self) -> tuple:
        """The next envelope.  Resumable under ``asyncio.wait_for``
        cancellation: a consumed header is remembered in ``_need``, and
        ``readexactly`` leaves its buffer intact when cancelled mid-wait
        — so a receive timeout never loses stream position."""
        if self._need is None:
            header = await self.reader.readexactly(_HEADER.size)
            (need,) = _HEADER.unpack(header)
            if need > MAX_FRAME:
                raise FrameError(f"oversized frame ({need} bytes)")
            self._need = need
        frame = await self.reader.readexactly(self._need)
        self._need = None
        loads = pickle.loads if self.server.allow_spawn else _restricted_loads
        try:
            envelope = loads(frame)
        except Exception as error:  # noqa: BLE001 - corrupt frame
            raise FrameError(f"undecodable frame: {error!r}") from error
        if not isinstance(envelope, tuple) or not envelope:
            raise FrameError(f"malformed envelope: {envelope!r}")
        return envelope

    async def _send(self, envelope: tuple) -> None:
        payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        async with self._wlock:
            self.writer.write(_HEADER.pack(len(payload)) + payload)
            await self.writer.drain()

    # -- worker/session protocol -----------------------------------------------

    def kill(self) -> None:
        """Abrupt teardown (chaos / scheduler shutdown): close the
        transport now.  Loop-thread only — cross-thread callers go
        through the server's ``call_soon_threadsafe``."""
        self._killed = True
        self._credit_wakeup.set()
        if self.coexpr is not None:
            self.coexpr.close()
        try:
            self.writer.transport.abort()
        except Exception:  # noqa: BLE001 - transport already gone
            pass

    def finish(self) -> None:
        """Graceful teardown: stop producing; the sender flushes and
        sends ``WIRE_CLOSE`` on its way out (loop-thread only)."""
        self._cancelled = True
        self._credit_wakeup.set()
        if self.coexpr is not None:
            self.coexpr.close()

    def _stopping(self) -> bool:
        return self._killed or self._cancelled

    # -- credit ----------------------------------------------------------------

    def grant(self, amount: int | None) -> None:
        """Apply one ``WIRE_CREDIT`` envelope — identical quota/greedy
        semantics to the threaded server's
        :meth:`~repro.net.server.Session.grant`."""
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
        self._credit_wakeup.set()

    # -- sender ----------------------------------------------------------------

    async def _flush(self, block: bool) -> None:
        """Send buffered items as credit allows (``block=True`` parks on
        credit until the buffer drains; ``block=False`` is the reader's
        linger tick).  The pop/send pair runs under ``_wlock``, so the
        two flushers can never reorder slices."""
        while True:
            async with self._wlock:
                if not self._buffer or self._killed:
                    return
                credit = self._credit
                if credit != 0:
                    take = (
                        len(self._buffer)
                        if credit is None
                        else min(credit, len(self._buffer))
                    )
                    slice_, self._buffer = (
                        self._buffer[:take],
                        self._buffer[take:],
                    )
                    if credit is not None:
                        self._credit = credit - take
                    payload = pickle.dumps(
                        (WIRE_DATA, slice_), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    self.writer.write(_HEADER.pack(len(payload)) + payload)
                    await self.writer.drain()
                    continue
            # Out of credit with items still buffered.
            if not block:
                return
            if self._killed:
                return
            if self._greedy:
                self._credit = self.server.max_credit
                continue
            self._credit_wakeup.clear()
            try:
                await asyncio.wait_for(
                    self._credit_wakeup.wait(), _CREDIT_SLICE
                )
            except asyncio.TimeoutError:
                pass

    async def _append(self, value: Any) -> None:
        if not self._buffer:
            self._buf_oldest = time.monotonic()
        self._buffer.append(value)
        if len(self._buffer) >= self.batch:
            await self._flush(block=True)

    async def run(self) -> None:
        """The session's main coroutine: request → body → stream →
        terminator (control connections short-circuit to the probe/
        gossip loop, exactly like the threaded server)."""
        try:
            try:
                envelope = await asyncio.wait_for(
                    self._recv(), _REQUEST_TIMEOUT
                )
            except (
                OSError,
                EOFError,
                FrameError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ):
                return  # client vanished before asking for anything
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - reported to client
                await self._send_failure(error)
                return
            if envelope[0] in (WIRE_PING, WIRE_PEERS):
                self.request_name = "control"
                await self._run_control(envelope)
                return
            try:
                coexpr = self._build_body(envelope)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - reported to client
                await self._send_failure(error)
                return
            self.coexpr = coexpr
            self.server._note_session(self)
            self.reader_task = asyncio.get_running_loop().create_task(
                self._run_reader(), name=f"{self.name}-reader"
            )
            await self._stream(coexpr)
        finally:
            self._finish()

    async def _run_control(self, envelope: tuple | None) -> None:
        """Serve ping/peers frames until the peer closes or goes silent
        — the membership tier's probe and gossip channel, answered by
        the loop with the threaded server's exact reply shapes."""
        idle_deadline = time.monotonic() + _REQUEST_TIMEOUT
        try:
            while not self._stopping():
                if envelope is not None:
                    kind = envelope[0]
                    if kind == WIRE_PING:
                        nonce = envelope[1] if len(envelope) > 1 else None
                        await self._send((WIRE_PONG, nonce))
                    elif kind == WIRE_PEERS:
                        told = envelope[1] if len(envelope) > 1 else None
                        if told:
                            self.server._merge_peers(told)
                        await self._send(
                            (WIRE_PEERS, self.server.known_peers())
                        )
                    else:
                        return  # protocol violation: drop the connection
                    idle_deadline = time.monotonic() + _REQUEST_TIMEOUT
                elif time.monotonic() >= idle_deadline:
                    return  # silent peer: reclaim the slot
                try:
                    envelope = await asyncio.wait_for(
                        self._recv(), self.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    envelope = None
        except (OSError, EOFError, FrameError, asyncio.IncompleteReadError):
            pass  # peer gone: the control session just ends

    def _build_body(self, first: tuple) -> CoExpression:
        kind, *payload = first
        if kind not in (WIRE_SPAWN, WIRE_CALL) or not payload:
            raise PipeError(f"expected a spawn/call request, got {kind!r}")
        request = payload[0]
        self.request_name = request.get("name") or kind
        self.batch = max(int(request.get("batch", 1)), 1)
        if self.server.max_batch is not None:
            self.batch = min(self.batch, self.server.max_batch)
        self.max_linger = request.get("max_linger")
        interval = request.get("heartbeat_interval")
        if interval:
            self.heartbeat_interval = float(interval)
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

    async def _stream(self, coexpr: CoExpression) -> None:
        last_yield = time.monotonic()
        try:
            while not self._stopping():
                deadline = self._deadline
                if deadline is not None and deadline.expired():
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
                        f"session {self.request_name!r}: deadline exceeded "
                        "(session)",
                        where="session",
                    )
                value = coexpr.activate()
                if value is FAIL:
                    break
                await self._append(value)
                if time.monotonic() - last_yield >= _YIELD_SLICE:
                    await asyncio.sleep(0)  # time-sliced fairness
                    last_yield = time.monotonic()
            await self._flush(block=True)
            if not self._killed:
                await self._send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError, ConnectionError):
            pass  # peer gone mid-stream: nothing left to tell it
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - forwarded to client
            await self._send_failure(error)

    async def _send_failure(self, error: BaseException) -> None:
        """Data first, then the error, then close — the wire invariant."""
        try:
            await self._flush(block=True)
            await self._send((WIRE_ERROR, encode_error(error)))
            await self._send((WIRE_CLOSE,))
        except (OSError, EOFError, FrameError, ConnectionError):
            pass  # peer gone: the error dies with the session

    # -- reader ----------------------------------------------------------------

    async def _run_reader(self) -> None:
        """Control channel + beater: credits, deadlines, cancellation,
        liveness — then the lingering half-close drain once the sender
        has finished.  A receive idle for one heartbeat interval sends a
        ``WIRE_BEAT`` and delivers any batch past its linger bound; a
        frame left partial for ``stall_intervals`` heartbeats kills the
        session (the wedged-client bound)."""
        stall_deadline: float | None = None
        while not self._killed:
            try:
                envelope = await asyncio.wait_for(
                    self._recv(), self.heartbeat_interval
                )
            except asyncio.TimeoutError:
                # Mid-frame silence counts toward the stall bound; idle
                # silence proves liveness and runs the linger tick.
                if self._need is not None:
                    if stall_deadline is None:
                        stall_deadline = time.monotonic() + (
                            self.server.stall_intervals
                            * self.heartbeat_interval
                        )
                    elif time.monotonic() >= stall_deadline:
                        self.kill()  # stalled mid-frame: a dead client
                        break
                else:
                    stall_deadline = None
                if self._finished:
                    continue  # draining a half-closed socket: no beats
                try:
                    await self._send((WIRE_BEAT, time.monotonic()))
                except (OSError, EOFError, ConnectionError):
                    self.kill()  # wedged client: wake the blocked sender
                    break
                if (
                    self.max_linger is not None
                    and self._buffer
                    and time.monotonic() - self._buf_oldest >= self.max_linger
                ):
                    try:
                        await self._flush(block=False)
                    except (OSError, EOFError, FrameError, ConnectionError):
                        self.kill()
                        break
                continue
            except asyncio.IncompleteReadError:
                if not self._finished:
                    self.kill()  # client left mid-stream: stop the body
                break
            except (OSError, EOFError, FrameError, ConnectionError):
                self.kill()
                break
            except asyncio.CancelledError:
                raise
            stall_deadline = None
            kind = envelope[0]
            if kind == WIRE_CREDIT:
                self.grant(envelope[1] if len(envelope) > 1 else None)
            elif kind == WIRE_DEADLINE:
                # Budget, never a timestamp: re-anchor against our own
                # monotonic clock (see repro.coexpr.deadline).
                budget = envelope[1] if len(envelope) > 1 else 0.0
                try:
                    self._deadline = Deadline(float(budget))
                except (TypeError, ValueError):
                    pass  # malformed budget: ignore, don't kill the stream
            elif kind == WIRE_CANCEL:
                self.kill()
                break
            # Anything else (a stray beat) is ignored.
        if self._finished:
            self._teardown()

    # -- teardown --------------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.coexpr is not None:
            self.coexpr.close()
        reader = self.reader_task
        if reader is not None and not self._killed and not reader.done():
            # Lingering close: push our FIN but leave the reader
            # draining until the *client* closes; it runs the final
            # teardown when the drain reaches EOF.
            try:
                if self.writer.can_write_eof():
                    self.writer.write_eof()
            except (OSError, RuntimeError):
                pass
            return
        self._teardown()

    def _teardown(self) -> None:
        """Final transport close + deregistration (idempotent)."""
        if self._torn:
            return
        self._torn = True
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - transport already gone
            pass
        self.server._forget(self)

    # -- chaos/accounting protocol (what kill_sessions/stats expect) -----------

    def is_alive(self) -> bool:
        return self.task is not None and not self.task.done()

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

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if len(args) < 6:  # name is the sixth positional parameter
            kwargs.setdefault("name", "agenserver")
        super().__init__(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_handle: Any = None
        self._bound = threading.Event()
        self._start_error: BaseException | None = None
        self._stop_async: asyncio.Event | None = None
        self._drain_timeout = _DRAIN_TIMEOUT

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "AsyncGeneratorServer":
        """Bind, listen, and run the event loop on a scheduler thread."""
        with self._lock:
            if self._stopped:
                raise PipeError("start on a shut-down AsyncGeneratorServer")
            if self._started:
                return self
            self._started = True
        self._warn_non_loopback()
        self.scheduler.track_session(self)
        try:
            self._loop_handle = self.scheduler.submit(
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

    def _warn_non_loopback(self) -> None:
        import warnings

        from .server import _is_loopback

        if not _is_loopback(self.host):
            warnings.warn(
                f"AsyncGeneratorServer {self.name!r} is binding non-loopback "
                f"host {self.host!r}: the wire protocol is unauthenticated "
                + (
                    "and allow_spawn=True lets any client execute arbitrary "
                    "code — expose it to trusted networks only"
                    if self.allow_spawn
                    else "— expose it to trusted networks only"
                ),
                RuntimeWarning,
                stacklevel=3,
            )

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
            for t in (s.task, s.reader_task)
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
        if self.max_sessions is not None:
            with self._lock:
                over = len(self._sessions) >= self.max_sessions
            if over:
                await self._shed_async(reader, writer)
                return
        session = _AsyncSession(self, reader, writer)
        with self._lock:
            if self._stopped:
                writer.close()
                return
            self._sessions.append(session)
            self._served += 1
        session.task = asyncio.current_task()
        try:
            await session.run()
        finally:
            if not session._torn and (
                session._killed or session.reader_task is None
            ):
                session._teardown()

    async def _shed_async(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Refuse one over-capacity dial: ``WIRE_BUSY(retry_after)``
        through a lingering half-close, so the busy reply survives the
        client's in-flight handshake (same shape as the threaded
        server's shed path)."""
        with self._lock:
            self._shed_count += 1
            active = len(self._sessions)
        try:
            peer = writer.get_extra_info("peername")
        except Exception:  # noqa: BLE001
            peer = None
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
        try:
            payload = pickle.dumps(
                (WIRE_BUSY, self.retry_after),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            writer.write(_HEADER.pack(len(payload)) + payload)
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

    def _note_session(self, session: Any) -> None:
        super()._note_session(session)
        if lifecycle_enabled():
            emit_lifecycle(
                Event(
                    EventKind.ASYNC_SESSION,
                    f"pipe:{session.request_name}",
                    0,
                    {
                        "peer": session.peer,
                        "name": session.request_name,
                        "server": self.name,
                    },
                )
            )

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
        handle = self._loop_handle
        if wait and handle is not None:
            # The loop thread exits once the drain completes; give it
            # the drain budget plus slack for the cancellation sweep.
            handle.join(timeout + 2.0)
        if started:
            self.scheduler.untrack_session(self)

    # -- session protocol (scheduler accounting) -------------------------------

    def kill(self) -> None:
        """Scheduler-shutdown hook: stop the loop, cancel every session."""
        self.shutdown(wait=False)

    def is_alive(self) -> bool:
        handle = self._loop_handle
        return handle is not None and handle.is_alive()

    def join(self, timeout: float | None = None) -> bool:
        handle = self._loop_handle
        if handle is None:
            return True
        return handle.join(timeout)

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopped
            else ("listening" if self._started else "unstarted")
        )
        return (
            f"AsyncGeneratorServer({self.name}, {self.host}:{self.port}, "
            f"{state}, active={len(self._sessions)})"
        )
