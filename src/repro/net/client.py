"""The client side of the network tier: remote workers and remote pipes.

Two entry points share one transport:

* :func:`start_remote_worker` — the hook :meth:`Pipe.start` calls for
  ``backend="remote"``: ship the pipe's own ``(factory, env)`` body to
  the generator server and pump the result stream into the pipe's
  channel (or return why it cannot, and the pipe degrades to threads);
* :class:`RemotePipe` — an :class:`~repro.runtime.iterator.IconIterator`
  proxy over a factory the *server* registered by name, for bodies that
  only exist on the far side.

The pump thread is transport and monitor in one loop, exactly like the
process tier's: every received envelope refreshes the heartbeat
deadline; expiry, an EOF, or a torn frame surfaces as
:class:`~repro.errors.PipeConnectionLost` through the channel (after
draining any data received first — the data-before-error invariant).

Flow control is credit-based: the client grants credit equal to its
channel capacity up front (None = unlimited for an unbounded channel)
and gives credit back only for items ``put_many`` has delivered — so
the server's credit plus the data in flight never exceed one window,
and a slow consumer throttles the remote producer the same way it
throttles a local worker blocked on a full channel.  Grants are
coalesced: the pump owes the server the delivered count and pays it
once half the effective window is owed.  The request asks the server
for its ``max_credit`` quota *Q*, which it answers with ``WIRE_QUOTA``
before the stream; the effective window is then ``min(window, Q)``, so
the grant count is set by the stream, the window and the quota, not by
which side is faster.  A peer that never answers is also paid before every
receive that could block, since its clamp is unknown.

Degradation mirrors :mod:`repro.coexpr.proc`: a body that cannot leave
the process (:func:`~repro.coexpr.proc.body_portability_reason`), a
body that does not pickle, or a server that cannot be reached all fall
back to the thread backend with a ``DEGRADED`` monitor event.

A per-address :class:`CircuitBreaker` sits in front of every dial:
consecutive ``WIRE_BUSY`` sheds and connection losses trip it open, and
while open ``backend="remote"`` degrades to the thread tier *without
dialing* — a saturated server stops being hammered by reconnect storms.
After the shed's ``retry_after`` lapses the breaker admits one half-open
probe; a healthy stream closes it again.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any, Iterator

from ..coexpr.channel import CLOSED, Channel
from ..coexpr.options import POLL_SLICE, PipeOptions
from ..coexpr.proc import body_portability_reason
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
    WIRE_QUOTA,
    WIRE_SPAWN,
    FrameError,
    SocketFramer,
    decode_error,
)
from ..errors import (
    ChannelClosedError,
    InjectedDisconnect,
    PipeConnectionLost,
    PipeDeadlineExceeded,
    PipeError,
    PipeServerBusy,
    PipeTimeoutError,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator

#: TCP connect timeout before degrading (or failing a RemotePipe).
_CONNECT_TIMEOUT = 5.0

#: Consecutive failures (sheds or connection losses) that trip a breaker.
_BREAKER_THRESHOLD = 3
#: Open-state hold when the failure carried no ``retry_after`` hint.
_BREAKER_COOLDOWN = 0.5

_UNSET = object()


class CircuitBreaker:
    """Per-address overload memory: closed → open → half-open → closed.

    Every remote dial consults the breaker for its target address.
    While **closed** (healthy) dials pass through; *threshold*
    consecutive failures — a ``WIRE_BUSY`` shed, a refused or lost
    connection — trip it **open**, and :meth:`allow` then answers False
    until the failure's ``retry_after`` (or a default cooldown) lapses.
    The first dial after that is the **half-open probe**: exactly one
    caller is admitted while the others keep failing fast; the probe's
    outcome (a healthy stream vs. another failure) closes or re-opens
    the breaker.

    Thread-safe; shared process-wide per address via :func:`breaker_for`.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, address: Any, threshold: int = _BREAKER_THRESHOLD) -> None:
        self.address = address
        self.threshold = threshold
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._until = 0.0  # monotonic instant the open hold lapses

    def _emit(self, kind: str, value: dict) -> None:
        if lifecycle_enabled():
            try:
                host, port = self.address
                node = f"breaker:{host}:{port}"
            except (TypeError, ValueError):
                node = f"breaker:{self.address!r}"
            emit_lifecycle(Event(kind, node, 0, value))

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def remaining(self) -> float:
        """Seconds until an open breaker will admit its probe."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self._until - time.monotonic())

    def allow(self) -> bool:
        """May this dial proceed?  (Admits the one half-open probe.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN and time.monotonic() >= self._until:
                self._state = self.HALF_OPEN
                self._emit(
                    EventKind.BREAKER_PROBE,
                    {"address": self.address, "failures": self._failures},
                )
                return True
            # OPEN within the hold, or a probe already in flight.
            return False

    def record_failure(self, retry_after: float | None = None) -> None:
        """One shed/lost outcome; trips the breaker at the threshold
        (immediately when it burns the half-open probe)."""
        with self._lock:
            self._failures += 1
            probe_failed = self._state == self.HALF_OPEN
            if not probe_failed and self._failures < self.threshold:
                return
            hold = retry_after if retry_after else _BREAKER_COOLDOWN
            self._state = self.OPEN
            self._until = time.monotonic() + hold
            self._emit(
                EventKind.BREAKER_OPEN,
                {
                    "address": self.address,
                    "failures": self._failures,
                    "retry_after": hold,
                },
            )

    def record_success(self) -> None:
        """A healthy stream: close the breaker, forget the failures."""
        with self._lock:
            reopened = self._state != self.CLOSED
            self._state = self.CLOSED
            self._failures = 0
            self._until = 0.0
            if reopened:
                self._emit(EventKind.BREAKER_CLOSE, {"address": self.address})


_breakers: dict = {}
_breakers_lock = threading.Lock()


def breaker_for(address: Any) -> CircuitBreaker:
    """The process-wide breaker for *address* (created on first use)."""
    key = tuple(address) if isinstance(address, (list, tuple)) else address
    with _breakers_lock:
        breaker = _breakers.get(key)
        if breaker is None:
            breaker = _breakers[key] = CircuitBreaker(key)
        return breaker


def reset_breakers() -> None:
    """Forget every breaker (test isolation between server lifetimes).

    Also clears the membership tier's shared address-health registry:
    both are process-wide per-address failure memory, and a test that
    resets one without the other inherits the previous test's corpses.
    """
    with _breakers_lock:
        _breakers.clear()
    from .membership import reset_shared_health

    reset_shared_health()


def _pickled_body(pipe: Any) -> bytes | str:
    """*pipe*'s ``(factory, env)`` body as the request ships it, or the
    reason it cannot be shipped (a string)."""
    reason = body_portability_reason(pipe)
    if reason is not None:
        return reason
    coexpr = pipe.coexpr
    try:
        return pickle.dumps(
            (coexpr._factory, coexpr._env), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as error:  # noqa: BLE001 - any pickle failure degrades
        return f"body not picklable for remote execution: {error!r}"


def remote_unsafe_reason(pipe: Any) -> str | None:
    """Why *pipe*'s body cannot be shipped to a server (None = it can).

    The shared portability rules plus the network-tier specific one: the
    ``(factory, env)`` payload must *always* pickle — unlike a forked
    child, the server never shares memory with the client.
    """
    body = _pickled_body(pipe)
    return body if isinstance(body, str) else None


#: In-flight workers indexed by server address, so a membership tier's
#: death verdict can wake their watchdogs *now* — see :func:`drain_address`.
_live_lock = threading.Lock()
_live_workers: dict = {}


def _register_live(worker: Any) -> None:
    with _live_lock:
        _live_workers.setdefault(worker.address, set()).add(worker)


def _unregister_live(worker: Any) -> None:
    with _live_lock:
        peers = _live_workers.get(worker.address)
        if peers is not None:
            peers.discard(worker)
            if not peers:
                _live_workers.pop(worker.address, None)


def drain_address(address: Any, reason: str) -> int:
    """Wake every in-flight worker on *address* immediately.

    The eager half of failure detection: a health prober that declares
    a replica dead (:meth:`~repro.net.cluster.ServerPool.mark_down`)
    already *knows* the streams on it are doomed — without this, each
    one still blocks out its own heartbeat watchdog (up to
    ``TIMEOUT_INTERVALS`` silent intervals) before failing over.
    Closing the framer under the pump's blocked receive surfaces an
    ``OSError`` within one ``POLL_SLICE``; the stashed *reason* makes
    the loss verdict say "probe declared the server dead" rather than
    the bare transport error the forced close produced.  Returns how
    many workers were woken.
    """
    with _live_lock:
        workers = list(_live_workers.get(tuple(address), ()))
    for worker in workers:
        worker.drained = reason
        worker.framer.close()
    return len(workers)


class RemoteWorker:
    """One server connection plus the pump/watchdog thread draining it.

    *owner* is the pipe (or :class:`RemotePipe`) being fed: it supplies
    the output channel, the cancel flag, and the watchdog knobs.  The
    pump body runs on a scheduler thread; the worker itself registers
    with the scheduler's session accounting, so ``leaked()`` and
    ``shutdown()`` cover the open socket.
    """

    __slots__ = (
        "owner",
        "scheduler",
        "framer",
        "address",
        "name",
        "request",
        "window",
        "heartbeat_timeout",
        "handle",
        "lost",
        "_loss_once",
        "pool",
        "route_key",
        "chaos",
        "drained",
        "_healthy",
    )

    def __init__(
        self,
        owner: Any,
        scheduler: Any,
        sock: Any,
        address: Any,
        name: str,
        request: tuple,
    ) -> None:
        self.owner = owner
        self.scheduler = scheduler
        self.framer = SocketFramer(sock)
        self.address = address
        self.name = name
        self.request = request
        #: Credit window: the channel capacity (None = unbounded).
        self.window: int | None = owner.capacity or None
        self.heartbeat_timeout = owner.options.beat_timeout
        self.handle: Any = None
        #: The loss verdict once the watchdog fired (None while healthy).
        self.lost: PipeConnectionLost | None = None
        #: Held by the first loss report (see _claim_loss); never released.
        self._loss_once = threading.Lock()
        #: Cluster routing, when this session was dialed through a
        #: :class:`~repro.net.cluster.ServerPool`: the pool hears about
        #: losses/health (suspicion, failover accounting) keyed by
        #: ``route_key``; ``chaos`` is the pool's armed fault context
        #: (one per (re)connection) ticked per delivered item.
        self.pool: Any = None
        self.route_key: Any = None
        self.chaos: Any = None
        #: The drain verdict when a health prober declared this worker's
        #: server dead (:func:`drain_address`): the pump reports *this*
        #: reason instead of the bare transport error the forced close
        #: produced.
        self.drained: str | None = None
        #: True once the stream proved the server healthy (first data /
        #: error / close envelope) and the breaker heard about it.
        self._healthy = False

    # -- lifecycle events ------------------------------------------------------

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pipe:{self.name}", 0, value))

    # -- handshake -------------------------------------------------------------

    def handshake(self) -> None:
        """Ship the request, the initial credit grant, and (when the
        owner carries one) the deadline budget — remaining seconds, the
        only form that survives a clock boundary."""
        self.framer.send(self.request)
        self.framer.send((WIRE_CREDIT, self.window))
        deadline = getattr(self.owner, "deadline", None)
        if deadline is not None:
            remaining = deadline.remaining()
            self.framer.send((WIRE_DEADLINE, remaining))
            self._emit(
                EventKind.DEADLINE_PROPAGATED,
                {"remaining": remaining, "transport": "remote"},
            )
        self.framer.sock.settimeout(POLL_SLICE)

    # -- pump / watchdog -------------------------------------------------------

    def _claim_loss(self) -> bool:
        """True for the first loss report only: one lost session is one
        breaker failure.  (A drop-at-connect rule reports the loss and
        closes the socket; the pump then finds it closed and would
        report it again.)"""
        return self._loss_once.acquire(blocking=False)

    def _mark_lost(self, reason: str) -> None:
        if not self._claim_loss():
            return
        breaker_for(self.address).record_failure()
        if self.pool is not None:
            self.pool.note_lost(self.route_key, self.address, reason)
        self.lost = PipeConnectionLost(
            f"pipe {self.name!r}: remote session lost ({reason})",
            address=self.address,
            reason=reason,
        )
        self._emit(
            EventKind.NET_LOST, {"reason": reason, "address": self.address}
        )
        self.owner._errored = True
        try:
            self.owner.out.put_error(self.lost)
        except ChannelClosedError:
            pass  # consumer cancelled while the session was dying

    def _mark_busy(self, retry_after: float) -> None:
        """The server shed us (``WIRE_BUSY``): a retryable loss that
        feeds the breaker its ``retry_after`` hint."""
        if not self._claim_loss():
            return
        breaker_for(self.address).record_failure(retry_after)
        if self.pool is not None:
            self.pool.note_lost(self.route_key, self.address, "server at capacity")
        busy = PipeServerBusy(
            f"pipe {self.name!r}: server at {self.address!r} shed the "
            f"connection (retry after {retry_after:.2f}s)",
            address=self.address,
            retry_after=retry_after,
        )
        self.lost = busy
        self._emit(
            EventKind.NET_LOST,
            {"reason": "server at capacity", "address": self.address},
        )
        self.owner._errored = True
        try:
            self.owner.out.put_error(busy)
        except ChannelClosedError:
            pass  # consumer cancelled while being shed

    def _mark_healthy(self) -> None:
        # First substantive envelope: the server accepted and ran the
        # session, so the breaker's failure streak is over (a long
        # stream must not wait for WIRE_CLOSE to close the breaker).
        if not self._healthy:
            self._healthy = True
            breaker_for(self.address).record_success()
            if self.pool is not None:
                self.pool.note_healthy(self.address)

    def _grant(self, amount: int) -> bool:
        """Give *amount* delivered items' credit back to the server;
        False (with the loss reported) when the transport is gone."""
        try:
            self.framer.send((WIRE_CREDIT, amount))
        except (OSError, EOFError) as error:
            if not self.owner._cancelled:
                self._mark_lost(self.drained or f"transport error: {error!r}")
            return False
        return True

    def pump(self) -> None:
        """Forward wire envelopes into the owner's channel; watch liveness.

        The deadline is only *checked* when a receive times out and
        refreshed by every envelope — so a pump that spent seconds
        blocked in ``put_many`` (slow consumer) finds the server's
        buffered beats waiting and never false-positives.
        """
        owner = self.owner
        out = owner.out
        deadline = time.monotonic() + self.heartbeat_timeout
        closed = False
        # Coalesced credit: items delivered but not yet granted back,
        # paid at half the effective window E = min(window, quota).
        # After the first grant is clamped to E, the server's credit,
        # the data in flight and `owed` sum to E, so a pump that blocks
        # with owed < max(1, E // 2) <= E leaves the server credit or
        # data on the way.  Until the server has told its quota, a clamp
        # it cannot see could leave both sides waiting, so owed credit
        # is also paid before every receive that could block.
        owed = 0
        window = self.window
        threshold = max(1, window // 2) if window is not None else 0
        quota_known = False
        _register_live(self)
        try:
            while not closed:
                if owner._cancelled:
                    return
                if owed and not quota_known and not self.framer.buffered():
                    if not self._grant(owed):
                        return
                    owed = 0
                try:
                    envelope = self.framer.recv()
                except (socket.timeout, TimeoutError):
                    if time.monotonic() >= deadline:
                        self._mark_lost(
                            self.drained
                            or f"no heartbeat within "
                            f"{self.heartbeat_timeout:.2f}s"
                        )
                        return
                    continue
                except (EOFError, FrameError, OSError) as error:
                    if owner._cancelled:
                        return
                    self._mark_lost(
                        self.drained
                        or (
                            "connection closed before end of stream"
                            if isinstance(error, (EOFError, FrameError))
                            else f"transport error: {error!r}"
                        )
                    )
                    return
                deadline = time.monotonic() + self.heartbeat_timeout
                kind = envelope[0]
                if kind == WIRE_DATA:
                    self._mark_healthy()
                    slice_ = envelope[1]
                    out.put_many(slice_)
                    if self.chaos is not None:
                        # Deterministic chaos: tick the armed fault plan
                        # once per delivered item.  drop_connection rules
                        # raise here; kill_server rules fire silently and
                        # the fault arrives through the socket like a
                        # real crash.
                        try:
                            for item in slice_:
                                self.chaos.on_item(item)
                        except InjectedDisconnect:
                            self._mark_lost("injected connection drop")
                            return
                    if window is not None:
                        owed += len(slice_)
                        if owed >= threshold:
                            if not self._grant(owed):
                                return
                            owed = 0
                elif kind == WIRE_ERROR:
                    self._mark_healthy()  # the *server* worked; the body crashed
                    owner._errored = True
                    closed = out.feed_wire(kind, decode_error(envelope[1]))
                elif kind == WIRE_CLOSE:
                    self._mark_healthy()
                    closed = True
                elif kind == WIRE_QUOTA:
                    quota = envelope[1] if len(envelope) > 1 else 0
                    if quota is not None and not (type(quota) is int and quota >= 1):
                        self._mark_lost(f"protocol violation: {envelope!r}")
                        return
                    if window is not None and quota is not None:
                        threshold = max(1, min(window, quota) // 2)
                    quota_known = True
                elif kind == WIRE_BUSY:
                    retry_after = envelope[1] if len(envelope) > 1 else 0.0
                    self._mark_busy(float(retry_after))
                    return
                elif kind != WIRE_BEAT:
                    self._mark_lost(f"protocol violation: {kind!r} envelope")
                    return
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        finally:
            _unregister_live(self)
            out.close()
            self.framer.close()
            self.scheduler.untrack_session(self)
            if owner._cancelled or owner._errored:
                owner._cancel_upstream()

    # -- teardown --------------------------------------------------------------

    def terminate(self) -> None:
        """Tell the server to stop, then close the socket (idempotent)."""
        try:
            self.framer.send((WIRE_CANCEL,))
        except (OSError, EOFError):
            pass  # session already gone
        self.framer.close()

    # -- worker/session protocol (scheduler accounting) ------------------------

    def kill(self) -> None:
        """Abrupt close (scheduler shutdown): unblocks the pump."""
        self.framer.close()

    def join(self, timeout: float | None = None) -> bool:
        if self.handle is not None:
            return self.handle.join(timeout)
        return True

    def is_alive(self) -> bool:
        return self.handle is not None and self.handle.is_alive()


def _connect_worker(
    owner: Any,
    scheduler: Any,
    address: Any,
    name: str,
    request: tuple,
    pool: Any = None,
    key: Any = None,
) -> RemoteWorker:
    """Dial, register, handshake, and submit the pump for *owner*.

    With a *pool*, the session joins it under route *key* before the
    pump starts, so an armed fault plan sees every delivered item and a
    drop-at-connect rule fires before any data can reach the consumer.

    Raises ``OSError`` when the server is unreachable and
    :class:`~repro.errors.SchedulerShutdownError` when the scheduler is
    down — the callers decide whether that degrades or propagates.
    """
    sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    worker = RemoteWorker(owner, scheduler, sock, address, name, request)
    try:
        scheduler.track_session(worker)  # raises after shutdown
    except BaseException:
        worker.framer.close()
        raise
    try:
        worker.handshake()
    except BaseException:
        worker.framer.close()
        scheduler.untrack_session(worker)
        raise
    if lifecycle_enabled():
        emit_lifecycle(
            Event(
                EventKind.NET_CONNECT,
                f"pipe:{name}",
                0,
                {"address": address},
            )
        )
    if pool is not None:
        worker.pool = pool
        worker.route_key = key
        pool.note_connect(key, address)
        try:
            worker.chaos = pool.chaos_enter(key)
        except InjectedDisconnect:
            # A drop-at-connect rule: the session opened, then "died"
            # before any data.  The pump still runs: it finds the
            # socket closed and tears the worker down normally.
            worker._mark_lost("injected connection drop")
            worker.terminate()
    try:
        worker.handle = scheduler.submit(worker.pump, name=f"net-{name}")
    except BaseException:
        worker.framer.close()
        scheduler.untrack_session(worker)
        raise
    return worker


def _dial_pooled(
    owner: Any,
    scheduler: Any,
    pool: Any,
    key: Any,
    request: tuple,
    label: Any = None,
) -> RemoteWorker:
    """Dial through a :class:`~repro.net.cluster.ServerPool`.

    Walks the pool's dial candidates for *key* — the ring's preference
    order with suspect replicas last — consulting the per-address
    circuit breaker before each dial (an open breaker is a ``REROUTE``,
    not a dead end; the next candidate is tried).  The first replica
    that accepts gets the session: the pool records the connect (and
    emits ``FAILOVER`` when a lost stream lands on a new replica), the
    worker carries the pool + key so losses feed suspicion, and an
    armed fault plan is entered for the session.

    *label* names the worker: a callable receives the chosen address
    (RemotePipe's ``factory@host:port`` labels); None uses *key*.

    Raises :class:`~repro.errors.PipeConnectionLost` only when **every**
    replica refused — the caller then applies its tier's last-resort
    rule (degrade to threads, or propagate for a RemotePipe).
    """
    last_error: BaseException | None = None
    for address in pool.dial_candidates(key):
        breaker = breaker_for(address)
        if not breaker.allow():
            pool.note_skip(
                key,
                address,
                f"circuit breaker open (probe in {breaker.remaining():.2f}s)",
            )
            continue
        name = label(address) if callable(label) else (label or key)
        try:
            return _connect_worker(
                owner, scheduler, address, name, request, pool, key
            )
        except (OSError, EOFError) as error:
            breaker.record_failure()
            pool.note_dial_failure(key, address, error)
            last_error = error
    suffix = f" (last error: {last_error!r})" if last_error is not None else ""
    raise PipeConnectionLost(
        f"no replica reachable for {key!r} in {pool!r}{suffix}",
        address=pool.addresses,
        reason="no replica reachable",
    )


def start_remote_worker(pipe: Any, scheduler: Any) -> RemoteWorker | str:
    """Ship *pipe*'s body to its generator server.

    Returns a running :class:`RemoteWorker` (connected, request sent,
    pump submitted, session tracked by *scheduler*) — or the reason the
    body cannot run there (it does not travel, or no server can be
    reached), and :meth:`Pipe.start` degrades to the thread backend.
    The body is pickled once, for the request.  Scheduler shutdown is
    **not** degradation: it propagates
    :class:`~repro.errors.SchedulerShutdownError` exactly as the other
    backends do.

    An open :class:`CircuitBreaker` for the target address degrades
    *without dialing* — while the server is shedding (or down), remote
    requests run on the thread tier instead of feeding a reconnect
    storm; the breaker's half-open probe decides when to go back.
    """
    body = _pickled_body(pipe)
    if isinstance(body, str):
        return body
    options = pipe.options
    address = options.remote_address
    pooled = hasattr(address, "dial_candidates")
    breaker = None if pooled else breaker_for(address)
    if breaker is not None and not breaker.allow():
        return (
            f"circuit breaker open for {address!r} "
            f"(probe in {breaker.remaining():.2f}s)"
        )
    name = pipe.coexpr.name
    request = (
        WIRE_SPAWN,
        {
            "body": body,
            "name": name,
            "batch": options.batch,
            "max_linger": options.max_linger,
            "heartbeat_interval": options.beat_interval,
            "quota": True,
        },
    )
    if pooled:
        # Cluster tier: per-replica breakers are consulted inside the
        # candidate walk; only a fleet-wide refusal degrades (replica ->
        # next replica -> threads).
        try:
            return _dial_pooled(pipe, scheduler, address, name, request)
        except PipeConnectionLost as error:
            return str(error)
    try:
        return _connect_worker(pipe, scheduler, address, name, request)
    except (OSError, EOFError) as error:
        breaker.record_failure()
        return f"connect to {address!r} failed: {error!r}"


class RemotePipe(IconIterator):
    """A pipe over a factory the *server* registered by name.

    The consumer-facing twin of ``Pipe(..., backend="remote")`` for
    bodies that only exist server-side: ``RemotePipe(address, "events",
    args=(...,))`` asks the server to run its ``events`` factory and
    streams the results through a local channel with the same take /
    iterate / cancel surface a :class:`~repro.coexpr.pipe.Pipe` has.

    There is no local body to fall back to, so connection failures
    raise :class:`~repro.errors.PipeConnectionLost` instead of
    degrading.  ``refresh()`` returns a sibling proxy — a *new*
    connection replaying the factory from the start — which is what
    supervision needs for reconnect-and-replay.
    """

    __slots__ = (
        "address",
        "factory_name",
        "args",
        "options",
        "capacity",
        "out",
        "take_timeout",
        "deadline",
        "upstream",
        "_scheduler",
        "_worker",
        "_started",
        "_cancelled",
        "_errored",
    )

    def __init__(
        self,
        address: Any,
        name: str,
        args: tuple = (),
        capacity: int = 0,
        scheduler: PipeScheduler | None = None,
        take_timeout: float | None = None,
        batch: int = 1,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        deadline: Any = None,
    ) -> None:
        # Pipe's rules, checked before dialing.  A list of replicas
        # becomes a ServerPool; a single (host, port) stays a tuple; an
        # existing pool is shared (routing memory — suspicion, failover
        # history — persists across refresh()).
        self.options = options = PipeOptions(
            capacity=capacity,
            take_timeout=take_timeout,
            batch=batch,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            remote_address=address,
            deadline=deadline,
        )
        super().__init__()
        self.address = options.remote_address
        self.factory_name = name
        self.args = tuple(args)
        self.capacity = capacity
        self.out = Channel(capacity)
        self.take_timeout = take_timeout
        #: End-to-end budget; shipped to the server in the handshake.
        self.deadline = options.deadline
        self.upstream: Any = None
        self._scheduler = scheduler
        self._worker: RemoteWorker | None = None
        self._started = False
        self._cancelled = False
        self._errored = False

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pipe:{self.factory_name}", 0, value))

    def _deadline_error(self, where: str) -> PipeDeadlineExceeded:
        self._emit(EventKind.DEADLINE_EXPIRED, {"where": where, "remaining": 0.0})
        return PipeDeadlineExceeded(
            f"remote pipe {self.factory_name!r}: deadline exceeded ({where})",
            where=where,
        )

    def _cancel_upstream(self) -> None:
        upstream = self.upstream
        if upstream is not None:
            canceller = getattr(upstream, "cancel", None)
            if canceller is not None:
                canceller()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RemotePipe":
        """Connect and start streaming (idempotent; lazy via take).

        An expired deadline short-circuits before the dial; an open
        circuit breaker fails fast with
        :class:`~repro.errors.PipeServerBusy` (retryable — there is no
        local body to degrade to).
        """
        if self._started or self._cancelled:
            return self
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            error = self._deadline_error("start")
            self.cancel()
            raise error
        pooled = hasattr(self.address, "dial_candidates")
        if not pooled:
            breaker = breaker_for(self.address)
            if not breaker.allow():
                raise PipeServerBusy(
                    f"remote pipe {self.factory_name!r}: circuit breaker open "
                    f"for {self.address!r}",
                    address=self.address,
                    retry_after=breaker.remaining(),
                )
        self._started = True
        scheduler = self._scheduler or default_scheduler()
        request = (
            WIRE_CALL,
            {
                "name": self.factory_name,
                "args": self.args,
                "batch": self.options.batch,
                "max_linger": None,
                "heartbeat_interval": self.options.beat_interval,
                "quota": True,
            },
        )
        if pooled:
            # Cluster tier: walk the replicas (per-replica breakers are
            # consulted inside).  Only a fleet-wide refusal propagates —
            # there is no local body to degrade to.
            try:
                self._worker = _dial_pooled(
                    self,
                    scheduler,
                    self.address,
                    self.factory_name,
                    request,
                    label=lambda a: f"{self.factory_name}@{a[0]}:{a[1]}",
                )
            except BaseException:
                self._started = False
                raise
            return self
        label = f"{self.factory_name}@{self.address[0]}:{self.address[1]}"
        try:
            self._worker = _connect_worker(
                self, scheduler, self.address, label, request
            )
        except (OSError, EOFError) as error:
            # Un-start on a failed dial: with _started left set, a
            # retrying take() would skip the reconnect and block forever
            # on a channel nothing will ever feed or close.
            self._started = False
            breaker.record_failure()
            raise PipeConnectionLost(
                f"remote pipe {self.factory_name!r}: cannot reach "
                f"{self.address!r} ({error!r})",
                address=self.address,
                reason="connect failed",
            ) from error
        except BaseException:
            self._started = False
            raise
        return self

    def cancel(self, join: bool = False, timeout: float | None = None) -> bool:
        """Stop the remote session and close the local channel."""
        first = not self._cancelled
        self._cancelled = True
        if first:
            self.out.close()
            worker = self._worker
            if worker is not None:
                worker.terminate()
        worker = self._worker
        if worker is None:
            return True
        if join:
            return worker.join(timeout)
        return not worker.is_alive()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def refresh(self) -> "RemotePipe":
        """A sibling proxy: a fresh connection replaying the factory."""
        options = self.options
        return RemotePipe(
            self.address,
            self.factory_name,
            args=self.args,
            capacity=self.capacity,
            scheduler=self._scheduler,
            take_timeout=self.take_timeout,
            batch=options.batch,
            heartbeat_interval=options.heartbeat_interval,
            heartbeat_timeout=options.heartbeat_timeout,
            deadline=self.deadline,  # the same budget: a refresh is not a reset
        )

    # -- consumer --------------------------------------------------------------

    def take(self, timeout: Any = _UNSET) -> Any:
        """The next result or :data:`FAIL`; deadline like ``Pipe.take``."""
        if timeout is _UNSET:
            timeout = self.take_timeout
        deadline = self.deadline
        if deadline is not None:
            if deadline.expired():
                error = self._deadline_error("take")
                self.cancel()
                raise error
            timeout = deadline.bound(timeout)
        try:
            self.start()
            item = self.out.take(timeout)
        except PipeDeadlineExceeded:
            # The server session's own expiry envelope (or a start-time
            # short-circuit): tear down and let it through unwrapped.
            self.cancel()
            raise
        except PipeTimeoutError:
            if deadline is not None and deadline.expired():
                error = self._deadline_error("take")
                self.cancel()
                raise error from None
            raise PipeTimeoutError(
                f"remote pipe {self.factory_name!r}: no result within {timeout}s"
            ) from None
        if item is CLOSED:
            return FAIL
        return item

    def next_value(self) -> Any:
        return self.take()

    def iterate(self) -> Iterator[Any]:
        self.start()
        while True:
            item = self.take()
            if item is FAIL:
                return
            yield item

    # -- runtime protocol hooks ------------------------------------------------

    def icon_activate(self, transmit: Any = None) -> Any:
        if transmit is not None:
            raise PipeError("cannot transmit a value into a remote pipe")
        return self.take()

    def icon_promote(self) -> Iterator[Any]:
        return self.iterate()

    def icon_type(self) -> str:
        return "remote-pipe"

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("connected" if self._started else "unstarted")
        )
        return (
            f"RemotePipe({self.factory_name}@{self.address!r}, {state}, "
            f"queued={len(self.out)})"
        )
