"""The client side of the network tier: remote workers and remote pipes.

Both client shapes are a :class:`~repro.coexpr.pipe.Pipe`, and both
start their producer through one dial (:func:`_dial`):

* ``Pipe(..., backend="remote")`` — :func:`start_remote_worker`, the
  hook :meth:`Pipe.start` calls for that backend, ships the pipe's own
  ``(factory, env)`` body to the generator server (or returns why it
  cannot, and the pipe degrades to threads);
* :class:`RemotePipe` — a pipe over a factory the *server* registered
  by name, for bodies that only exist on the far side.  It raises where
  the first shape degrades.

A :class:`RemoteWorker` runs the client half of the session protocol
that every socket tier shares (:class:`~repro.coexpr.pump.StreamPump`,
which the process tier also runs): the handshake, coalesced credit
sized by the server's quota, and cancel as ``WIRE_CANCEL``; the pump
forwards envelopes into the pipe's channel and watches the heartbeat.
Expiry, an EOF, or a torn frame surfaces as
:class:`~repro.errors.PipeConnectionLost` through the channel (after
the data received first — the data-before-error invariant).  This
module adds what only a network peer needs: ``WIRE_BUSY``, the circuit
breaker, the server pool's health notes and chaos ticks, and the drain
verdict of :func:`drain_address`.

Degradation mirrors :mod:`repro.coexpr.proc`: a body that cannot leave
the process (:func:`~repro.coexpr.proc.body_portability_reason`), a
body that does not pickle, or a server that cannot be reached all fall
back to the thread backend with a ``DEGRADED`` monitor event.

A per-address :class:`CircuitBreaker` sits in front of every dial:
consecutive ``WIRE_BUSY`` sheds and connection losses trip it open, and
while open ``backend="remote"`` degrades to the thread tier *without
dialing* — a saturated server stops being hammered by reconnect storms.
After the shed's ``retry_after`` lapses the breaker admits one half-open
probe; a healthy stream closes it again.  The breaker is the address's
one process-wide record: it also holds the address's down-mark (which
every :class:`~repro.net.cluster.ServerPool` reads as suspicion) and
the in-flight workers :func:`drain_address` wakes.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any, Callable

from ..coexpr.coexpression import CoExpression
from ..coexpr.pipe import Pipe
from ..coexpr.proc import body_portability_reason
from ..coexpr.pump import StreamLost, StreamPump
from ..coexpr.scheduler import PipeScheduler
from ..coexpr.wire import WIRE_BUSY, WIRE_SPAWN
from ..errors import InjectedDisconnect, PipeConnectionLost, PipeServerBusy
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled

#: TCP connect timeout before degrading (or failing a RemotePipe).
_CONNECT_TIMEOUT = 5.0

#: Consecutive failures (sheds or connection losses) that trip a breaker.
_BREAKER_THRESHOLD = 3
#: Open-state hold when the failure carried no ``retry_after`` hint.
_BREAKER_COOLDOWN = 0.5


class CircuitBreaker:
    """One replica address's process-wide record.

    **The breaker** (closed → open → half-open → closed).  Every remote
    dial consults it.  While **closed** (healthy) dials pass through;
    *threshold* consecutive failures — a ``WIRE_BUSY`` shed, a refused
    or lost connection — trip it **open**, and :meth:`allow` then
    answers False until the failure's ``retry_after`` (or a default
    cooldown) lapses.  The first dial after that is the **half-open
    probe**: exactly one caller is admitted while the others keep
    failing fast; the probe's outcome (a healthy stream vs. another
    failure) closes or re-opens the breaker.

    **The down-mark** (:meth:`mark_down` / :meth:`mark_up` /
    :meth:`is_down`).  A lost session, a failed dial or a probe's death
    verdict marks the address down until a monotonic deadline (a later
    deadline wins); every pool routes a marked address last, so one
    pool's discovery demotes the address for all of them.  A mark whose
    writer vanished decays instead of condemning the address forever.

    **The live workers**: the in-flight :class:`RemoteWorker` sessions
    on the address, which :func:`drain_address` wakes.

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
        self._down_until = 0.0  # monotonic instant the down-mark lapses
        self.down_reason: str | None = None
        self._live: set = set()  # in-flight RemoteWorkers

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

    def mark_down(self, reason: str, ttl: float) -> None:
        """Mark the address down for *ttl* seconds; an existing later
        deadline is kept (a short re-mark must not cut it short)."""
        until = time.monotonic() + max(ttl, 0.0)
        with self._lock:
            if until > self._down_until:
                self._down_until = until
                self.down_reason = reason

    def mark_up(self) -> None:
        """Clear the down-mark (a pong on a down member, a healthy stream)."""
        with self._lock:
            self._down_until = 0.0
            self.down_reason = None

    def is_down(self) -> bool:
        return self._down_until > time.monotonic()


_breakers: dict = {}
_breakers_lock = threading.Lock()


def breaker_for(address: Any) -> CircuitBreaker:
    """The process-wide record for *address* (created on first use)."""
    key = tuple(address) if isinstance(address, (list, tuple)) else address
    breaker = _breakers.get(key)
    if breaker is None:
        with _breakers_lock:
            breaker = _breakers.setdefault(key, CircuitBreaker(key))
    return breaker


def reset_breakers() -> None:
    """Forget every address record — breaker state, down-marks and all
    (test isolation between server lifetimes)."""
    with _breakers_lock:
        _breakers.clear()


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
    breaker = breaker_for(address)
    with breaker._lock:
        workers = list(breaker._live)
    for worker in workers:
        worker.drained = reason
        worker.framer.close()
    return len(workers)


class RemoteWorker(StreamPump):
    """One server connection plus the pump thread draining it.

    The pump, the session's client half (handshake, credit and the
    server's quota, cancel) and the once-only loss report are
    :class:`~repro.coexpr.pump.StreamPump`'s; this class adds
    ``WIRE_BUSY``, the breaker and pool health notes, the chaos ticks
    and the drain verdict.  The worker registers with the scheduler's
    session accounting, so ``leaked()`` and ``shutdown()`` cover the
    open socket.
    """

    __slots__ = (
        "address",
        "breaker",
        "pool",
        "route_key",
        "chaos",
        "drained",
        "_retry_after",
    )

    LOST_EVENT = EventKind.NET_LOST
    TRANSPORT = "remote"

    def __init__(
        self,
        pipe: Any,
        scheduler: Any,
        sock: Any,
        address: Any,
        name: str,
    ) -> None:
        super().__init__(pipe, scheduler, name, sock)
        self.address = address
        self.breaker = breaker_for(address)
        #: Cluster routing, when this session was dialed through a
        #: :class:`~repro.net.cluster.ServerPool`: the pool hears about
        #: losses/health (suspicion, failover accounting) keyed by
        #: ``route_key``; ``chaos`` is the pool's armed fault context
        #: (one per (re)connection) ticked per delivered item.
        self.pool: Any = None
        self.route_key: Any = None
        self.chaos: Any = None
        #: The drain verdict when a health prober declared this worker's
        #: server dead (:func:`drain_address`): the loss reports *this*
        #: reason instead of the bare transport error the forced close
        #: produced.
        self.drained: str | None = None
        #: The server's ``WIRE_BUSY`` hint once it shed this session.
        self._retry_after: float | None = None

    # -- the transport half of the pump ----------------------------------------

    def _endpoints(self) -> tuple:
        receive, deliver = super()._endpoints()
        chaos = self.chaos
        if chaos is None:
            return receive, deliver

        def deliver_ticked(slice_: list) -> None:
            # Deterministic chaos: tick the armed fault plan once per
            # delivered item.  drop_connection rules raise here;
            # kill_server rules fire silently and the fault arrives
            # through the socket like a real crash.
            deliver(slice_)
            try:
                for item in slice_:
                    chaos.on_item(item)
            except InjectedDisconnect:
                raise StreamLost("injected connection drop") from None

        return receive, deliver_ticked

    def _served(self) -> None:
        # First substantive envelope: the server accepted and ran the
        # session, so the breaker's failure streak is over (a long
        # stream must not wait for WIRE_CLOSE to close the breaker).
        if not self._healthy:
            super()._served()
            self.breaker.record_success()
            if self.pool is not None:
                self.pool.note_healthy(self.address)

    def _control(self, envelope: tuple) -> None:
        if envelope[0] == WIRE_BUSY:
            # The server shed us: a retryable loss that feeds the
            # breaker its retry_after hint.
            self._retry_after = float(envelope[1] if len(envelope) > 1 else 0.0)
            raise StreamLost("server at capacity")
        super()._control(envelope)

    def _loss(self, reason: str) -> tuple:
        reason = self.drained or reason
        retry_after = self._retry_after
        self.breaker.record_failure(retry_after)
        if self.pool is not None:
            self.pool.note_lost(self.route_key, self.address, reason)
        if retry_after is None:
            error: PipeConnectionLost = PipeConnectionLost(
                f"pipe {self.name!r}: remote session lost ({reason})",
                address=self.address,
                reason=reason,
            )
        else:
            error = PipeServerBusy(
                f"pipe {self.name!r}: server at {self.address!r} shed the "
                f"connection (retry after {retry_after:.2f}s)",
                address=self.address,
                retry_after=retry_after,
            )
        return error, {"reason": reason, "address": self.address}

    def _release(self) -> None:
        with self.breaker._lock:
            self.breaker._live.discard(self)
        super()._release()
        self.scheduler.untrack_session(self)

    def kill(self) -> None:
        """Abrupt close (scheduler shutdown): unblocks the pump."""
        self.framer.close()


def _connect_worker(
    pipe: Any,
    scheduler: Any,
    address: Any,
    name: str,
    request: dict,
    pool: Any = None,
    key: Any = None,
) -> RemoteWorker:
    """Dial, register, handshake, and submit the pump for *pipe*.

    With a *pool*, the session joins it under route *key* before the
    pump starts, so an armed fault plan sees every delivered item and a
    drop-at-connect rule fires before any data can reach the consumer.

    Raises ``OSError`` when the server is unreachable and
    :class:`~repro.errors.SchedulerShutdownError` when the scheduler is
    down.
    """
    sock = socket.create_connection(address, timeout=_CONNECT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    worker = RemoteWorker(pipe, scheduler, sock, address, name)
    try:
        scheduler.track_session(worker)  # raises after shutdown
        worker.handshake(**request)
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
    with worker.breaker._lock:
        worker.breaker._live.add(worker)
    try:
        worker.handle = scheduler.submit(worker.pump, name=f"net-{name}")
    except BaseException:
        worker._release()
        raise
    return worker


def _dial_pooled(
    pipe: Any,
    scheduler: Any,
    pool: Any,
    request: dict,
    label: Callable[[Any], str],
) -> RemoteWorker:
    """Dial through a :class:`~repro.net.cluster.ServerPool`.

    Walks the pool's dial candidates for the pipe's name — the ring's
    preference order with suspect replicas last — consulting the
    per-address circuit breaker before each dial (an open breaker is a
    ``REROUTE``, not a dead end; the next candidate is tried).  The
    first replica that accepts gets the session: the pool records the
    connect (and emits ``FAILOVER`` when a lost stream lands on a new
    replica), the worker carries the pool + key so losses feed
    suspicion, and an armed fault plan is entered for the session.

    Raises :class:`~repro.errors.PipeConnectionLost` only when **every**
    replica refused.
    """
    key = pipe.coexpr.name
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
        try:
            return _connect_worker(
                pipe, scheduler, address, label(address), request, pool, key
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


def _dial(
    pipe: Any, scheduler: Any, request: dict, label: Callable[[Any], str]
) -> RemoteWorker:
    """Open *pipe*'s session with *request* and start its pump.

    *label* names the worker after the address it reached.  A single
    address is dialed once, behind its :class:`CircuitBreaker`; a
    :class:`~repro.net.cluster.ServerPool` is walked replica by replica
    (see :func:`_dial_pooled`).  Raises
    :class:`~repro.errors.PipeServerBusy` when the breaker is open (no
    dial is made) and :class:`~repro.errors.PipeConnectionLost` when no
    server could be reached: ``backend="remote"`` turns either into a
    degrade reason, and a :class:`RemotePipe` lets it through.
    Scheduler shutdown propagates
    :class:`~repro.errors.SchedulerShutdownError`.
    """
    address = pipe.options.remote_address
    if hasattr(address, "dial_candidates"):
        return _dial_pooled(pipe, scheduler, address, request, label)
    breaker = breaker_for(address)
    if not breaker.allow():
        raise PipeServerBusy(
            f"circuit breaker open for {address!r} "
            f"(probe in {breaker.remaining():.2f}s)",
            address=address,
            retry_after=breaker.remaining(),
        )
    try:
        return _connect_worker(pipe, scheduler, address, label(address), request)
    except (OSError, EOFError) as error:
        breaker.record_failure()
        raise PipeConnectionLost(
            f"connect to {address!r} failed: {error!r}",
            address=address,
            reason="connect failed",
        ) from error


def start_remote_worker(pipe: Any, scheduler: Any) -> RemoteWorker | str:
    """Ship *pipe*'s body to its generator server.

    Returns a running :class:`RemoteWorker` (connected, request sent,
    pump submitted, session tracked by *scheduler*) — or the reason the
    body cannot run there (it does not travel, the breaker is open, or
    no server can be reached), and :meth:`Pipe.start` degrades to the
    thread backend.  The body is pickled once, for the request.

    An open :class:`CircuitBreaker` for the target address degrades
    *without dialing* — while the server is shedding (or down), remote
    requests run on the thread tier instead of feeding a reconnect
    storm; the breaker's half-open probe decides when to go back.
    """
    body = _pickled_body(pipe)
    if isinstance(body, str):
        return body
    name = pipe.coexpr.name
    request = {"name": name, "kind": WIRE_SPAWN, "body": body}
    try:
        return _dial(pipe, scheduler, request, lambda address: name)
    except PipeConnectionLost as error:
        return str(error)


class RemotePipe(Pipe):
    """A pipe over a factory the *server* registered by name.

    ``RemotePipe(address, "events", args=(...,))`` asks the server to
    run its ``events`` factory and streams the results through the
    pipe's channel — a :class:`~repro.coexpr.pipe.Pipe` in every other
    respect: ``take``, its timeout and deadline, ``cancel`` and the
    degrade rules of the stages it feeds are the pipe's own.

    There is no local body to fall back to, so where ``backend="remote"``
    degrades this pipe raises: :class:`~repro.errors.PipeServerBusy`
    while the address's breaker is open and
    :class:`~repro.errors.PipeConnectionLost` when no server can be
    reached (the pipe stays unstarted, so a retry dials again).
    ``refresh()`` returns a sibling proxy — a *new* connection
    replaying the factory from the start, with the same deadline and
    server pool — which is what supervision needs for
    reconnect-and-replay.
    """

    __slots__ = ("factory_name", "args")

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
        super().__init__(
            CoExpression(tuple, name=name),  # the body lives on the server
            capacity,
            scheduler,
            take_timeout=take_timeout,
            batch=batch,
            backend="remote",
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            remote_address=address,
            deadline=deadline,
        )
        self.factory_name = name
        self.args = tuple(args)

    #: The server (a ``(host, port)`` tuple) or the shared server pool.
    address = property(lambda self: self.options.remote_address)

    def _start_tier(self, scheduler: Any) -> RemoteWorker:
        name = self.factory_name
        request = {"name": name, "args": self.args}
        return _dial(self, scheduler, request, lambda a: f"{name}@{a[0]}:{a[1]}")

    def refresh(self) -> "RemotePipe":
        """A sibling proxy: a fresh connection replaying the factory,
        with the same options — the same budget (a refresh is not a
        reset) and the same server pool, not checked again."""
        sibling = RemotePipe.__new__(RemotePipe)
        Pipe.__init__(sibling, self.coexpr.refresh(), scheduler=self._scheduler, options=self.options)
        sibling.factory_name = self.factory_name
        sibling.args = self.args
        return sibling

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
            f"queued={self._queued()})"
        )
