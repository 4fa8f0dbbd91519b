"""Process-backed pipe workers — crash isolation for ``|>e``.

The paper's pipes are generator proxies on *threads*: cheap, but one hard
fault (a native crash, an OOM kill, ``os._exit``, a runaway C extension)
takes the whole interpreter down, and CPU-bound stages serialize on the
GIL.  This module adds a second execution tier, selected with
``backend="process"`` on :class:`~repro.coexpr.pipe.Pipe` (and threaded
through ``stage``/``pipeline``/``DataParallel``/``supervise``): the
worker body runs in a ``multiprocessing`` child that serves **one
session** of the generator server (:class:`~repro.net.server.Session`)
over one end of a ``socket.socketpair()``.  The body reaches the child
in memory — inherited through the fork, or pickled by ``multiprocessing``
under spawn — registered as the session's one factory; it never crosses
the wire.  The parent drives the other end with the client half every
socket tier shares, the :class:`~repro.coexpr.pump.StreamPump`, which
forwards envelopes into the pipe's ordinary
:class:`~repro.coexpr.channel.Channel`, so consumers, batching,
supervision, and monitoring all work unchanged.  The child therefore
speaks the whole session protocol: credit flow control for bounded
pipes, cancel as a cancel envelope, the deadline budget, and the
session's checks on malformed envelopes.

Three behaviours distinguish the tier:

* **Heartbeat watchdog.**  The session's reader thread beats every
  ``heartbeat_interval`` seconds and doubles as the batching rule's
  linger flusher, as on a server; the pump doubles as the monitor.
  Missed beats past ``heartbeat_timeout``, an EOF or reset on the
  socket, child death without a close envelope, or an envelope kind
  the pump does not know surface a :class:`~repro.errors.PipeWorkerLost`
  error (carrying the exit code) to the consumer instead of a hang or
  a silently truncated stream.  Data already in the socket is drained
  *before* the loss is reported — data-before-error, as in-process.
* **Worker-lost is retryable.**  Under
  :func:`~repro.coexpr.supervision.supervise` a lost worker consumes a
  retry like any producer crash: the process is respawned and the stream
  replayed/resumed per the restart mode, honoring the backoff policy —
  the snapshot/restart semantics of ``^c`` applied to a child process.
* **Graceful degradation.**  When the platform cannot ship the body (an
  unpicklable stage under a spawn context, a channel-fed stage whose
  upstream lives in the parent, a failed fork), the pipe falls back to
  the thread backend and emits a ``DEGRADED`` monitor event rather than
  erroring — same results, weaker isolation.

Child processes are registered with the owning
:class:`~repro.coexpr.scheduler.PipeScheduler`, so ``leaked()`` and
``shutdown()`` cover them: no orphaned children after tests.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import socket
from typing import Any, Callable

from ..errors import PipeWorkerLost
from ..monitor.events import EventKind, lifecycle_enabled
from .pump import StreamLost, StreamPump

#: Exit code used by fault injection (``FaultPlan.kill_stage``) so tests
#: can tell a deliberate chaos kill from an accidental one.
KILLED_EXIT = 173

#: Grace a child whose socket the parent closed gets to exit on its own
#: (its session sees the hang-up) before it is sent SIGTERM.
_EXIT_GRACE = 0.25
#: Grace given to a terminated child before escalating to SIGKILL —
#: SIGTERM cannot reap a SIGSTOP-ed (hung) child, SIGKILL always can.
_TERMINATE_GRACE = 1.0


def default_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context process pipes use by default.

    Prefers ``fork`` where available: a forked child inherits the body
    closure and its environment snapshot directly, so arbitrary stage
    bodies work without being picklable (the same reason snapshot-based
    restart is free — the creation-time environment *is* the fork image).
    Platforms without fork get the platform default (spawn), where the
    picklability preflight below governs degradation.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def body_portability_reason(pipe: Any) -> str | None:
    """Why *pipe*'s body cannot leave this process at all (None = it can).

    The boundary-independent half of the degradation rules, shared by the
    process tier (here) and the network tier (:mod:`repro.net.client`):

    * a body that already started in the parent cannot be snapshotted
      mid-iteration — another process would silently replay from the top;
    * an environment (or declared upstream) referencing parent-side
      concurrency state — a :class:`Pipe` (a supervised one included),
      :class:`Channel`, M-var or future — cannot cross the boundary: the threads
      feeding those objects do not survive on the other side, so the
      body would block forever on a queue nobody fills;
    * a live iterator (or started co-expression) in the environment is
      parent-side *position* state: a copy would replay from the
      snapshot point and the parent's copy would never advance — shared
      consumption cannot span processes.
    """
    from .coexpression import CoExpression
    from .future import Future, MVar
    from .pipe import Pipe

    coexpr = pipe.coexpr
    if coexpr.started:
        return "co-expression already started in the parent"
    parent_bound = (Pipe, Future, MVar)
    upstream = getattr(pipe, "upstream", None)
    if upstream is not None and isinstance(upstream, parent_bound):
        return "stage is fed by an in-parent pipe"
    from .channel import Channel

    for value in coexpr._env:
        if isinstance(value, parent_bound + (Channel,)):
            return f"environment references in-parent {type(value).__name__}"
        if isinstance(value, CoExpression):
            if value.started:
                return "environment references a started co-expression"
        elif hasattr(value, "__next__"):
            return "environment references a live iterator"
    return None


def spawn_unsafe_reason(pipe: Any, ctx: multiprocessing.context.BaseContext) -> str | None:
    """Why *pipe*'s body cannot run in a child of *ctx* (None = it can).

    The shared portability rules (:func:`body_portability_reason`) plus
    the process-tier specific one: under a non-fork start method the
    ``(factory, env)`` payload must pickle, because that is how the
    child will receive it (a forked child inherits the closure directly).
    """
    reason = body_portability_reason(pipe)
    if reason is not None:
        return reason
    if ctx.get_start_method() != "fork":
        coexpr = pipe.coexpr
        try:
            pickle.dumps((coexpr._factory, coexpr._env))
        except Exception as error:  # noqa: BLE001 - any pickle failure degrades
            return f"body not picklable under {ctx.get_start_method()}: {error!r}"
    return None


def _child_main(
    sock: Any,
    factory: Callable[..., Any],
    env: tuple,
    name: str,
    beat_interval: float,
) -> None:  # pragma: no cover - runs in the child process
    """Serve one session of the body over *sock*, then exit 0.

    The session runs on a fresh scheduler, so its reader thread starts
    only after the fork, and under an unstarted server that refuses
    spawn requests and whose one factory, registered under the pipe's
    name, is the body in memory.  The parent's lifecycle sinks are
    dropped: they cannot hear the child, and one may hold a lock the
    fork copied.
    """
    from ..monitor import events
    from ..net.server import GeneratorServer, Session
    from .scheduler import PipeScheduler

    events._lifecycle_sinks.clear()
    server = GeneratorServer(
        scheduler=PipeScheduler(),
        heartbeat_interval=beat_interval,
        allow_spawn=False,
        name=f"repro-proc-{name}",
    )
    server.register(name, functools.partial(factory, *env))
    session = Session(server, sock, None)
    session.run()
    session.join()


class ProcessWorker(StreamPump):
    """One child process plus the pump thread that drains it.

    Created by :func:`start_process_worker`; owns the parent's socket
    end and the ``multiprocessing.Process``.  The pump, the session's
    client half and the loss report are
    :class:`~repro.coexpr.pump.StreamPump`'s; a lost child surfaces as
    :class:`~repro.errors.PipeWorkerLost` with its exit code.
    """

    __slots__ = ("process",)

    LOST_EVENT = EventKind.WORKER_LOST
    TRANSPORT = "process"

    def __init__(self, pipe: Any, scheduler: Any, sock: Any, process: Any) -> None:
        super().__init__(pipe, scheduler, pipe.coexpr.name, sock)
        self.process = process

    def _idle(self) -> None:
        # A sibling forked while the child's end was still open holds a
        # copy of it, and then the child's death brings no EOF.  Nothing
        # arrived for a slice, so nothing it sent is left unread.
        if not self.process.is_alive():
            raise StreamLost(f"child died, exit code {self.process.exitcode}")

    def _silent(self) -> None:
        # A child that missed its heartbeat is hung: stopped, or stuck
        # in code that never releases the GIL.  SIGTERM cannot reach a
        # stopped child, so kill it now; _loss reaps it, and _release
        # then finds it gone instead of waiting out its graces.
        self.process.kill()

    def _loss(self, reason: str) -> tuple:
        # An EOF can race the child's actual exit: give it a beat so the
        # exit code is collectable (a still-running child — one that
        # broke the protocol — just reports None).
        self.process.join(0.2)
        exitcode = self.process.exitcode
        error = PipeWorkerLost(
            f"pipe {self.name!r}: process worker lost ({reason})", exitcode=exitcode
        )
        return error, {"reason": reason, "exitcode": exitcode}

    def _release(self) -> None:
        """Hang up, then reap the child: it exits on its own, or after
        SIGTERM, or after SIGKILL (a child that missed its heartbeat was
        killed already)."""
        try:
            # Shut down, not just closed: a sibling's copy of this end
            # must not keep the child waiting for the hang-up.
            self.framer.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed by terminate()
        super()._release()
        process = self.process
        process.join(_EXIT_GRACE)
        for stop in (process.terminate, process.kill):
            if not process.is_alive():
                break
            stop()
            process.join(_TERMINATE_GRACE)
        self.scheduler.untrack_process(process)


def start_process_worker(pipe: Any, scheduler: Any) -> ProcessWorker | str:
    """Spawn *pipe*'s body in a child process.

    Returns a running :class:`ProcessWorker` (child started, session
    requested, pump submitted, process tracked by *scheduler*) — or the
    reason the body cannot run in a child, and :meth:`Pipe.start`
    degrades to the thread backend.  Scheduler shutdown is **not**
    degradation: a submit racing shutdown propagates
    :class:`~repro.errors.SchedulerShutdownError`, exactly as the thread
    backend does.

    The server module is imported here, once in the parent, so a forked
    child inherits it instead of importing it.
    """
    from ..net import server  # noqa: F401 - see above

    ctx = pipe.options.mp_context or default_context()
    reason = spawn_unsafe_reason(pipe, ctx)
    if reason is not None:
        return reason
    coexpr = pipe.coexpr
    sock, child_sock = socket.socketpair()
    with child_sock:  # the parent's copy closes once the child has its own
        worker = ProcessWorker(
            pipe,
            scheduler,
            sock,
            ctx.Process(
                target=_child_main,
                args=(
                    child_sock,
                    coexpr._factory,
                    coexpr._env,
                    coexpr.name,
                    pipe.options.beat_interval,
                ),
                name=f"repro-proc-{coexpr.name}",
                daemon=True,
            ),
        )
        try:
            scheduler.track_process(worker.process)  # raises after shutdown
            worker.handshake(coexpr.name)  # waiting in the socket at fork
            worker.process.start()
        except BaseException as error:
            worker.framer.close()
            scheduler.untrack_process(worker.process)
            if isinstance(error, OSError):
                return f"process spawn failed: {error!r}"
            raise
    if lifecycle_enabled():
        pipe._emit(EventKind.SPAWN, {"pid": worker.process.pid})
    try:
        worker.handle = scheduler.submit(worker.pump, name=f"pump-{coexpr.name}")
    except BaseException:
        worker._release()
        raise
    return worker
