"""Process-backed pipe workers — crash isolation for ``|>e``.

The paper's pipes are generator proxies on *threads*: cheap, but one hard
fault (a native crash, an OOM kill, ``os._exit``, a runaway C extension)
takes the whole interpreter down, and CPU-bound stages serialize on the
GIL.  This module adds a second execution tier, selected with
``backend="process"`` on :class:`~repro.coexpr.pipe.Pipe` (and threaded
through ``stage``/``pipeline``/``DataParallel``/``supervise``): the
worker body runs in a ``multiprocessing`` child that speaks the existing
envelope protocol — batched data slices, error, close (the
``WIRE_*`` vocabulary of :mod:`repro.coexpr.wire`) — over an IPC
connection.  A parent-side **pump thread** — the
:class:`~repro.coexpr.pump.StreamPump` the network tier runs too —
forwards envelopes into the pipe's ordinary
:class:`~repro.coexpr.channel.Channel`, so consumers, batching,
supervision, and monitoring all work unchanged.

Three behaviours distinguish the tier:

* **Heartbeat watchdog.**  A daemon thread in the child emits a beat
  every ``heartbeat_interval`` seconds; the pump doubles as the monitor.
  The beat thread is also the batching rule's linger flusher
  (:class:`~repro.coexpr.coalesce.Coalescer`): it wakes at the next beat
  or when a partial batch can come due, whichever is sooner, and never
  more often than once per millisecond.
  Missed beats past ``heartbeat_timeout``, an EOF on the connection,
  child death (exit-code sentinel) without a close envelope, or an
  envelope kind the pump does not know surface a
  :class:`~repro.errors.PipeWorkerLost` error to the consumer instead
  of a hang or a silently truncated stream.  Buffered data already in
  the OS pipe is drained *before* the loss is reported —
  data-before-error, as in-process.
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

import multiprocessing
import pickle
import threading
import time
from typing import Any, Callable

from ..errors import PipeDeadlineExceeded, PipeWorkerLost
from ..monitor.events import EventKind, lifecycle_enabled
from .coalesce import Coalescer
from .deadline import Deadline
from .options import POLL_SLICE
from .pump import StreamLost, StreamPump
from .wire import WIRE_BEAT, WIRE_CLOSE, WIRE_DATA, WIRE_ERROR, encode_error

#: Exit code used by fault injection (``FaultPlan.kill_stage``) so tests
#: can tell a deliberate chaos kill from an accidental one.
KILLED_EXIT = 173

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
      concurrency state — a :class:`Pipe`, :class:`Channel`, supervised
      pipe, M-var or future — cannot cross the boundary: the threads
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
    from .supervision import SupervisedPipe

    coexpr = pipe.coexpr
    if coexpr.started:
        return "co-expression already started in the parent"
    parent_bound = (Pipe, SupervisedPipe, Future, MVar)
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


# ---------------------------------------------------------------------------
# Child side.  Everything below _child_main runs in the worker process —
# excluded from parent-side coverage accounting.
# ---------------------------------------------------------------------------

def _child_main(
    conn: Any,
    factory: Callable[..., Any],
    env: tuple,
    name: str,
    batch: int,
    max_linger: float | None,
    heartbeat_interval: float,
    deadline_budget: float | None = None,
) -> None:  # pragma: no cover - runs in the child process
    """Run the worker body and stream wire envelopes to the parent.

    The thread tier's batching rule (:class:`~repro.coexpr.coalesce.
    Coalescer`): values coalesce into slices of up to *batch*, a crash
    flushes buffered data before the error envelope, and exhaustion
    flushes then closes.  A daemon thread beats every
    *heartbeat_interval* seconds and doubles as the linger flusher: it
    wakes at the next beat or when a partial batch can come due,
    whichever is sooner, and never more often than once per
    :data:`~repro.coexpr.coalesce._MIN_TICK`.  A clean run (including a
    *reported* crash) ends with a close envelope and exit code 0 — only
    a death that skips the close is a lost worker.

    *deadline_budget* is the parent pipe's remaining budget in seconds
    (monotonic clocks do not cross a fork — see
    :mod:`repro.coexpr.deadline`), re-anchored here against the child's
    own clock.  Expiry is a reported crash: flush, error envelope
    (:class:`~repro.errors.PipeDeadlineExceeded`), close, exit 0.
    """
    from ..runtime.failure import FAIL
    from .coexpression import CoExpression

    send_lock = threading.Lock()
    coalescer = Coalescer(batch, max_linger)
    stop = threading.Event()

    def send(msg: tuple) -> None:
        with send_lock:
            conn.send(msg)

    def ship() -> None:
        # Caller holds send_lock; sends whatever is coalesced.
        if coalescer:
            conn.send((WIRE_DATA, coalescer.drain()))

    def beat() -> None:
        beat_at = time.monotonic() + heartbeat_interval
        while True:
            try:
                with send_lock:
                    now = time.monotonic()
                    if coalescer.due_in(now) == 0:
                        ship()
                    if now >= beat_at:
                        conn.send((WIRE_BEAT, now))
                        beat_at = now + heartbeat_interval
                    wait = coalescer.sleep_for(now, beat_at)
            except (OSError, ValueError, BrokenPipeError):
                return  # parent is gone; nothing left to report to
            if stop.wait(wait):
                return

    threading.Thread(target=beat, daemon=True, name="repro-proc-beat").start()
    coexpr = CoExpression(factory, lambda: env, name=name)
    deadline = None if deadline_budget is None else Deadline(deadline_budget)
    try:
        try:
            while True:
                if deadline is not None and deadline.expired():
                    raise PipeDeadlineExceeded(
                        f"pipe {name!r}: deadline exceeded (producer)",
                        where="producer",
                    )
                value = coexpr.activate()
                if value is FAIL:
                    break
                with send_lock:
                    if coalescer.append(value, time.monotonic()):
                        ship()
            with send_lock:
                ship()  # flush-on-exhaustion: no result is stranded
        except BaseException as error:  # noqa: BLE001 - forwarded to the parent
            try:
                with send_lock:
                    ship()  # data first, then the error
            except Exception:  # noqa: BLE001 - e.g. the value itself won't pickle
                pass
            try:
                send((WIRE_ERROR, encode_error(error)))
            except Exception:  # noqa: BLE001 - parent already gone
                pass
        try:
            send((WIRE_CLOSE,))
        except Exception:  # noqa: BLE001 - parent already gone
            pass
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------

class ProcessWorker(StreamPump):
    """One child process plus the pump thread that drains it.

    Created by :func:`start_process_worker`; owns the IPC connection and
    the ``multiprocessing.Process``.  The pump, the watchdog and the
    loss report are :class:`~repro.coexpr.pump.StreamPump`'s; a lost
    child surfaces as :class:`~repro.errors.PipeWorkerLost`.
    """

    __slots__ = ("process", "conn")

    LOST_EVENT = EventKind.WORKER_LOST

    def __init__(self, pipe: Any, scheduler: Any, ctx: Any) -> None:
        coexpr = pipe.coexpr
        super().__init__(pipe, scheduler, coexpr.name)
        options = pipe.options
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                coexpr._factory,
                coexpr._env,
                coexpr.name,
                options.batch,
                options.max_linger,
                options.beat_interval,
                None if pipe.deadline is None else pipe.deadline.remaining(),
            ),
            name=f"repro-proc-{coexpr.name}",
            daemon=True,
        )

    # -- the transport half of the pump ----------------------------------------

    def _endpoints(self) -> tuple:
        return self._receive, self.pipe.out.put_many

    def _receive(self) -> tuple:
        conn = self.conn
        if conn.poll(POLL_SLICE):
            return conn.recv()
        if self.process.is_alive():
            raise TimeoutError
        # The child may have exited cleanly with envelopes still
        # buffered in the OS pipe: drain them (a close included) before
        # judging the death.
        if conn.poll(0):
            return conn.recv()
        raise StreamLost(f"child died, exit code {self.process.exitcode}")

    def _loss(self, reason: str) -> tuple:
        # An EOF can race the child's actual exit: give it a beat so the
        # exit code is collectable (a still-running child — e.g. a missed
        # heartbeat — just reports None).
        self.process.join(0.2)
        exitcode = self.process.exitcode
        error = PipeWorkerLost(
            f"pipe {self.name!r}: process worker lost ({reason})", exitcode=exitcode
        )
        return error, {"reason": reason, "exitcode": exitcode}

    def _release(self) -> None:
        """Ensure the child is dead and unregistered (SIGTERM → SIGKILL)."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(_TERMINATE_GRACE)
        if process.is_alive():
            # SIGTERM cannot reap a stopped/hung child; SIGKILL always does.
            process.kill()
            process.join(_TERMINATE_GRACE)
        try:
            self.conn.close()
        except OSError:
            pass
        self.scheduler.untrack_process(process)

    def terminate(self) -> None:
        """Ask the child to die (idempotent; the pump reaps it)."""
        if self.process.is_alive():
            self.process.terminate()


def start_process_worker(pipe: Any, scheduler: Any) -> ProcessWorker | str:
    """Spawn *pipe*'s body in a child process.

    Returns a running :class:`ProcessWorker` (child started, pump
    submitted, process tracked by *scheduler*) — or the reason the body
    cannot run in a child, and :meth:`Pipe.start` degrades to the thread
    backend.  Scheduler shutdown is **not** degradation: a submit racing
    shutdown propagates :class:`~repro.errors.SchedulerShutdownError`,
    exactly as the thread backend does.
    """
    ctx = pipe.options.mp_context or default_context()
    reason = spawn_unsafe_reason(pipe, ctx)
    if reason is not None:
        return reason
    worker = ProcessWorker(pipe, scheduler, ctx)
    scheduler.track_process(worker.process)  # raises after shutdown
    try:
        worker.process.start()
    except OSError as error:
        scheduler.untrack_process(worker.process)
        return f"process spawn failed: {error!r}"
    try:
        worker.handle = scheduler.submit(worker.pump, name=f"pump-{pipe.coexpr.name}")
    except BaseException:
        worker._release()
        raise
    if lifecycle_enabled():
        pipe._emit(EventKind.SPAWN, {"pid": worker.process.pid})
        if pipe.deadline is not None:
            pipe._emit(
                EventKind.DEADLINE_PROPAGATED,
                {"remaining": pipe.deadline.remaining(), "transport": "process"},
            )
    return worker
