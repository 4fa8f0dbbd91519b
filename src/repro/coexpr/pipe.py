"""Pipes — multithreaded generator proxies (paper Section III.B).

    ``|>e → new Iterator() { next() { new Thread { run() {
        c=|<>e; while (!fail) { out.put(@c); }}}.start() }}``

A pipe owns a co-expression, runs it to exhaustion in a worker thread,
and streams each result through a blocking channel; stepping the pipe
(``@``) is a ``take``.  The surrounding expression therefore runs in
parallel with the piped expression — chains of pipes form parallel
pipelines.

Per the paper, the output queue ``out`` "is exposed as a public field to
permit further manipulation", and bounding its capacity throttles the
producer thread.

With ``batch=1`` the worker is exactly that loop.  A larger ``batch``
runs the same loop through the shared batching rule
(:class:`~repro.coexpr.coalesce.Coalescer`): results coalesce into
slices of up to ``batch``.  Without ``max_linger`` the worker is the
coalescer's only user and appends without a lock.  With it, a flusher
thread shares the coalescer under the pipe's condition and sleeps until
a partial batch comes due — or until the worker starts a new one — so
the bound holds exactly even while the worker is busy computing.

The consumer pays one channel handoff per *take*, not per result, where
it can.  A take on an unbounded pipe drains everything already queued
in ``out`` in one lock acquisition, serves the head, and keeps the rest
in a consumer-side buffer that later takes serve without the lock — so
``out`` no longer holds results already drained into the pipe.  A
bounded pipe takes one result at a time, so a capacity-k producer never
runs more than k results ahead of its consumer.

Robustness builds on four hooks here:

* ``take(timeout=...)`` / a per-pipe ``take_timeout`` — deadline-correct
  blocking that raises :class:`~repro.errors.PipeTimeoutError`;
* ``cancel(join=True, timeout=...)`` — graceful-or-forced teardown that
  closes the co-expression body, unblocks the worker, and propagates to
  an ``upstream`` pipe so no producer is left blocked on a full channel;
* the restart rule — a pipe carrying a :class:`RestartPolicy` restarts
  its crashed producer in place (the paper's ``^c``: a refresh) instead
  of raising; supervision (:mod:`repro.coexpr.supervision`) and
  :class:`~repro.coexpr.dataparallel.DataParallel`'s work stealing are
  two policies over that one step;
* lifecycle events (start/cancel/timeout) on the monitor bus.

The knobs — the queue bound plus nine more — are one frozen
:class:`~repro.coexpr.options.PipeOptions`, checked once where it is
built and shared by every pipe built from it (a pipeline's stages, a
supervisor's restarts, ``refresh``).  ``backend`` picks the tier that
runs the producer: this thread, a crash-isolated child process
(:mod:`repro.coexpr.proc`), a generator server (:mod:`repro.net`) or
the shared event loop (:mod:`repro.coexpr.aio`).  Each tier speaks the
same envelopes into ``out``; a body a tier cannot run degrades to this
thread backend through one path in :meth:`Pipe.start`.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable, Iterator

from ..errors import (
    ChannelClosedError,
    PipeDeadlineExceeded,
    PipeError,
    PipeTimeoutError,
    RetryExhaustedError,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .channel import CLOSED, Channel, deadline_of, deadline_wait
from .coalesce import Coalescer
from .coexpression import CoExpression, coexpr_of
from .deadline import Deadline
from .options import DEFAULT_OPTIONS, TIERS, PipeOptions
from .scheduler import PipeScheduler, WorkerHandle, default_scheduler

_UNSET = object()
#: ``take_many`` bound for an unbatched unbounded pipe: everything queued.
_DRAIN_ALL = sys.maxsize


@dataclass(frozen=True)
class RestartPolicy:
    """How a pipe restarts its crashed producer — the one restart rule
    (:meth:`Pipe._restart`) behind supervision and work stealing.

    A producer error of a ``retry_on`` type restarts the producer in
    place, on a refreshed co-expression, instead of reaching the
    consumer; any other error is raised.

    * Supervision (:func:`~repro.coexpr.supervision.supervise`): the
      budget is ``max_retries``; before the n-th restart ``sleep`` waits
      ``backoff.delay(n)`` (a ``RETRY`` event on ``supervise:<name>``);
      past the budget the take raises :class:`RetryExhaustedError` (an
      ``EXHAUST`` event).
    * Work stealing (``pool`` set: a
      :class:`~repro.coexpr.dataparallel.DataParallel` chunk task on a
      server pool): the budget is ``2 * len(pool)``, each restart is
      reported through ``pool.note_steal`` (a ``STEAL`` event), and past
      the budget the task restarts on the thread tier — the end of the
      replica → next replica → threads order, so no work is dropped.
    """

    retry_on: tuple = (Exception,)
    max_retries: int = 3
    backoff: Any = None
    sleep: Callable[[float], None] = time.sleep
    pool: Any = None


class UpstreamFailure(Exception):
    """An upstream's error on its way through a stage (raised by the
    stage body, :func:`~repro.coexpr.patterns._stage_body`).  The stage
    did not crash: :meth:`Pipe.take` raises :attr:`error` itself and
    never restarts the stage for it."""

    #: The upstream's error, the one argument.
    error = property(lambda self: self.args[0])


class _Replay(Channel):
    """The channel of a restarted incarnation whose body replays its
    stream: it drops the first *skip* results, the prefix the pipe's
    consumers already hold, so each result is delivered once."""

    def __init__(self, capacity: int, skip: int) -> None:
        super().__init__(capacity)
        self._skip = skip

    def put(self, item: Any, timeout: float | None = None) -> None:
        if self._skip:
            self._skip -= 1
        else:
            super().put(item, timeout)

    def put_many(self, items: Any, timeout: float | None = None) -> int:
        if self._skip:
            items = list(items)
            dropped = min(self._skip, len(items))
            self._skip -= dropped
            items = items[dropped:]
        return super().put_many(items, timeout)


def _resumes(coexpr: CoExpression) -> bool:
    """Whether a restarted *coexpr* resumes rather than replays.

    A body whose environment holds position state of this process —
    something it takes from (a pipe, a channel) or steps (a live
    iterator), as a :func:`~repro.coexpr.patterns.stage` does — finds
    the items it consumed gone, so the refreshed body goes on from
    where that state is now.  A self-contained snapshot replays its
    stream from the start, and the replayed prefix is dropped
    (exactly-once for a deterministic body)."""
    env = coexpr._env
    return any(hasattr(value, "take") or hasattr(value, "__next__") for value in env)


class Pipe(IconIterator):
    """A generator proxy whose co-expression runs in a separate thread.

    The worker starts lazily on the first step (matching the paper's
    proxy, whose thread spawns from ``next()``), or eagerly via
    :meth:`start`.  A pipe is an :class:`IconIterator`, so it can be used
    anywhere an expression can — but unlike a plain node it is single-shot:
    once its co-expression is exhausted it stays failed (``refresh`` makes
    a fresh pipe).
    """

    __slots__ = (
        "coexpr",
        "out",
        "options",
        "capacity",
        "take_timeout",
        "batch",
        "deadline",
        "upstream",
        "_scheduler",
        "_started",
        "_start_lock",
        "_cancelled",
        "_worker",
        "_tier_worker",
        "_degraded",
        "_errored",
        "_pending",
        "_flusher",
        "_coalescer",
        "_cond",
        "_producer_done",
        "_policy",
        "_failures",
        "_delivered",
        "_wake",
        "_settled",
        "_gave_up",
    )

    def __init__(
        self,
        expr: Any,
        capacity: int = 0,
        scheduler: PipeScheduler | None = None,
        *,
        options: PipeOptions | None = None,
        **knobs: Any,
    ) -> None:
        """Wrap *expr* (a co-expression, iterator node, generator factory,
        or iterable) in a threaded proxy whose output channel holds
        *capacity* results (0 = unbounded; see the module docstring for
        how each kind is drained).

        *capacity* and the other knob keywords (``take_timeout``,
        ``batch``, ``max_linger``, ``backend``, ``heartbeat_interval``,
        ``heartbeat_timeout``, ``mp_context``, ``remote_address``,
        ``deadline``) build a :class:`~repro.coexpr.options.PipeOptions`,
        which checks them; the table in ``docs/language.md`` ("Pipe
        options") gives each one's default, rule and tiers.  A caller
        that already holds one passes ``options=`` instead, and it is
        not checked again.
        """
        if options is None:
            if not knobs and type(capacity) is int and capacity == 0:
                options = DEFAULT_OPTIONS  # a plain ``|>e``: nothing to check
            else:
                options = PipeOptions(capacity, **knobs)
        elif capacity or knobs:
            raise TypeError("pass options= or the knob keywords, not both")
        super().__init__()
        #: The pipe feeding this one, when built by ``patterns.stage`` —
        #: cancellation propagates through it so a dead stage never
        #: leaves its producer blocked on a full channel.
        self.upstream: Any = None
        self._scheduler = scheduler
        self._start_lock = threading.Lock()
        self._cancelled = False
        #: Consumer-side buffer: results already taken from ``out`` in a
        #: slice (a batch, or an unbounded pipe's drain) and not yet
        #: served.  Fan-out consumers share it through deque's atomic
        #: ``popleft``.
        self._pending: deque = deque()
        #: The restart rule (None: a producer error reaches the consumer).
        self._policy: RestartPolicy | None = None
        self._failures = 0
        #: Results taken from the channels of crashed incarnations.
        self._delivered = 0
        #: Set by cancel() to cut a backoff wait short.
        self._wake: threading.Event | None = None
        #: Over _start_lock, made by the first consumer that waits for
        #: another's restart (_restarted_from); notified when a crash's
        #: recovery ends and when the pipe is cancelled.
        self._settled: threading.Condition | None = None
        #: True once a recovery raised instead of restarting.
        self._gave_up = False
        self._setup(coexpr_of(expr), options, Channel(options.capacity))

    def _setup(self, coexpr: CoExpression, options: PipeOptions, out: Channel) -> None:
        """The per-incarnation half of ``__init__``, which
        :meth:`_restart` runs again: the body, its knobs, the channel
        *out* and the worker state."""
        self.coexpr = coexpr
        #: The knobs this pipe runs with (frozen; refresh() reuses them).
        self.options = options
        # The knobs the take and worker loops read, as plain attributes.
        self.capacity = options.capacity
        #: The output blocking queue — public, as in the paper.
        self.out = out
        self.take_timeout = options.take_timeout
        self.batch = options.batch
        #: End-to-end budget (shared along pipelines and across
        #: supervised restarts — a retry does not reset the clock).
        self.deadline: Deadline | None = options.deadline
        self._worker: WorkerHandle | None = None
        #: The process/remote/async worker when that tier engaged.
        self._tier_worker: Any = None
        #: Why the requested tier fell back to threads (None if it did not).
        self._degraded: str | None = None
        self._errored = False
        #: The batching rule, shared by whichever in-process tier runs
        #: the producer (thread or async).
        self._coalescer = Coalescer(options.batch, options.max_linger)
        #: Guards the coalescer between the thread worker and its linger
        #: flusher.  None without a flusher (batch=1, or no ``max_linger``):
        #: the worker is then the coalescer's only user and takes no lock.
        self._cond = (
            threading.Condition()
            if options.batch > 1 and options.max_linger is not None
            else None
        )
        self._flusher: WorkerHandle | None = None
        self._producer_done = False
        # Last: a take racing a restart starts only a complete incarnation.
        self._started = False

    # The knobs no loop reads, served from the options (read-only).
    max_linger = property(lambda self: self.options.max_linger)
    backend = property(lambda self: self.options.backend)
    heartbeat_interval = property(lambda self: self.options.heartbeat_interval)
    heartbeat_timeout = property(lambda self: self.options.heartbeat_timeout)
    mp_context = property(lambda self: self.options.mp_context)
    remote_address = property(lambda self: self.options.remote_address)

    # -- lifecycle events ------------------------------------------------------

    def _emit(self, kind: str, value: Any = None, node: str = "pipe") -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"{node}:{self.coexpr.name}", 0, value))

    def _deadline_error(self, where: str) -> PipeDeadlineExceeded:
        """Record the expiry and build the error to raise/deliver."""
        self._emit(EventKind.DEADLINE_EXPIRED, {"where": where, "remaining": 0.0})
        return PipeDeadlineExceeded(
            f"pipe {self.coexpr.name!r}: deadline exceeded ({where})",
            where=where,
        )

    def _timed_out(self, timeout: float | None) -> PipeTimeoutError:
        """The error for a take whose wait ran out: the deadline's when
        that bounded the wait (the pipe cancels itself), else the
        pipe's own timeout (a ``TIMEOUT`` event)."""
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            error = self._deadline_error("take")
            self.cancel()
            return error
        self._emit(EventKind.TIMEOUT, timeout)
        return PipeTimeoutError(f"pipe {self.coexpr.name!r}: no result within {timeout}s")

    # -- worker --------------------------------------------------------------

    def start(self) -> "Pipe":
        """Spawn the producer worker (idempotent; no-op once cancelled).

        A ``backend`` other than ``"thread"`` is looked up in the backend
        table (:data:`~repro.coexpr.options.TIERS`) and its start
        function called: it forks the child, dials the server or
        schedules the loop task, and returns the worker — or the reason
        the body cannot run on that tier.  Then the pipe degrades to the
        thread backend in place, here and nowhere else: :attr:`degraded`
        names the reason and one ``DEGRADED`` monitor event is emitted.
        A start that raises instead (a :class:`~repro.net.RemotePipe`
        that cannot reach its server, a shut-down scheduler) leaves the
        pipe unstarted, so the next take starts it again.

        An already-expired deadline short-circuits *before* any spawn —
        no child is forked and no socket is dialed past budget; the pipe
        cancels itself and raises :class:`PipeDeadlineExceeded`.
        """
        deadline = self.deadline
        if deadline is not None and not self._started and deadline.expired():
            error = self._deadline_error("start")
            self.cancel()
            raise error
        with self._start_lock:
            if self._started or self._cancelled:
                return self
            self._started = True
        scheduler = self._scheduler or default_scheduler()
        try:
            worker = self._start_tier(scheduler)
        except BaseException:
            self._started = False  # a retried start tries again
            raise
        if worker is not None:
            if not isinstance(worker, str):
                self._tier_worker = worker
                self._worker = worker.handle
                self._emit(EventKind.START)
                return self
            # The one degrade-to-threads path: record why, then fall
            # through to the thread worker below.
            self._degraded = worker
            self._emit(EventKind.DEGRADED, worker)
        self._worker = scheduler.submit(self._run, name=f"pipe-{self.coexpr.name}")
        if self._cond is not None:
            self._flusher = scheduler.submit(
                self._run_flusher, name=f"linger-{self.coexpr.name}"
            )
        self._emit(EventKind.START)
        return self

    def _start_tier(self, scheduler: PipeScheduler) -> Any:
        """Start the worker of a tier other than threads: the worker,
        the reason the body cannot run there (a string), or None for
        the thread backend."""
        tier = TIERS.get(self.options.backend)
        if tier is None:
            return None
        module, starter = tier
        return getattr(import_module(module), starter)(self, scheduler)

    @property
    def degraded(self) -> str | None:
        """Why a process/remote/async backend request fell back to
        threads (None while the requested tier engaged, or when the
        thread backend was asked for)."""
        return self._degraded

    def _run(self) -> None:
        out = self.out
        coexpr = self.coexpr
        deadline = self.deadline
        coalescer = self._coalescer if self.batch > 1 else None
        cond = self._cond
        guard = cond if cond is not None else nullcontext()
        now = 0.0  # the batch clock, read only when a batch starts
        try:
            while not self._cancelled:
                if deadline is not None and deadline.expired():
                    raise self._deadline_error("producer")
                value = coexpr.activate()
                if value is FAIL:
                    break
                if coalescer is None:
                    out.put(value)  # batch=1: the paper's shape
                elif cond is None:
                    # No linger bound: the batch clock is never read.
                    if coalescer.append(value, 0.0):
                        self._flush()
                else:
                    with cond:
                        if coalescer.started is None:
                            # A batch starts: read the clock and arm the
                            # flusher's linger wait.
                            now = time.monotonic()
                            cond.notify()
                        if coalescer.append(value, now):
                            self._flush()
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        except Exception as error:  # noqa: BLE001 - forwarded to consumer
            self._errored = True
            try:
                if coalescer is not None:
                    # Results produced before the crash are delivered
                    # before the error: batching never reorders data
                    # past an error.
                    with guard:
                        self._flush()
                out.put_error(error)  # unthrottled: never blocks on a full queue
            except ChannelClosedError:
                pass  # cancelled while reporting: consumer is gone
        finally:
            if coalescer is not None:
                with guard:
                    self._producer_done = True
                    try:
                        self._flush()  # flush-on-exhaustion/close
                    except ChannelClosedError:
                        pass
                    if cond is not None:
                        cond.notify()  # release the flusher
            out.close()
            self._worker_done()

    def _flush(self) -> None:
        """Move every coalesced result through the channel as one slice;
        the caller holds ``_cond`` when a flusher shares the coalescer."""
        if not self._coalescer:
            return
        items = self._coalescer.drain()
        self.out.put_many(items)
        if lifecycle_enabled():
            self._emit(
                EventKind.BATCH,
                {"size": len(items), "queued": self._queued()},
            )

    def _run_flusher(self) -> None:
        """Deliver a partial batch once it has lingered ``max_linger``,
        even while the worker is away computing — the latency half of
        the batching trade-off.  Sleeps until the batch is due, or until
        the worker arms a new one; exits when the worker finishes."""
        cond = self._cond
        coalescer = self._coalescer
        with cond:
            while True:
                if not coalescer:
                    if self._producer_done:
                        return
                    cond.wait()
                    continue
                wait = coalescer.due_in(time.monotonic())
                if wait > 0:
                    cond.wait(wait)
                    continue
                try:
                    self._flush()
                except ChannelClosedError:
                    return  # consumer cancelled: nothing left to deliver

    def _worker_done(self) -> None:
        """The last step of every tier's worker.  A stream that was
        cancelled, or that errored with no restart to follow, abandons
        its upstream mid-stream: cancel it, so the producer chain above
        is not left blocked on a full channel.  A pipe with a restart
        policy keeps its upstream for the next incarnation, and the
        consumer's :meth:`_recover` cancels it if it gives up."""
        if self._cancelled or (self._errored and self._policy is None):
            self._cancel_upstream()

    def _cancel_upstream(self) -> None:
        if self.upstream is not None:
            self.upstream.cancel()

    # -- consumer ------------------------------------------------------------

    def take(self, timeout: Any = _UNSET) -> Any:
        """One blocking step: the next result or :data:`FAIL` (paper: "an
        @ operation on a pipe is out.take()").

        *timeout* overrides the pipe's ``take_timeout`` for this call;
        expiry raises :class:`PipeTimeoutError` (the pipe stays usable —
        cancel it to tear the producer down).  A pipe ``deadline`` also
        bounds the wait, and its expiry is *active*: the pipe cancels
        itself (tearing down the producer, whichever tier it runs on)
        and raises :class:`PipeDeadlineExceeded` instead.

        A producer error raises here, after every result produced before
        it — unless the pipe's :class:`RestartPolicy` restarts the
        producer (see :meth:`_recover`), and the take goes on.
        """
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            # Checked before the buffered results too: an expired pipe
            # raises on its next take however many results it holds.
            error = self._deadline_error("take")
            self.cancel()
            raise error
        if self._pending:
            # Unbatching fast path: already-taken results are served
            # without touching the channel lock at all.
            try:
                return self._pending.popleft()
            except IndexError:
                pass  # raced with another consumer (fan-out); fall through
        if timeout is _UNSET:
            timeout = self.take_timeout
        if deadline is not None:
            timeout = deadline.bound(timeout)
        # A batched pipe takes up to one batch; an unbounded one drains
        # whatever is queued.  A bounded unbatched pipe takes one item at
        # a time, so its producer never runs more than capacity ahead.
        many = self.batch > 1 or not self.capacity
        while True:
            try:
                self.start()
                out = self.out
                if many:
                    item = out.take_many(self.batch if self.batch > 1 else _DRAIN_ALL, timeout)
                else:
                    item = out.take(timeout)
                if item is not CLOSED or self._policy is None:
                    break
                if not self._restarted_from(out, timeout):
                    break  # the end of the stream
            except PipeDeadlineExceeded:
                # The producer's own expiry envelope (or a start-time
                # short-circuit): already the right error — tear down and
                # let it through unwrapped.
                self.cancel()
                raise
            except PipeTimeoutError:
                raise self._timed_out(timeout) from None
            except Exception as error:  # noqa: BLE001 - the producer's error
                self._recover(error)  # raises, or restarted the producer
        if item is CLOSED:
            return FAIL
        if many:
            # take_many returned a non-empty slice: serve the head now,
            # stash the rest for lock-free subsequent takes.
            if len(item) > 1:
                self._pending.extend(item[1:])
            return item[0]
        return item

    def _recover(self, error: Exception) -> None:
        """A producer error reached the consumer: restart the producer
        by the pipe's policy, or raise the error.

        An upstream's error passing through a stage
        (:class:`UpstreamFailure`) is not this producer's crash: it is
        raised as it was, and never restarts this pipe.  A policy pipe
        that gives up cancels the upstream its worker kept."""
        policy = self._policy
        passing = isinstance(error, UpstreamFailure)
        if policy is not None:
            restarted = False
            try:
                if not passing and isinstance(error, policy.retry_on):
                    self._restart(error)
                    restarted = True
                    return
                self._cancel_upstream()
            finally:
                with self._start_lock:
                    if not restarted:
                        self._gave_up = True
                    if self._settled is not None:
                        self._settled.notify_all()
        if passing:
            error = error.error
            raise error from error.__cause__
        raise error

    def _restart(self, error: Exception) -> None:
        """The one restart rule: restart the crashed producer in place.

        Counts the failure against the policy's budget and reports it,
        or gives up (see :class:`RestartPolicy`); waits the backoff;
        then joins the crashed incarnation's worker and linger flusher,
        which read this pipe's flags and channel on their way out, and
        sets up the next incarnation over a refreshed co-expression.  A
        body that replays gets a channel that drops the prefix already
        delivered (:class:`_Replay`); one that resumes (:func:`_resumes`)
        a plain one.  A cancel before the new incarnation starts leaves
        the pipe down, and the take fails.
        """
        policy = self._policy
        self._failures = attempt = self._failures + 1
        options, name, pool = self.options, self.coexpr.name, policy.pool
        if pool is not None:
            fallback = attempt > 2 * len(pool)
            reason = getattr(error, "reason", None) or str(error)
            pool.note_steal(name, self.delivered, reason, fallback, pool.last_address(name))
            if fallback:
                options = replace(options, backend="thread")
        elif attempt > policy.max_retries:
            self._emit(EventKind.EXHAUST, attempt, "supervise")
            self._cancel_upstream()  # giving up: nothing will drain it
            raise RetryExhaustedError(
                f"supervise {name!r}: producer failed {attempt} times "
                f"(max_retries={policy.max_retries})",
                attempts=attempt,
            ) from error
        else:
            delay = policy.backoff.delay(attempt)
            retry = {"attempt": attempt, "delay": delay, "error": repr(error)}
            self._emit(EventKind.RETRY, retry, "supervise")
            if delay and policy.sleep is not time.sleep:
                policy.sleep(delay)  # injected: tests see the exact delays
            elif delay:
                # The default sleep waits on an event cancel() sets, so
                # a cancel mid-backoff returns at once.
                self._wake = wake = threading.Event()
                if not self._cancelled:
                    wake.wait(delay)
        if self._cancelled:
            return
        for handle in (self._worker, self._flusher):
            if handle is not None:
                handle.join()
        self._delivered = self.delivered
        coexpr = self.coexpr.refresh()
        skip = 0 if _resumes(coexpr) else self._delivered
        out = _Replay(options.capacity, skip) if skip else Channel(options.capacity)
        self._setup(coexpr, options, out)
        if self._cancelled:  # raced with a concurrent cancel(): stay down
            out.close()
            coexpr.close()

    def _restarted_from(self, out: Channel, timeout: float | None) -> bool:
        """A policy pipe's take found *out* closed: whether a restart
        replaced it, so the take goes on from the next incarnation.

        The consumer that takes a crashed incarnation's error restarts
        the producer.  Any other consumer of the pipe (a fan-out) then
        finds that incarnation's channel closed, and waits for the
        restart, or for the recovery to give up, instead of reading the
        end of the stream.  A clean end returns at once."""
        # _errored first: _setup replaces out before it clears _errored.
        if not self._errored and self.out is out:
            return False
        deadline = deadline_of(timeout)
        with self._start_lock:
            if self._settled is None:
                self._settled = threading.Condition(self._start_lock)
            while self.out is out and not (self._cancelled or self._gave_up):
                deadline_wait(self._settled, deadline, "Pipe.take")
        return self.out is not out

    def _queued(self) -> int:
        """Results produced and not yet served: ``out`` plus the drained
        slice this pipe still holds."""
        return len(self.out) + len(self._pending)

    def next_value(self) -> Any:  # stateful stepping: no auto-restart
        return self.take()

    def iterate(self) -> Iterator[Any]:
        """Drain the pipe.  NOTE: single-shot — a second pass finds the
        channel closed and fails immediately (use :meth:`refresh`)."""
        self.start()
        while True:
            item = self.take()
            if item is FAIL:
                return
            yield item

    # -- lifecycle -----------------------------------------------------------

    def cancel(self, join: bool = False, timeout: float | None = None) -> bool:
        """Stop the producer (idempotent).

        Closes the output channel (unblocking a blocked ``put``), flags
        the worker loop to exit, closes the co-expression body (running
        its ``finally`` blocks), and propagates to :attr:`upstream`.

        With ``join=True`` this is the *graceful* form: it also waits up
        to *timeout* seconds for the worker thread to finish.  Returns
        True when the worker is known to be done (or never started).

        Strictly idempotent: only the first call emits the ``CANCEL``
        event, closes the body, and propagates upstream — a second
        cancel (or a cancel after natural exhaustion) merely re-joins
        the already-stopped worker.
        """
        first = False
        with self._start_lock:
            if not self._cancelled:
                self._cancelled = True
                first = True
                if self._settled is not None:
                    self._settled.notify_all()
        if first:
            self._emit(EventKind.CANCEL)
            self.out.close()
            self.coexpr.close()
            tier_worker = self._tier_worker
            if tier_worker is not None:
                # Process: signal the child (the pump reaps it); remote:
                # send cancel and close the socket; async: cancel the task.
                tier_worker.terminate()
            wake = self._wake
            if wake is not None:
                wake.set()  # cut a restart's backoff wait short
            self._cancel_upstream()
        worker = self._worker
        if worker is None:
            return True
        if join:
            return worker.join(timeout)
        return not worker.is_alive()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def failures(self) -> int:
        """Producer crashes the restart policy has absorbed (or re-raised)."""
        return self._failures

    @property
    def delivered(self) -> int:
        """Results taken from the channel so far, across restarts: the
        ones served, plus any a drained slice still holds."""
        return self._delivered + self.out.taken

    def refresh(self) -> "Pipe":
        """``^p`` — a new pipe over a refreshed copy of the co-expression."""
        # The same options: the same budget (a refresh is not a reset)
        # and the same server pool; and the same restart policy.
        fresh = Pipe(self.coexpr.refresh(), scheduler=self._scheduler, options=self.options)
        fresh._policy = self._policy
        return fresh

    # -- runtime protocol hooks ------------------------------------------------

    def icon_activate(self, transmit: Any = None) -> Any:
        if transmit is not None:
            raise PipeError("cannot transmit a value into a pipe")
        return self.take()

    def icon_promote(self) -> Iterator[Any]:
        return self.iterate()

    def icon_size(self) -> int:
        return self.coexpr.icon_size()

    def icon_type(self) -> str:
        return "pipe"

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("running" if self._started else "unstarted")
        )
        return f"Pipe({self.coexpr.name}, {state}, queued={self._queued()})"
