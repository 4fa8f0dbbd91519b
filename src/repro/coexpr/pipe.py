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

Robustness (the supervision layer, :mod:`repro.coexpr.supervision`)
builds on three hooks here:

* ``take(timeout=...)`` / a per-pipe ``take_timeout`` — deadline-correct
  blocking that raises :class:`~repro.errors.PipeTimeoutError`;
* ``cancel(join=True, timeout=...)`` — graceful-or-forced teardown that
  closes the co-expression body, unblocks the worker, and propagates to
  an ``upstream`` pipe so no producer is left blocked on a full channel;
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
from importlib import import_module
from typing import Any, Iterator

from ..errors import (
    ChannelClosedError,
    PipeDeadlineExceeded,
    PipeError,
    PipeTimeoutError,
)
from ..monitor.events import Event, EventKind, emit_lifecycle, lifecycle_enabled
from ..runtime.failure import FAIL
from ..runtime.iterator import IconIterator
from .channel import CLOSED, Channel
from .coalesce import Coalescer
from .coexpression import CoExpression, coexpr_of
from .deadline import Deadline
from .options import DEFAULT_OPTIONS, TIERS, PipeOptions
from .scheduler import PipeScheduler, WorkerHandle, default_scheduler

_UNSET = object()
#: ``take_many`` bound for an unbatched unbounded pipe: everything queued.
_DRAIN_ALL = sys.maxsize


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
        self.coexpr: CoExpression = coexpr_of(expr)
        #: The knobs this pipe runs with (frozen; refresh() reuses them).
        self.options = options
        # The knobs the take and worker loops read, as plain attributes.
        self.capacity = options.capacity
        #: The output blocking queue — public, as in the paper.
        self.out = Channel(options.capacity)
        self.take_timeout = options.take_timeout
        self.batch = options.batch
        #: End-to-end budget (shared along pipelines and across
        #: supervised restarts — a retry does not reset the clock).
        self.deadline: Deadline | None = options.deadline
        #: The pipe feeding this one, when built by ``patterns.stage`` —
        #: cancellation propagates through it so a dead stage never
        #: leaves its producer blocked on a full channel.
        self.upstream: Any = None
        self._scheduler = scheduler
        self._started = False
        self._start_lock = threading.Lock()
        self._cancelled = False
        self._worker: WorkerHandle | None = None
        #: The process/remote/async worker when that tier engaged.
        self._tier_worker: Any = None
        #: Why the requested tier fell back to threads (None if it did not).
        self._degraded: str | None = None
        self._errored = False
        #: Consumer-side buffer: results already taken from ``out`` in a
        #: slice (a batch, or an unbounded pipe's drain) and not yet
        #: served.  Fan-out consumers share it through deque's atomic
        #: ``popleft``.
        self._pending: deque = deque()
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

    # The knobs no loop reads, served from the options (read-only).
    max_linger = property(lambda self: self.options.max_linger)
    backend = property(lambda self: self.options.backend)
    heartbeat_interval = property(lambda self: self.options.heartbeat_interval)
    heartbeat_timeout = property(lambda self: self.options.heartbeat_timeout)
    mp_context = property(lambda self: self.options.mp_context)
    remote_address = property(lambda self: self.options.remote_address)

    # -- lifecycle events ------------------------------------------------------

    def _emit(self, kind: str, value: Any = None) -> None:
        if lifecycle_enabled():
            emit_lifecycle(Event(kind, f"pipe:{self.coexpr.name}", 0, value))

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
            # A worker that died (error) or was cancelled abandons its
            # upstream mid-stream; propagate so the producer chain above
            # is not left blocked on a full channel.
            if self._cancelled or self._errored:
                self._cancel_upstream()

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

    def _cancel_upstream(self) -> None:
        upstream = self.upstream
        if upstream is None:
            return
        canceller = getattr(upstream, "cancel", None)
        if canceller is not None:
            canceller()

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
        try:
            self.start()
            if many:
                item = self.out.take_many(
                    self.batch if self.batch > 1 else _DRAIN_ALL, timeout
                )
            else:
                item = self.out.take(timeout)
        except PipeDeadlineExceeded:
            # The producer's own expiry envelope (or a start-time
            # short-circuit): already the right error — tear down and
            # let it through unwrapped.
            self.cancel()
            raise
        except PipeTimeoutError:
            raise self._timed_out(timeout) from None
        if item is CLOSED:
            return FAIL
        if many:
            # take_many returned a non-empty slice: serve the head now,
            # stash the rest for lock-free subsequent takes.
            if len(item) > 1:
                self._pending.extend(item[1:])
            return item[0]
        return item

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
        if first:
            self._emit(EventKind.CANCEL)
            self.out.close()
            self.coexpr.close()
            tier_worker = self._tier_worker
            if tier_worker is not None:
                # Process: signal the child (the pump reaps it); remote:
                # send cancel and close the socket; async: cancel the task.
                tier_worker.terminate()
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

    def refresh(self) -> "Pipe":
        """``^p`` — a new pipe over a refreshed copy of the co-expression."""
        # The same options: the same budget (a refresh is not a reset)
        # and the same server pool.
        return Pipe(self.coexpr.refresh(), scheduler=self._scheduler, options=self.options)

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
