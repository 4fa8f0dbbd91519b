"""The async execution tier — cooperative pipes on one event loop.

The paper's pipe is a *threaded* generator proxy: one OS thread per
producer, a blocking channel between it and the consumer.  This module
maps the same activate/suspend protocol onto asyncio coroutines instead
— activation-as-call, suspension-as-await, in the style of Racordon's
higher-order coroutines — so thousands of concurrent pipes cost one OS
thread (the shared event loop) instead of thousands.

Three layers, over one producer:

* :class:`AsyncChannel` — the :class:`~repro.coexpr.channel.Channel`
  contract for coroutines: awaitable ``put``/``take`` with close
  semantics, error envelopes, deadline-correct timeouts, and the same
  data-before-error ordering guarantees;
* :class:`AsyncWorker` — the one producer coroutine: it activates the
  body to exhaustion under the pipe's rules (the deadline before every
  activation, the shared batching rule, data before the error, close,
  upstream cancellation) and hands each result or slice to a sink;
* its two consumers.  :class:`AsyncPipe` (``async for`` take, for code
  already inside an event loop) runs it on the caller's loop with
  ``AsyncChannel.put_many`` as the sink and takes by
  :class:`~repro.coexpr.pipe.Pipe`'s rules.  :func:`start_async_worker`
  is the hook :meth:`Pipe.start` calls for ``backend="async"``: the pipe
  keeps its ordinary threaded surface (blocking ``take``, the public
  ``out`` channel) while the worker runs on the shared background loop,
  multiplexed with every other async worker.  A full bounded channel
  parks the coroutine, never the loop, and the consumer's next take
  wakes it (:meth:`~repro.coexpr.channel.Channel.on_space`): no timer,
  no poll.

**Refresh is a snapshot.**  ``^c`` on an async pipe follows Prokopec &
Liu's coroutines-with-snapshots model: the refreshed copy restarts from
the co-expression's *creation* environment (the snapshot), not from the
suspended coroutine frame — identical to the thread tier's refresh
semantics, which is what lets supervision replay an async worker
exactly as it replays a threaded one.

**Cooperative caveat.**  ``activate()`` is synchronous, so one
activation runs to completion on the loop before anything else does;
the tier multiplexes *between* results, not inside them.  How often a
worker yields is the tier's own choice, and it is the event-loop
server's rule (:data:`_YIELD_SLICE`): the first result is handed over
at once, then the worker yields once per millisecond of activations,
or after every item when one activation takes that long.  So fairness
is per time slice, and a fast body pays the loop round trip once per
slice, not once per item.

Threads need two more turns, because the loop's yield releases the GIL
only for a zero-timeout poll.  That is too brief for a thread that waits
for the GIL to take it, and each release restarts that thread's wait
for the interpreter's switch interval, so it never asks for the GIL
either.

* After its first activation the worker also yields the CPU
  (``os.sched_yield()``), so the consumer thread its first result woke
  takes it now, not after the body's first slice (on a single core; on
  more, this is best effort).
* Once per switch interval (``sys.getswitchinterval()``) it sleeps for
  real (``time.sleep(0)``, tens of microseconds): the turn the
  interpreter forces between two threads, given back of the worker's
  own accord.  Without it a worker streaming into an unbounded channel
  starves its consumer thread, and every other thread, for as long as
  the stream runs.

It batches through the shared rule
(:class:`~repro.coexpr.coalesce.Coalescer`).  Because activations are
atomic on the loop, a ``max_linger`` bound needs no separate flusher
thread here: the age check after each activation is this tier's linger
wakeup, and it observes exactly what a concurrent flusher could have — a
partial batch can only out-linger its bound while the producer is
inside one activation.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from collections import deque
from functools import partial
from typing import Any, AsyncIterator, Awaitable, Callable, List

from ..errors import ChannelClosedError, PipeDeadlineExceeded, PipeTimeoutError
from ..monitor.events import EventKind, lifecycle_enabled
from ..runtime.failure import FAIL
from .channel import CLOSED, RaiseEnvelope, deadline_of, remaining
from .coalesce import Coalescer
from .coexpression import CoExpression, coexpr_of
from .deadline import Deadline
from .options import PipeOptions
from .pipe import _DRAIN_ALL, _UNSET, Pipe
from .scheduler import WorkerHandle

#: The one yield rule of the tier's cooperative producers, the async
#: worker here and the event-loop server's sender (``net/aserver.py``):
#: a producer hands its first result over at once, then yields the loop
#: once this many seconds of activations have run since its last yield.
#: Fast bodies amortize the loop round trip over many items, while a
#: slow activation still yields after every item — so every other task
#: on the loop waits at most this long plus one activation.
_YIELD_SLICE = 0.001
#: Give the CPU to another runnable thread (a no-op where the platform
#: has no ``sched_yield``).
_yield_cpu = getattr(os, "sched_yield", lambda: None)

# ---------------------------------------------------------------------------
# The shared background event loop.
# ---------------------------------------------------------------------------

_loop: asyncio.AbstractEventLoop | None = None
_loop_lock = threading.Lock()


def event_loop() -> asyncio.AbstractEventLoop:
    """The shared background loop every ``backend="async"`` worker runs
    on (started lazily, daemon, process-wide — like the default
    scheduler, it is shared infrastructure and never leak-checked).
    """
    global _loop
    with _loop_lock:
        if _loop is not None and not _loop.is_closed():
            return _loop
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(ready.set)
            loop.run_forever()

        thread = threading.Thread(
            target=_run, name="repro-aio-loop", daemon=True
        )
        thread.start()
        ready.wait()
        _loop = loop
        return loop


def _wake(woken: asyncio.Future) -> None:
    """Resolve a parked producer's future (on the loop; it may have been
    cancelled with its task meanwhile)."""
    if not woken.done():
        woken.set_result(None)


async def _cond_wait(
    cond: asyncio.Condition, deadline: float | None, what: str
) -> None:
    """One deadline-aware condition wait (the async twin of
    :func:`~repro.coexpr.channel.deadline_wait`)."""
    left = remaining(deadline)
    if left is None:
        await cond.wait()
        return
    if left <= 0:
        raise PipeTimeoutError(f"{what} timed out")
    try:
        await asyncio.wait_for(cond.wait(), left)
    except asyncio.TimeoutError:
        raise PipeTimeoutError(f"{what} timed out") from None


class AsyncChannel:
    """A bounded awaitable queue with close semantics.

    The coroutine-side mirror of :class:`~repro.coexpr.channel.Channel`:
    ``put``/``take`` are coroutines that park their *task* (never a
    thread), ``close`` is idempotent and wakes every waiter, a producer
    exception travels as a :class:`RaiseEnvelope` and re-raises at the
    consumer, and error delivery bypasses the capacity bound.  Single
    event loop only — this is task-safe, not thread-safe.
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._items: deque = deque()
        self._cond = asyncio.Condition()
        self._closed = False

    # -- producer side -------------------------------------------------------

    async def put(self, item: Any, timeout: float | None = None) -> None:
        """Park until space is available, then enqueue *item* (raises
        :class:`ChannelClosedError` if closed while waiting)."""
        deadline = deadline_of(timeout)
        async with self._cond:
            if self.capacity:
                while len(self._items) >= self.capacity and not self._closed:
                    await _cond_wait(self._cond, deadline, "AsyncChannel.put")
            if self._closed:
                raise ChannelClosedError("put on a closed channel")
            self._items.append(item)
            self._cond.notify_all()

    async def put_many(
        self, items: Any, timeout: float | None = None
    ) -> int:
        """Enqueue a whole slice, parking only when a bounded channel
        fills mid-batch; returns the number enqueued."""
        batch = list(items)
        if not batch:
            return 0
        deadline = deadline_of(timeout)
        sent = 0
        async with self._cond:
            while True:
                if self._closed:
                    raise ChannelClosedError(
                        f"put_many on a closed channel ({sent}/{len(batch)} sent)"
                    )
                if self.capacity:
                    free = self.capacity - len(self._items)
                    if free <= 0:
                        await _cond_wait(
                            self._cond, deadline, "AsyncChannel.put_many"
                        )
                        continue
                    chunk = batch[sent : sent + free]
                else:
                    chunk = batch[sent:]
                self._items.extend(chunk)
                sent += len(chunk)
                self._cond.notify_all()
                if sent >= len(batch):
                    return sent

    def put_error(self, error: BaseException) -> None:
        """Enqueue an exception to re-raise at the consumer (unthrottled:
        a crash report never blocks behind a full queue)."""
        if self._closed:
            raise ChannelClosedError("put_error on a closed channel")
        self._items.append(RaiseEnvelope(error))
        self._notify_soon()

    def close(self) -> None:
        """Close the channel; queued items remain takeable.  Idempotent;
        wakes every parked producer and consumer."""
        self._closed = True
        self._notify_soon()

    def _notify_soon(self) -> None:
        """Wake waiters from a context that does not hold the condition
        lock (``put_error``/``close`` are plain calls, not coroutines)."""

        async def _notify() -> None:
            async with self._cond:
                self._cond.notify_all()

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # no loop running: nobody can be parked on the condition
        loop.create_task(_notify())

    # -- consumer side -------------------------------------------------------

    async def take(self, timeout: float | None = None) -> Any:
        """Park until an item is available; :data:`CLOSED` after drain."""
        deadline = deadline_of(timeout)
        async with self._cond:
            while not self._items and not self._closed:
                await _cond_wait(self._cond, deadline, "AsyncChannel.take")
            if not self._items:
                return CLOSED
            item = self._items.popleft()
            self._cond.notify_all()
        if isinstance(item, RaiseEnvelope):
            raise item.error
        return item

    async def take_many(self, max_n: int, timeout: float | None = None) -> Any:
        """Take up to *max_n* queued items at once (never reordering an
        error past the data that preceded it)."""
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        deadline = deadline_of(timeout)
        async with self._cond:
            while not self._items and not self._closed:
                await _cond_wait(self._cond, deadline, "AsyncChannel.take_many")
            if not self._items:
                return CLOSED
            batch: List[Any] = []
            while self._items and len(batch) < max_n:
                if isinstance(self._items[0], RaiseEnvelope):
                    if batch:
                        break  # deliver the preceding data first
                    envelope = self._items.popleft()
                    self._cond.notify_all()
                    raise envelope.error
                batch.append(self._items.popleft())
            self._cond.notify_all()
        return batch

    # -- inspection ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._items)

    def __aiter__(self) -> AsyncIterator[Any]:
        return self._drain()

    async def _drain(self) -> AsyncIterator[Any]:
        while True:
            item = await self.take()
            if item is CLOSED:
                return
            yield item

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"AsyncChannel(capacity={self.capacity}, "
            f"queued={len(self._items)}, {state})"
        )


class AsyncPipe:
    """An async-native generator proxy: ``async for`` over a body.

    For code that already lives inside an event loop.  The producer is
    :class:`AsyncWorker`'s coroutine, a task on the caller's running
    loop (outside scheduler accounting); the consumer side is
    :class:`~repro.coexpr.pipe.Pipe`'s own code — lifecycle events, the
    deadline and timeout errors, upstream cancellation, the ``BATCH``
    events — and :meth:`take` follows :meth:`Pipe.take`'s rules.  The
    task starts on the first take (the paper's proxy spawns from
    ``next()``) or via :meth:`start`.

    ``refresh()`` is snapshot-and-restart (Prokopec & Liu): a sibling
    pipe over a fresh copy of the co-expression's creation environment,
    with the same options — and so the same deadline budget.
    """

    def __init__(
        self,
        expr: Any,
        capacity: int = 0,
        batch: int = 1,
        take_timeout: float | None = None,
        deadline: Any = None,
    ) -> None:
        # Pipe's rules for the knobs this pipe takes.
        options = PipeOptions(
            capacity=capacity, take_timeout=take_timeout, batch=batch, deadline=deadline
        )
        self._setup(coexpr_of(expr), options)

    def _setup(self, coexpr: CoExpression, options: PipeOptions) -> None:
        self.coexpr = coexpr
        self.options = options
        self.capacity = options.capacity
        #: The output queue — public, as in the paper.
        self.out = AsyncChannel(options.capacity)
        self.batch = options.batch
        self.take_timeout = options.take_timeout
        #: End-to-end budget (shared across refreshes and pipelines).
        self.deadline: Deadline | None = options.deadline
        self.upstream: Any = None
        self._task: asyncio.Task | None = None
        self._cancelled = False
        self._errored = False
        self._pending: deque = deque()
        self._coalescer = Coalescer(options.batch)

    # Pipe's consumer rules and events, the same code.
    _emit = Pipe._emit
    _deadline_error = Pipe._deadline_error
    _timed_out = Pipe._timed_out
    _cancel_upstream = Pipe._cancel_upstream
    _worker_done = Pipe._worker_done
    _queued = Pipe._queued
    #: An async-native pipe carries no restart policy.
    _policy = None

    def start(self) -> "AsyncPipe":
        """Spawn the producer task on the running loop (idempotent)."""
        if self._task is None and not self._cancelled:
            self._task = AsyncWorker(self).start(asyncio.get_running_loop())
            self._emit(EventKind.START)
        return self

    async def take(self, timeout: Any = _UNSET) -> Any:
        """The next result or :data:`FAIL` once exhausted — each step in
        :meth:`Pipe.take`'s order, with the channel waits awaited."""
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            error = self._deadline_error("take")
            self.cancel()
            raise error
        if self._pending:
            return self._pending.popleft()
        if timeout is _UNSET:
            timeout = self.take_timeout
        if deadline is not None:
            timeout = deadline.bound(timeout)
        many = self.batch > 1 or not self.capacity
        try:
            self.start()
            if many:
                item = await self.out.take_many(
                    self.batch if self.batch > 1 else _DRAIN_ALL, timeout
                )
            else:
                item = await self.out.take(timeout)
        except PipeDeadlineExceeded:
            self.cancel()
            raise
        except PipeTimeoutError:
            raise self._timed_out(timeout) from None
        if item is CLOSED:
            return FAIL
        if many:
            if len(item) > 1:
                self._pending.extend(item[1:])
            return item[0]
        return item

    def cancel(self) -> bool:
        """Stop the producer (idempotent): close channel + body + task."""
        first = not self._cancelled
        self._cancelled = True
        if first:
            self._emit(EventKind.CANCEL)
            self.out.close()
            self.coexpr.close()
            if self._task is not None and not self._task.done():
                self._task.cancel()
            self._cancel_upstream()
        return self._task is None or self._task.done()

    cancelled = Pipe.cancelled

    def refresh(self) -> "AsyncPipe":
        """``^p`` — a new pipe over a refreshed copy of the co-expression,
        with the same options (not checked again)."""
        sibling = AsyncPipe.__new__(AsyncPipe)
        sibling._setup(self.coexpr.refresh(), self.options)
        return sibling

    def __aiter__(self) -> AsyncIterator[Any]:
        return self._iterate()

    async def _iterate(self) -> AsyncIterator[Any]:
        self.start()
        while True:
            item = await self.take()
            if item is FAIL:
                return
            yield item

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("running" if self._task is not None else "unstarted")
        )
        return f"AsyncPipe({self.coexpr.name}, {state}, queued={self._queued()})"


# ---------------------------------------------------------------------------
# The one producer coroutine, behind AsyncPipe and backend="async".
# ---------------------------------------------------------------------------


class AsyncWorker:
    """One pipe body running as a coroutine (see the module docstring).

    With a *scheduler* (``backend="async"``) it is tracked as a session,
    so ``leaked()``/``shutdown()`` cover the pending task the way they
    cover sockets, and speaks the worker/session protocol:
    ``handle``/``join``/``is_alive``/``name``, ``kill`` (cancel the task
    now) and ``terminate`` (the :meth:`Pipe.cancel` hook).
    """

    __slots__ = ("pipe", "scheduler", "name", "handle", "_future")

    def __init__(self, pipe: Any, scheduler: Any = None) -> None:
        self.pipe = pipe
        self.scheduler = scheduler
        self.name = f"apipe-{pipe.coexpr.name}"
        self.handle = WorkerHandle()
        self._future: Any = None

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> Any:
        """Schedule :meth:`_produce`, announce it with one
        ``ASYNC_SESSION`` event and return its future.  Without *loop*:
        on the shared loop, delivering into the pipe's threading channel
        by :meth:`_deliver`.  With the caller's running *loop*: as a task
        there, awaiting the :class:`AsyncChannel`'s ``put_many``."""
        if loop is None:
            future = asyncio.run_coroutine_threadsafe(
                self._produce(self._deliver), event_loop()
            )
        else:
            future = loop.create_task(
                self._produce(self.pipe.out.put_many), name=self.name
            )
        future.add_done_callback(lambda _f: self.handle._mark_done())
        self._future = future
        self.pipe._emit(
            EventKind.ASYNC_SESSION,
            {"transport": "loop", "name": self.pipe.coexpr.name},
        )
        return future

    # -- the producer coroutine ----------------------------------------------

    async def _deliver(self, items: List[Any]) -> None:
        """Move *items* into the pipe's (threading) channel without ever
        blocking the loop: this worker is the channel's only producer,
        so free space observed under the lock cannot shrink before the
        zero-timeout put lands.  On a full channel the coroutine parks
        on a future that the consumer's next take (or the close) wakes
        through :meth:`Channel.on_space <repro.coexpr.channel.Channel.on_space>`."""
        out = self.pipe.out
        sent = 0
        while sent < len(items):
            if out.capacity:
                free = out.capacity - len(out)
                if free <= 0:
                    if out.closed:
                        raise ChannelClosedError("consumer cancelled")
                    loop = asyncio.get_running_loop()
                    woken = loop.create_future()
                    if out.on_space(partial(loop.call_soon_threadsafe, _wake, woken)):
                        await woken
                    continue
                chunk = items[sent : sent + free]
            else:
                chunk = items[sent:]
            out.put_many(chunk, timeout=0)
            sent += len(chunk)

    async def _flush(self, deliver: Callable[[List[Any]], Awaitable[Any]]) -> None:
        """Deliver the coalesced batch and emit the thread tier's
        ``BATCH`` event for it."""
        pipe = self.pipe
        items = pipe._coalescer.drain()
        await deliver(items)
        if lifecycle_enabled():
            pipe._emit(
                EventKind.BATCH,
                {"size": len(items), "queued": pipe._queued()},
            )

    async def _produce(self, deliver: Callable[[List[Any]], Awaitable[Any]]) -> None:
        """Activate the body to exhaustion, handing each result (or
        coalesced slice) to the sink *deliver*."""
        pipe = self.pipe
        out = pipe.out
        coexpr = pipe.coexpr
        deadline = pipe.deadline
        batch = pipe.batch
        coalescer = pipe._coalescer
        first = True
        last_yield = last_handoff = time.monotonic()
        switch_interval = sys.getswitchinterval()
        try:
            while not pipe._cancelled:
                if deadline is not None and deadline.expired():
                    raise pipe._deadline_error("producer")
                value = coexpr.activate()
                if value is FAIL:
                    break
                now = time.monotonic()
                if batch == 1:
                    await deliver([value])
                # Activations are atomic on the loop, so this
                # post-activation age check is the linger flusher (see
                # the module docstring's cooperative caveat).
                elif coalescer.append(value, now) or coalescer.due_in(now) == 0:
                    await self._flush(deliver)
                # The yield rule and its two thread turns: see the module
                # docstring's cooperative caveat.
                if first or now - last_yield >= _YIELD_SLICE:
                    await asyncio.sleep(0)
                    if first:
                        _yield_cpu()
                        first = False
                    last_yield = time.monotonic()
                    if last_yield - last_handoff >= switch_interval:
                        time.sleep(0)
                        last_handoff = last_yield
            if coalescer:  # flush-on-exhaustion: no result is stranded
                await self._flush(deliver)
        except ChannelClosedError:
            pass  # the consumer cancelled the pipe; just exit
        except Exception as error:  # noqa: BLE001 - forwarded to consumer
            pipe._errored = True
            try:
                if coalescer:
                    await self._flush(deliver)  # data before the error
                out.put_error(error)  # unthrottled: never blocks
            except ChannelClosedError:
                pass  # cancelled while reporting: consumer is gone
        finally:
            out.close()
            pipe._worker_done()
            if self.scheduler is not None:
                self.scheduler.untrack_session(self)

    # -- teardown --------------------------------------------------------------

    def terminate(self) -> None:
        """The :meth:`Pipe.cancel` hook: cancel the task (idempotent).

        The loop delivers ``CancelledError`` into the coroutine, whose
        ``finally`` closes the channel and untracks the session — same
        unwind order as a thread worker seeing its channel closed.
        """
        future = self._future
        if future is not None:
            future.cancel()

    # -- worker/session protocol (scheduler accounting) ------------------------

    def kill(self) -> None:
        """Scheduler-shutdown hook: cancel the pending task now."""
        self.terminate()

    def join(self, timeout: float | None = None) -> bool:
        return self.handle.join(timeout)

    def is_alive(self) -> bool:
        return self.handle.is_alive()


def async_unsafe_reason(pipe: Any) -> str | None:
    """Why *pipe*'s body cannot run on the shared loop (None = it can).

    The async tier's half of the degradation rules, the cooperative
    analogue of :func:`repro.coexpr.proc.body_portability_reason`: the
    loop runs one activation at a time, so a body that performs a
    *blocking* take inside its activation freezes every other coroutine
    on the loop.  If the channel it blocks on is itself fed by a task on
    that loop — a stage consuming an upstream async pipe — the producer
    can never run and the pipeline deadlocks outright; if the feeder is
    a thread, the loop is merely starved for the stream's whole
    lifetime, which breaks the "thousands of pipes share one loop"
    contract just as surely.  Either way the stage cannot live on the
    loop: it degrades to the thread backend with a ``DEGRADED`` monitor
    event, exactly as a channel-fed stage refuses the process boundary.

    Pure sources — bodies whose environment holds only plain values —
    run on the loop; that is the tier's sweet spot.
    """
    from .channel import Channel
    from .future import Future, MVar

    blocking = (Pipe, Future, MVar, Channel)
    upstream = getattr(pipe, "upstream", None)
    if upstream is not None and isinstance(upstream, blocking):
        return "stage is fed by an in-process pipe (blocking take would starve the loop)"
    for value in pipe.coexpr._env:
        if isinstance(value, blocking):
            return (
                f"environment references a blocking {type(value).__name__}"
                " (its take would starve the loop)"
            )
    return None


def start_async_worker(pipe: Any, scheduler: Any) -> AsyncWorker | str:
    """Run *pipe*'s body as a task on the shared event loop.

    Returns a running :class:`AsyncWorker` (task scheduled, session
    tracked by *scheduler*) — or the reason :func:`async_unsafe_reason`
    gives for a blocking dependency, and :meth:`Pipe.start` degrades to
    the thread backend (the same contract as the process and remote
    hooks).  Scheduler shutdown is **not** degradation: a submit racing
    shutdown propagates :class:`~repro.errors.SchedulerShutdownError`,
    exactly as the thread backend does (the session registration is the
    gate, and it happens *before* the task exists, so the race leaks
    nothing).
    """
    reason = async_unsafe_reason(pipe)
    if reason is not None:
        return reason
    worker = AsyncWorker(pipe, scheduler)
    scheduler.track_session(worker)  # raises after shutdown
    try:
        worker.start()
    except BaseException:
        scheduler.untrack_session(worker)
        raise
    return worker
