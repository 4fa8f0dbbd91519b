"""Blocking channels — the communication substrate of pipes (III.B).

"A blocking channel, or blocking queue, has put and take operations that
wait until the queue of results is not full or not empty, respectively."
The paper uses Java's ``BlockingQueue``; this channel adds the two
behaviours a generator proxy needs on top of a plain bounded queue:

* **close** — the producer signals exhaustion (the co-expression failed);
  pending items still drain, after which ``take`` returns :data:`CLOSED`.
* **error propagation** — a producer-side exception travels the queue as a
  :class:`RaiseEnvelope` and re-raises in the consumer.

A *bounded* channel throttles its producer (the paper: "Bounding the
output queue buffer size can also be used to throttle a threaded
co-expression"); capacity 0 means unbounded.

Timeouts are **deadline-correct**: the deadline is computed once from
``time.monotonic()`` and each condition wait gets only the remaining
time, so the total wait never exceeds the requested timeout no matter
how many spurious wakeups occur.  Timeouts raise
:class:`~repro.errors.PipeTimeoutError` (a :class:`TimeoutError`
subclass).

The handoff costs only what it has to.  Each operation holds the channel
lock directly, and wakes the other side only when a thread is actually
asleep on it: the channel counts the threads blocked on each condition,
under the lock, so a producer running ahead of a busy consumer (or the
reverse) pays no condition-variable notify per item.  A consumer that
has been notified but has not yet run is not notified again, so a
producer that keeps putting while its consumer waits for the GIL pays
one notify per sleep, not one per item.  A :meth:`take_many` with no
error queued drains the whole queue in one copy.

A producer that must not block a thread — the async tier's coroutine,
which shares its loop with every other async pipe — parks on a full
channel with :meth:`Channel.on_space` instead: a one-shot callback,
counted among the sleeping putters, that the next take (or the close)
runs on the branch that would have notified a sleeping thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from ..errors import ChannelClosedError, PipeTimeoutError


class _ClosedSentinel:
    _instance: "_ClosedSentinel | None" = None

    def __new__(cls) -> "_ClosedSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "CLOSED"


#: Returned by ``take`` once a channel is closed and drained.
CLOSED = _ClosedSentinel()


class RaiseEnvelope:
    """An exception in transit from producer to consumer."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def deadline_of(timeout: float | None) -> float | None:
    """A monotonic deadline for *timeout* seconds from now (None = never)."""
    if timeout is None:
        return None
    return time.monotonic() + timeout


def remaining(deadline: float | None) -> float | None:
    """Seconds left until *deadline* (clamped at 0), or None if unbounded."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


def deadline_wait(
    condition: threading.Condition, deadline: float | None, what: str
) -> None:
    """One deadline-aware condition wait; raises on an expired deadline.

    Shared by every blocking primitive (channels, M-vars) so that a
    timeout means "total wall-clock", not "per wakeup".  A wait that
    times out returns to the caller's loop, which re-checks its
    predicate before the next call raises: a notify that raced with the
    timeout is then served, not lost with this waiter.
    """
    left = remaining(deadline)
    if left is not None and left <= 0:
        raise PipeTimeoutError(f"{what} timed out")
    condition.wait(left)


class Channel:
    """A bounded blocking queue with close semantics.

    Thread-safe for any number of producers and consumers.  ``capacity``
    of 0 means unbounded.  Iterating a channel takes until it is drained.
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        # Threads blocked in _not_empty / _not_full, takers notified but
        # not yet run, and RaiseEnvelopes queued; all change only under
        # _lock.  A waiter counts itself before it re-checks its
        # predicate, so a notify skipped because a count was zero can
        # never strand a sleeper.  Every taker that returns from a wait,
        # notified or not, retires one pending wakeup, so _woken never
        # exceeds the takers notified and not yet run: a notify skipped
        # because _woken == _takers only skips takers already on their
        # way.
        self._takers = 0
        self._woken = 0
        self._putters = 0
        self._envelopes = 0
        #: One-shot callbacks of producers parked by on_space, each
        #: also counted in _putters.
        self._space_waiters: list = []
        #: Items taken so far, error envelopes excluded (changes only
        #: under _lock, so it is exact with any number of consumers).
        self.taken = 0

    def _await_item(self, deadline: float | None, what: str) -> None:
        """Wait, counted, until an item is queued or the channel closes;
        caller holds ``_lock`` and found the queue empty and open."""
        self._takers += 1
        try:
            while not self._items and not self._closed:
                try:
                    deadline_wait(self._not_empty, deadline, what)
                finally:
                    if self._woken:
                        self._woken -= 1
        finally:
            self._takers -= 1

    def _wake_takers(self, n: int) -> None:
        """Notify up to *n* sleeping takers that are not already woken;
        caller holds ``_lock`` and has just queued *n* items."""
        idle = self._takers - self._woken
        if idle > 0:
            n = min(n, idle)
            self._woken += n
            self._not_empty.notify(n)

    def _await_space(self, deadline: float | None, what: str) -> None:
        """Wait, counted, until a bounded channel has space or closes;
        caller holds ``_lock`` and found the queue full and open."""
        capacity = self.capacity
        self._putters += 1
        try:
            while len(self._items) >= capacity and not self._closed:
                deadline_wait(self._not_full, deadline, what)
        finally:
            self._putters -= 1

    def _space_freed(self) -> None:
        """Run the parked producers' callbacks once; caller holds
        ``_lock`` and found ``_putters`` non-zero."""
        waiters = self._space_waiters
        if waiters:
            self._space_waiters = []
            self._putters -= len(waiters)
            for callback in waiters:
                callback()

    def _popleft(self) -> Any:
        """Dequeue the head (an item or an envelope); caller holds
        ``_lock`` and has checked the queue is non-empty."""
        item = self._items.popleft()
        if self._envelopes and isinstance(item, RaiseEnvelope):
            self._envelopes -= 1
        else:
            self.taken += 1
        if self._putters:
            self._not_full.notify()
            self._space_freed()
        return item

    # -- producer side -------------------------------------------------------

    def put(self, item: Any, timeout: float | None = None) -> None:
        """Block until space is available, then enqueue *item*.

        Raises :class:`ChannelClosedError` if the channel is (or becomes)
        closed while waiting — that is how a consumer-side ``close``
        unblocks and terminates a producer.

        *timeout* is a monotonic deadline over the wait for space; expiry
        raises :class:`PipeTimeoutError`.  The deadline semantics are
        uniform across capacities: a put that needs no wait (space is
        free, or the channel is unbounded) succeeds regardless of the
        deadline — an unbounded channel always has space, so its puts
        accept a timeout but can never expire on one.
        """
        deadline = deadline_of(timeout)
        with self._lock:
            if self.capacity and len(self._items) >= self.capacity:
                self._await_space(deadline, "Channel.put")
            if self._closed:
                raise ChannelClosedError("put on a closed channel")
            self._items.append(item)
            if self._takers:
                self._wake_takers(1)

    def put_many(self, items: Iterable[Any], timeout: float | None = None) -> int:
        """Enqueue every element of *items* under (at most) one lock
        acquisition per free-space window; returns the number enqueued.

        This is the batched-transport primitive: where a loop of
        :meth:`put` pays a mutex acquire and a condition-variable notify
        per element, ``put_many`` appends a whole slice while it holds
        the lock, waiting (deadline-correctly) only when a bounded
        channel fills up mid-batch.

        All-or-raise: on success the return value is ``len(items)``.  If
        the channel closes mid-batch, :class:`ChannelClosedError` is
        raised — elements enqueued before the close stay takeable, the
        rest are dropped (the consumer that closed has stopped reading).
        If the deadline expires mid-batch, :class:`PipeTimeoutError` is
        raised and the partial prefix likewise stays enqueued; FIFO order
        is preserved in every case.
        """
        batch = list(items)
        if not batch:
            return 0
        deadline = deadline_of(timeout)
        sent = 0
        with self._lock:
            while True:
                if self.capacity and len(self._items) >= self.capacity:
                    self._await_space(deadline, "Channel.put_many")
                if self._closed:
                    raise ChannelClosedError(
                        f"put_many on a closed channel ({sent}/{len(batch)} sent)"
                    )
                if self.capacity:
                    free = self.capacity - len(self._items)
                    chunk = batch[sent : sent + free]
                else:
                    chunk = batch[sent:]
                self._items.extend(chunk)
                sent += len(chunk)
                if self._takers:
                    self._wake_takers(len(chunk))
                if sent >= len(batch):
                    return sent

    def on_space(self, callback: Callable[[], Any]) -> bool:
        """Park a producer that cannot block: register *callback* to run
        once, under the channel lock, when a take frees space in this
        full bounded channel or the channel closes.  Returns False, and
        registers nothing, when the channel has space or is closed."""
        with self._lock:
            if self._closed or not self.capacity or len(self._items) < self.capacity:
                return False
            self._space_waiters.append(callback)
            self._putters += 1
            return True

    def put_error(self, error: BaseException) -> None:
        """Enqueue an exception to re-raise at the consumer.

        Error delivery bypasses the capacity bound: a crash report must
        never block behind a full queue (a producer that dies while its
        consumer is slow would otherwise hang forever trying to say so).
        """
        with self._lock:
            if self._closed:
                raise ChannelClosedError("put_error on a closed channel")
            self._items.append(RaiseEnvelope(error))
            self._envelopes += 1
            if self._takers:
                self._wake_takers(1)

    def close(self) -> None:
        """Close the channel; queued items remain takeable.

        Idempotent.  Wakes every blocked producer (which then raises
        :class:`ChannelClosedError`) and consumer (which drains or gets
        :data:`CLOSED`).
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            if self._putters:
                self._not_full.notify_all()
                self._space_freed()

    # -- consumer side -------------------------------------------------------

    def take(self, timeout: float | None = None) -> Any:
        """Block until an item is available; :data:`CLOSED` after drain.

        Re-raises a producer exception delivered via :meth:`put_error`.
        *timeout* is a monotonic deadline over the whole wait; expiry
        raises :class:`PipeTimeoutError`.
        """
        deadline = deadline_of(timeout)
        with self._lock:
            if not self._items and not self._closed:
                self._await_item(deadline, "Channel.take")
            if not self._items:
                return CLOSED
            item = self._popleft()
        if isinstance(item, RaiseEnvelope):
            raise item.error
        return item

    def take_many(self, max_n: int, timeout: float | None = None) -> Any:
        """Take up to *max_n* items under one lock acquisition.

        Blocks (deadline-correctly) until at least one item is available,
        then drains whatever is queued — up to *max_n* — without waiting
        for more: batching never adds consumer latency, it only amortizes
        the lock when the producer has run ahead.  Returns a non-empty
        list, or :data:`CLOSED` once the channel is closed and drained.

        Error envelopes are never reordered past the data that preceded
        them: the batch stops just before a queued
        :class:`RaiseEnvelope`, and an envelope at the head of the queue
        re-raises its exception (exactly as :meth:`take` would).  With no
        envelope queued and the queue within *max_n*, the drain is a
        single copy of the queue; the per-item scan runs only while an
        error is queued.
        """
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        deadline = deadline_of(timeout)
        with self._lock:
            if not self._items and not self._closed:
                self._await_item(deadline, "Channel.take_many")
            items = self._items
            if not items:
                return CLOSED
            if self._envelopes:
                if isinstance(items[0], RaiseEnvelope):
                    raise self._popleft().error
                batch = []
                while items and len(batch) < max_n:
                    if isinstance(items[0], RaiseEnvelope):
                        break  # deliver the preceding data first
                    batch.append(items.popleft())
            elif len(items) <= max_n:
                batch = list(items)
                items.clear()
            else:
                batch = [items.popleft() for _ in range(max_n)]
            self.taken += len(batch)
            if self._putters:
                self._not_full.notify(len(batch))
                self._space_freed()
        return batch

    def poll(self) -> Any:
        """Non-blocking take: an item, or :data:`CLOSED`, or None if empty."""
        with self._lock:
            if self._items:
                item = self._popleft()
            elif self._closed:
                return CLOSED
            else:
                return None
        if isinstance(item, RaiseEnvelope):
            raise item.error
        return item

    # -- inspection ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        while True:
            item = self.take()
            if item is CLOSED:
                return
            yield item

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Channel(capacity={self.capacity}, queued={len(self)}, {state})"
