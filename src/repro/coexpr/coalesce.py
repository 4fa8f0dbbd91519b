"""The batching rule every pipe tier shares — sans-IO.

A batched pipe coalesces up to ``batch`` results and moves them as one
slice, and a partial batch may wait at most ``max_linger`` seconds
before it is flushed anyway.  :class:`Coalescer` is that decision and
nothing else: it takes the clock as an argument, owns no lock, thread,
socket or loop, and never sends.  Each tier wraps it in its own wakeup
— the thread tier's flusher condition, the process child's beat
thread, the async producer's post-activation check, the generator
server's reader — and the validation of ``batch``/``max_linger`` lives
here once, so every tier accepts and rejects the same values.
"""

from __future__ import annotations

from typing import Any, List

from .wire import _is_number

#: The shortest timed wait a beat or linger poller takes (seconds):
#: however small ``max_linger`` or a heartbeat interval, no tier wakes
#: on a timer more often than once per tick.
_MIN_TICK = 0.001


class Coalescer:
    """Up to ``batch`` buffered results, the batch clock ``started``
    (when the oldest was appended; None while nothing is buffered), and
    the linger bound ``max_linger`` (None = no bound: a partial batch
    waits for the next full one or the end of the stream).

    Raises :class:`ValueError` naming the field for a ``batch`` that is
    not an int >= 1 or a ``max_linger`` that is not None or a finite
    number >= 0.
    """

    __slots__ = ("batch", "max_linger", "started", "_items")

    def __init__(self, batch: Any = 1, max_linger: Any = None) -> None:
        if type(batch) is not int or batch < 1:
            raise ValueError(f"batch must be an int >= 1, got {batch!r}")
        if max_linger is not None and not (
            _is_number(max_linger) and max_linger >= 0
        ):
            raise ValueError(
                f"max_linger must be None or a finite number >= 0, "
                f"got {max_linger!r}"
            )
        self.batch = batch
        self.max_linger = max_linger
        self.started: float | None = None
        self._items: List[Any] = []

    def append(self, value: Any, now: float) -> bool:
        """Buffer *value*; True when the batch is full.  *now* starts
        the batch clock when *value* is the first buffered item and is
        not read otherwise."""
        items = self._items
        if not items:
            self.started = now
        items.append(value)
        return len(items) >= self.batch

    def due_in(self, now: float) -> float | None:
        """Seconds a poller may sleep before a flush can come due: until
        the buffered batch has out-lingered ``max_linger`` (0 once it
        has), or ``max_linger`` itself while nothing is buffered — a
        batch that starts now comes due no sooner.  None without a
        linger bound: nothing ever comes due."""
        max_linger = self.max_linger
        if max_linger is None:
            return None
        started = self.started
        if started is None:
            return max_linger
        return max(0.0, started + max_linger - now)

    def sleep_for(self, now: float, beat_at: float) -> float:
        """How long a poller that also beats at *beat_at* may sleep:
        until the beat or until a flush can come due, whichever is
        sooner, and never less than :data:`_MIN_TICK`."""
        wait = beat_at - now
        due = self.due_in(now)
        if due is not None and due < wait:
            wait = due
        return wait if wait > _MIN_TICK else _MIN_TICK

    def drain(self, limit: int | None = None) -> List[Any]:
        """Remove and return the oldest *limit* items (None = all), in
        append order.  What stays keeps the batch clock: a partial drain
        never makes the rest due later than the batch it came from."""
        items = self._items
        if limit is None or limit >= len(items):
            self._items = []
            self.started = None
            return items
        self._items = items[limit:]
        return items[:limit]

    def __len__(self) -> int:
        return len(self._items)
