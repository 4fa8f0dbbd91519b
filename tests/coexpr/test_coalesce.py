"""Stateful property testing of the batching rule against a model.

Every tier batches through one :class:`repro.coexpr.coalesce.Coalescer`:
the thread worker and its flusher, the process child and its beat
thread, the async producers, and the generator server's sender and
reader.  A hypothesis rule-based machine drives it directly on a fake
clock — no threads, no sockets, no loop — and checks it against a plain
model (a list and the time its oldest item arrived).  The invariants:

* the drains, joined in order, plus what is still buffered are exactly
  the appended items (nothing dropped, duplicated or reordered);
* ``append`` returns True exactly when the batch is full;
* ``started`` and ``due_in`` and ``sleep_for`` match the model's clock,
  including after a partial drain, which keeps the batch clock.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 40).
"""

import os

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.coexpr.coalesce import _MIN_TICK, Coalescer

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40"))

# Dyadic times and bounds keep the model's clock arithmetic exact.
SECONDS = st.integers(0, 64).map(lambda n: n / 64)


class CoalescerMachine(RuleBasedStateMachine):
    @initialize(
        batch=st.integers(1, 8),
        max_linger=st.one_of(st.none(), SECONDS),
    )
    def start(self, batch, max_linger):
        self.coalescer = Coalescer(batch, max_linger)
        self.batch = batch
        self.max_linger = max_linger
        self.now = 0.0
        # The model: what is buffered, and when its oldest item arrived.
        self.buffered: list = []
        self.oldest = 0.0
        self.appended: list = []
        self.drained: list = []

    @rule()
    def append(self):
        item = len(self.appended)
        full = self.coalescer.append(item, self.now)
        if not self.buffered:
            self.oldest = self.now
        self.buffered.append(item)
        self.appended.append(item)
        assert full == (len(self.buffered) >= self.batch)

    @rule(seconds=SECONDS)
    def advance(self, seconds):
        self.now += seconds

    @rule(limit=st.one_of(st.none(), st.integers(0, 10)))
    def drain(self, limit):
        taken = self.coalescer.drain(limit)
        count = len(self.buffered) if limit is None else limit
        assert taken == self.buffered[:count]
        self.buffered = self.buffered[count:]
        self.drained.extend(taken)

    @invariant()
    def nothing_lost_or_reordered(self):
        assert len(self.coalescer) == len(self.buffered)
        assert self.drained + self.coalescer._items == self.appended

    @invariant()
    def started_is_the_batch_clock(self):
        expected = self.oldest if self.buffered else None
        assert self.coalescer.started == expected

    @invariant()
    def due_in_follows_the_clock(self):
        due = self.coalescer.due_in(self.now)
        if self.max_linger is None:
            assert due is None
        elif not self.buffered:
            assert due == self.max_linger
        else:
            assert due == max(0.0, self.oldest + self.max_linger - self.now)

    @invariant()
    def sleep_is_the_sooner_wakeup_floored(self):
        for beat_in in (0.0, 0.25, 4.0):
            due = self.coalescer.due_in(self.now)
            wait = beat_in if due is None else min(beat_in, due)
            assert self.coalescer.sleep_for(self.now, self.now + beat_in) == max(
                wait, _MIN_TICK
            )


CoalescerMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestCoalescerRule = CoalescerMachine.TestCase
