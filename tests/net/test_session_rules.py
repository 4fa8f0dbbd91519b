"""Stateful property testing of the shared credit rules against a model.

Both server substrates run one copy of the credit rules
(:class:`repro.net.server._SessionRules`): grants with the
``max_credit`` quota clamp, the greedy refill that replaces an
unlimited grant a quota clamped, and draining the session's coalescer
under the credit held.  A hypothesis rule-based machine drives those
rules directly — no sockets, no threads, no loop — and checks them
against a plain model, the way the Channel suite checks a channel
against a deque.  The invariants:

* the slices taken, joined in order, are a prefix of the appended
  items, and with the still-buffered items they are exactly the
  appended items (nothing dropped, duplicated or reordered);
* no slice is longer than the credit held when it was taken;
* credit is never negative and never exceeds the quota.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 40).
"""

import os
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.net.server import _SessionRules

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "40"))


class CreditMachine(RuleBasedStateMachine):
    @initialize(quota=st.one_of(st.none(), st.integers(1, 16)))
    def start(self, quota):
        server = SimpleNamespace(max_credit=quota, heartbeat_interval=0.1)
        self.session = _SessionRules(server, None, "model")
        self.quota = quota
        # The model: credit held (None = unlimited) and the greedy flag.
        self.credit = 0
        self.greedy = False
        self.appended: list = []
        self.sent: list = []

    @rule(amount=st.one_of(st.none(), st.integers(0, 32)))
    def grant(self, amount):
        self.session._apply_grant(amount)
        if amount is None:
            if self.quota is None:
                self.credit = None
            else:
                self.greedy = True
                self.credit = self.quota
        elif self.credit is not None:
            self.credit += amount
            if self.quota is not None:
                self.credit = min(self.credit, self.quota)

    @rule(count=st.integers(1, 8))
    def append(self, count):
        items = list(range(len(self.appended), len(self.appended) + count))
        for item in items:
            self.session._coalescer.append(item, 0.0)
        self.appended.extend(items)

    @rule()
    def take(self):
        held = self.session._credit
        slice_ = self.session._take()
        pending = len(self.appended) - len(self.sent)
        if held == 0:
            assert slice_ is None
            return
        assert held is None or len(slice_) <= held
        assert len(slice_) == (pending if held is None else min(held, pending))
        self.sent.extend(slice_)
        if held is not None:
            self.credit = held - len(slice_)

    @rule()
    def refill(self):
        assert self.session._refill() == self.greedy
        if self.greedy:
            self.credit = self.quota

    @invariant()
    def credit_matches_model(self):
        assert self.session._credit == self.credit
        assert self.session._greedy == self.greedy

    @invariant()
    def credit_within_quota(self):
        credit = self.session._credit
        if credit is not None:
            assert credit >= 0
            assert self.quota is None or credit <= self.quota

    @invariant()
    def slices_preserve_order(self):
        assert self.sent == self.appended[: len(self.sent)]
        assert self.sent + self.session._coalescer._items == self.appended


CreditMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestCreditRules = CreditMachine.TestCase
