"""Credit flow control as a property, over both server substrates.

For any channel capacity (the credit window), batch size, server
``max_credit`` quota and stream length, a remote stream must deliver
the exact sequence without a credit deadlock, the server must never
hold more than one window of credit, and the run must leave nothing
behind.  Grants are coalesced on the client (half a window, or before
any receive that could block), so this is the test that the coalescing
never starves a server the client cannot see clamping.

``REPRO_HYPOTHESIS_EXAMPLES`` scales the example count (default 15).
Each example starts its own server.  A credit deadlock fails its
example through the pipe's ``take_timeout``; shrinking is off, since
every shrink step of a deadlock would wait out that timeout again and
run into the per-test SIGALRM watchdog.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.coexpr.scheduler import default_scheduler
from repro.net import AsyncGeneratorServer, GeneratorServer, RemotePipe
from repro.net.aserver import _AsyncSession
from repro.net.server import Session

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "15"))


def counter(n):
    return iter(range(n))


def recording_grants(held):
    """Patch both substrates' ``grant`` to record the credit the server
    holds after each grant (None = unlimited)."""
    stack = ExitStack()
    for cls in (Session, _AsyncSession):
        grant = cls.grant

        def recorded(session, amount, _grant=grant):
            _grant(session, amount)
            held.append(session._credit)

        stack.enter_context(mock.patch.object(cls, "grant", recorded))
    return stack


@given(
    server_cls=st.sampled_from([GeneratorServer, AsyncGeneratorServer]),
    capacity=st.one_of(st.just(0), st.integers(1, 64)),
    batch=st.integers(1, 16),
    max_credit=st.one_of(st.none(), st.integers(1, 8)),
    n=st.integers(0, 300),
)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_stream_exact_and_credit_bounded(
    server_cls, capacity, batch, max_credit, n
):
    held: list = []
    with recording_grants(held), server_cls(max_credit=max_credit) as server:
        server.register("counter", counter)
        pipe = RemotePipe(
            server.address,
            "counter",
            args=(n,),
            capacity=capacity,
            batch=batch,
            heartbeat_timeout=5.0,
            take_timeout=3.0,
        )
        assert list(pipe.iterate()) == list(range(n))
    assert held, "the server never saw the initial window"
    if capacity:
        window = capacity
        if max_credit is not None:
            window = min(window, max_credit)
        assert max(held) <= window
    elif max_credit is not None:
        assert held == [max_credit]  # unlimited grant -> greedy quota
    else:
        assert held == [None]
    assert not default_scheduler().leaked(join_timeout=2.0)
