"""End-to-end deadlines across the backend matrix
(thread|process|remote|async).

The contract under test: a ``deadline`` is one budget for the whole
stream, carried as *remaining seconds* across every boundary, and expiry
is **active** — the producer is stopped (thread flagged, child
terminated, remote session cancelled), the consumer sees
:class:`~repro.errors.PipeDeadlineExceeded`, and nothing leaks.  A plain
per-take timeout keeps raising plain
:class:`~repro.errors.PipeTimeoutError`; supervision retries neither.

Every observable behavior is asserted identically for all four
backends — the tiers must be indistinguishable except for *where* the
expiry was noticed.  The remote tier additionally runs against both
server substrates (threaded and event-loop): nothing on the wire may
reveal which one answered.
"""

from __future__ import annotations

import time

import pytest

from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.errors import PipeDeadlineExceeded, PipeTimeoutError
from repro.monitor import EventKind, Tracer
from repro.net import AsyncGeneratorServer, GeneratorServer

BACKENDS = ("thread", "process", "remote", "async")


# Module-level sources: the process and remote tiers ship bodies by
# pickle, which serializes functions by qualified name.

def slow_counter():
    value = 0
    while True:
        time.sleep(0.02)
        yield value
        value += 1


def trickle_counter():
    value = 0
    while True:
        time.sleep(0.25)
        yield value
        value += 1


def quick_range():
    return iter(range(20))


def slow_double(x):
    time.sleep(0.02)
    return 2 * x


def crawl_double(x):
    time.sleep(0.05)
    return 2 * x


@pytest.fixture(params=[GeneratorServer, AsyncGeneratorServer])
def server(request):
    with request.param() as srv:
        yield srv


def make_source(backend, server, src, **kwargs):
    if backend == "remote":
        kwargs["remote_address"] = server.address
    return source_pipe(src, backend=backend, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeadlineMatrix:
    def test_generous_budget_streams_to_completion(self, backend, server):
        piped = make_source(backend, server, quick_range, deadline=30.0).start()
        assert list(piped.iterate()) == list(range(20))

    def test_expiry_raises_deadline_exceeded(self, backend, server):
        piped = make_source(
            backend, server, slow_counter, deadline=0.4
        ).start()
        seen = []
        with pytest.raises(PipeDeadlineExceeded) as excinfo:
            for value in piped.iterate():
                seen.append(value)
        # The budget is also a timeout (supervision's no-retry rule
        # depends on the subclass relation).
        assert isinstance(excinfo.value, PipeTimeoutError)
        # Items delivered before expiry are an exact prefix — expiry
        # never drops or reorders what was produced within budget.
        assert seen == list(range(len(seen)))

    def test_plain_timeout_is_not_a_deadline(self, backend, server):
        piped = make_source(
            backend, server, trickle_counter, take_timeout=0.05
        ).start()
        with pytest.raises(PipeTimeoutError) as excinfo:
            piped.take()
        assert not isinstance(excinfo.value, PipeDeadlineExceeded)
        piped.cancel(join=True, timeout=5.0)

    def test_expired_budget_short_circuits_before_spawn(self, backend, server):
        tracer = Tracer()
        with tracer.lifecycle():
            piped = make_source(backend, server, quick_range, deadline=0.0)
            with pytest.raises(PipeDeadlineExceeded) as excinfo:
                piped.start()
        assert excinfo.value.where == "start"
        kinds = [e.kind for e in tracer.events]
        assert EventKind.DEADLINE_EXPIRED in kinds
        # Nothing was spawned or dialed past budget: no child process,
        # no connection, no server session.
        assert EventKind.SPAWN not in kinds
        assert EventKind.NET_CONNECT not in kinds
        assert server.stats["served"] == 0

    def test_expiry_releases_the_producer(self, backend, pipe_scheduler):
        # Inline server (not the fixture): it must be shut down *before*
        # the leak assertion, or its own accept thread shows up in it.
        with GeneratorServer() as srv:
            piped = make_source(
                backend, srv, slow_counter, deadline=0.3,
                heartbeat_interval=0.05,
            ).start()
            with pytest.raises(PipeDeadlineExceeded):
                list(piped.iterate())
            if backend == "remote":
                limit = time.monotonic() + 2.0
                while srv.stats["active"] and time.monotonic() < limit:
                    time.sleep(0.01)
                assert srv.stats["active"] == 0
        # Reclaim is prompt and complete: worker threads, child
        # processes, and pump sessions all release without the test's
        # teardown having to wait them out.
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_supervision_does_not_retry_past_budget(self, backend, server):
        kwargs = {"remote_address": server.address} if backend == "remote" else {}
        piped = supervise(
            source_pipe(slow_counter).coexpr,
            backend=backend,
            deadline=0.4,
            backoff=NO_BACKOFF,
            max_retries=5,
            **kwargs,
        )
        with pytest.raises(PipeDeadlineExceeded):
            list(piped.iterate())
        # A stream past its budget is not a crash: no retry was burned,
        # because the replay would be just as far past budget.
        assert piped.failures == 0

    def test_health_stats_record_the_expiry(self, backend, server):
        tracer = Tracer()
        with tracer.lifecycle():
            piped = make_source(
                backend, server, slow_counter, deadline=0.3
            ).start()
            with pytest.raises(PipeDeadlineExceeded):
                list(piped.iterate())
        summary = tracer.summary()
        expired = [
            payload
            for kinds in summary.values()
            for payload in kinds.get(EventKind.DEADLINE_EXPIRED, ())
        ]
        assert expired, f"no DEADLINE_EXPIRED recorded; summary={summary}"
        wheres = {payload["where"] for payload in expired}
        assert wheres & {"take", "producer", "session", "start"}
        if backend in ("process", "remote"):
            # The budget visibly crossed the boundary as remaining time.
            propagated = [
                e
                for e in tracer.events
                if e.kind == EventKind.DEADLINE_PROPAGATED
            ]
            assert propagated
            assert all(
                0 < e.value["remaining"] <= 0.3 for e in propagated
            )


class TestDeadlineComposition:
    """One budget end to end through the composition layers."""

    def test_pipeline_shares_one_budget(self):
        piped = pipeline(slow_counter, slow_double, deadline=0.4)
        seen = []
        with pytest.raises(PipeDeadlineExceeded):
            for value in piped.iterate():
                seen.append(value)
        assert seen == [2 * x for x in range(len(seen))]

    def test_remote_pipeline_budget(self, server):
        piped = pipeline(
            slow_counter,
            slow_double,
            backend="remote",
            remote_address=server.address,
            deadline=0.4,
        )
        with pytest.raises(PipeDeadlineExceeded):
            list(piped.iterate())

    def test_dataparallel_budget_stops_the_drain(self):
        # Each chunk needs ~0.5s of work against a 0.3s budget, so the
        # first task's own expiry check fires mid-chunk; max_pending
        # keeps later chunks unspawned (the pre-spawn short-circuit).
        dp = DataParallel(chunk_size=10, max_pending=2, deadline=0.3)
        with pytest.raises(PipeDeadlineExceeded):
            list(dp.map_flat(crawl_double, range(100)))

    def test_dataparallel_generous_budget_completes(self):
        dp = DataParallel(chunk_size=50, deadline=30.0)
        assert list(dp.map_flat(slow_double, range(100))) == [
            2 * x for x in range(100)
        ]

    def test_refresh_does_not_reset_the_clock(self):
        piped = source_pipe(quick_range, deadline=0.2).start()
        assert piped.take() == 0
        time.sleep(0.25)  # burn the whole budget
        refreshed = piped.refresh()
        piped.cancel()
        # The sibling shares the same Deadline object — a restart cannot
        # buy itself a fresh budget.
        assert refreshed.deadline is piped.deadline
        with pytest.raises(PipeDeadlineExceeded):
            refreshed.start()
