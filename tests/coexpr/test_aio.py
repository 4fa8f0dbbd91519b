"""The async execution tier: AsyncChannel, AsyncPipe, backend="async".

The contract under test is the backend matrix's: a pipe whose producer
is a coroutine on the shared event loop must be observationally
identical to one whose producer is a thread — production order, data
before error, close terminates, batch flushes, refresh-as-snapshot,
cancellation, and scheduler accounting (the autouse leak fixture covers
pending tasks the way it covers threads and sockets).
"""

from __future__ import annotations

import asyncio
import inspect
import time

import pytest

from repro.coexpr.aio import AsyncChannel, AsyncPipe, start_async_worker
from repro.coexpr.channel import CLOSED
from repro.coexpr.dataparallel import DataParallel
from repro.coexpr.patterns import pipeline, source_pipe, stage
from repro.coexpr.pipe import Pipe
from repro.coexpr.supervision import NO_BACKOFF, supervise
from repro.errors import (
    ChannelClosedError,
    PipeDeadlineExceeded,
    PipeTimeoutError,
    SchedulerShutdownError,
)
from repro.monitor import EventKind, Tracer
from repro.runtime.failure import FAIL


def run(coro):
    """Run one test coroutine on a fresh loop (no pytest-asyncio dep)."""
    return asyncio.run(coro)


def flush_sizes(tracer, piped):
    """The size of each flush *piped* reported, in order."""
    node = tracer.summary().get(f"pipe:{piped.coexpr.name}", {})
    return [flush["size"] for flush in node.get(EventKind.BATCH, ())]


def loop_workers(tracer):
    """Every pipe body started on an event loop (an ASYNC_SESSION
    without a ``peer``: that one is an event-loop server's session)."""
    return [
        payload
        for kinds in tracer.summary().values()
        for payload in kinds.get(EventKind.ASYNC_SESSION, ())
        if "peer" not in payload
    ]


class TestAsyncChannel:
    def test_roundtrip_preserves_order(self):
        async def body():
            ch = AsyncChannel()
            for i in range(5):
                await ch.put(i)
            ch.close()
            return [item async for item in ch]

        assert run(body()) == [0, 1, 2, 3, 4]

    def test_bounded_put_parks_until_space(self):
        async def body():
            ch = AsyncChannel(capacity=1)
            await ch.put("a")
            parked = asyncio.get_running_loop().create_task(ch.put("b"))
            await asyncio.sleep(0.01)
            assert not parked.done()  # capacity bound holds the producer
            assert await ch.take() == "a"
            await parked
            return await ch.take()

        assert run(body()) == "b"

    def test_put_timeout_raises_pipe_timeout(self):
        async def body():
            ch = AsyncChannel(capacity=1)
            await ch.put(1)
            with pytest.raises(PipeTimeoutError):
                await ch.put(2, timeout=0.05)

        run(body())

    def test_take_timeout_on_empty_open_channel(self):
        async def body():
            ch = AsyncChannel()
            with pytest.raises(PipeTimeoutError):
                await ch.take(timeout=0.05)

        run(body())

    def test_closed_and_drained_returns_sentinel(self):
        async def body():
            ch = AsyncChannel()
            await ch.put(1)
            ch.close()
            assert await ch.take() == 1
            return await ch.take()

        assert run(body()) is CLOSED

    def test_put_on_closed_channel_raises(self):
        async def body():
            ch = AsyncChannel()
            ch.close()
            with pytest.raises(ChannelClosedError):
                await ch.put(1)

        run(body())

    def test_close_mid_wait_unblocks_consumer(self):
        async def body():
            ch = AsyncChannel()
            taker = asyncio.get_running_loop().create_task(ch.take())
            await asyncio.sleep(0.01)
            ch.close()
            return await taker

        assert run(body()) is CLOSED

    def test_error_never_overtakes_preceding_data(self):
        async def body():
            ch = AsyncChannel()
            await ch.put_many([1, 2])
            ch.put_error(ValueError("late"))
            ch.close()
            # take_many stops at the error and delivers the data first.
            assert await ch.take_many(10) == [1, 2]
            with pytest.raises(ValueError):
                await ch.take_many(10)

        run(body())

    def test_error_bypasses_the_capacity_bound(self):
        async def body():
            ch = AsyncChannel(capacity=1)
            await ch.put(1)
            ch.put_error(RuntimeError("crash"))  # unthrottled, no await
            assert await ch.take() == 1
            with pytest.raises(RuntimeError):
                await ch.take()

        run(body())

    def test_put_many_interleaves_with_consumer(self):
        async def body():
            ch = AsyncChannel(capacity=2)
            loop = asyncio.get_running_loop()
            producer = loop.create_task(ch.put_many(list(range(10))))
            got = []
            while len(got) < 10:
                got.append(await ch.take())
            await producer
            return got

        assert run(body()) == list(range(10))


def counter(n):
    return iter(range(n))


def crashing():
    yield 1
    yield 2
    raise ValueError("body crashed")


class TestAsyncPipe:
    def test_async_for_streams_the_body(self):
        async def body():
            piped = AsyncPipe(lambda: counter(6))
            return [v async for v in piped]

        assert run(body()) == [0, 1, 2, 3, 4, 5]

    def test_take_returns_fail_on_exhaustion(self):
        async def body():
            piped = AsyncPipe(lambda: counter(1))
            assert await piped.take() == 0
            return await piped.take()

        assert run(body()) is FAIL

    def test_batched_takes_unbatch_in_order(self):
        async def body():
            piped = AsyncPipe(lambda: counter(10), batch=4, capacity=8)
            return [v async for v in piped]

        assert run(body()) == list(range(10))

    def test_error_arrives_after_the_data(self):
        async def body():
            piped = AsyncPipe(crashing)
            got = []
            with pytest.raises(ValueError):
                async for v in piped:
                    got.append(v)
            return got

        assert run(body()) == [1, 2]

    def test_cancel_stops_the_producer(self):
        async def body():
            piped = AsyncPipe(lambda: counter(10**6), capacity=2)
            piped.start()
            assert await piped.take() == 0
            piped.cancel()
            await asyncio.sleep(0.05)
            assert piped._task.done()

        run(body())

    def test_refresh_restarts_from_the_snapshot(self):
        async def body():
            piped = AsyncPipe(lambda: counter(5))
            assert await piped.take() == 0
            assert await piped.take() == 1
            refreshed = piped.refresh()
            piped.cancel()
            # Snapshot-and-restart: the sibling replays from the start.
            return [v async for v in refreshed]

        assert run(body()) == [0, 1, 2, 3, 4]

    def test_refresh_reuses_the_options(self):
        piped = AsyncPipe(lambda: counter(5), capacity=3, batch=2, deadline=30.0)
        sibling = piped.refresh()
        assert sibling.options is piped.options  # not rebuilt, not re-checked
        assert sibling.deadline is piped.deadline  # a refresh is not a reset
        assert (sibling.capacity, sibling.batch) == (3, 2)

        async def body():
            return [v async for v in sibling]

        assert run(body()) == [0, 1, 2, 3, 4]

    def test_deadline_expiry_raises_and_cancels(self):
        def slow():
            while True:
                yield 1
                time.sleep(0.05)

        async def body():
            piped = AsyncPipe(slow, deadline=0.2)
            with pytest.raises(PipeDeadlineExceeded):
                async for _ in piped:
                    pass
            assert piped.cancelled

        run(body())


class TestAsyncBackend:
    """``backend="async"`` behind the ordinary (threaded-surface) Pipe."""

    def test_streams_identically_to_threads(self):
        threaded = source_pipe(lambda: counter(20), backend="thread")
        looped = source_pipe(lambda: counter(20), backend="async")
        assert list(looped.iterate()) == list(threaded.iterate())

    def test_bounded_channel_backpressures_the_worker(self):
        piped = Pipe(lambda: counter(100), backend="async", capacity=4).start()
        time.sleep(0.1)
        # The coroutine parked on the full channel instead of overfilling.
        assert len(piped.out) <= 4
        assert list(piped.iterate()) == list(range(100))

    def test_batching_counters_match_the_thread_tier(self):
        tracer = Tracer()
        with tracer.lifecycle():
            piped = Pipe(
                lambda: counter(20), backend="async", batch=5, capacity=20
            ).start()
            assert list(piped.iterate()) == list(range(20))
        assert flush_sizes(tracer, piped) == [5, 5, 5, 5]

    def test_error_never_overtakes_data(self):
        piped = Pipe(crashing, backend="async").start()
        got = []
        with pytest.raises(ValueError, match="body crashed"):
            for v in piped.iterate():
                got.append(v)
        assert got == [1, 2]

    def test_cancel_releases_the_task(self, pipe_scheduler):
        piped = Pipe(lambda: counter(10**6), backend="async", capacity=2)
        piped.start()
        assert piped.take() == 0
        piped.cancel(join=True, timeout=5.0)
        assert pipe_scheduler.leaked(join_timeout=2.0) == []

    def test_emits_async_session_event(self):
        tracer = Tracer()
        with tracer.lifecycle():
            piped = Pipe(lambda: counter(3), backend="async").start()
            assert list(piped.iterate()) == [0, 1, 2]
        kinds = [e.kind for e in tracer.events]
        assert EventKind.ASYNC_SESSION in kinds
        assert len(loop_workers(tracer)) == 1

    def test_supervision_replays_an_async_worker(self):
        plan = {"calls": 0}

        def flaky():
            plan["calls"] += 1
            yield 1
            yield 2
            if plan["calls"] < 3:
                raise OSError("transient")
            yield 3

        piped = supervise(
            source_pipe(flaky).coexpr,
            backend="async",
            backoff=NO_BACKOFF,
            max_retries=5,
        )
        # Exactly-once: the replayed prefix is skipped, not re-delivered.
        assert list(piped.iterate()) == [1, 2, 3]
        assert piped.failures == 2

    def test_pipeline_source_on_loop_stages_degrade(self):
        # The cooperative caveat, mirrored from the process tier: the
        # source runs on the loop, but a channel-fed stage's blocking
        # take would starve (here: deadlock) the loop, so it degrades to
        # a thread with a DEGRADED event — and the stream is unchanged.
        tracer = Tracer()
        with tracer.lifecycle():
            piped = pipeline(
                lambda: counter(10), lambda x: x * x, backend="async"
            )
            assert list(piped.iterate()) == [x * x for x in range(10)]
        assert piped.degraded is not None
        assert "starve the loop" in piped.degraded
        degraded = [e for e in tracer.events if e.kind == EventKind.DEGRADED]
        assert degraded
        # The source itself did go async: exactly one loop session.
        assert len(loop_workers(tracer)) == 1

    def test_dataparallel_on_the_loop(self):
        dp = DataParallel(chunk_size=10, backend="async")
        assert list(dp.map_flat(lambda x: 2 * x, range(50))) == [
            2 * x for x in range(50)
        ]

    def test_unknown_backend_message_names_all_four(self):
        with pytest.raises(ValueError, match="async"):
            Pipe(lambda: counter(1), backend="fiber")

    def test_scheduler_shutdown_gates_the_spawn(self, pipe_scheduler):
        pipe_scheduler.shutdown(wait=False)
        piped = Pipe(lambda: counter(5), backend="async")
        with pytest.raises(SchedulerShutdownError):
            piped.start()

    def test_shutdown_awaits_pending_tasks(self, pipe_scheduler):
        piped = Pipe(lambda: counter(10**6), backend="async", capacity=2)
        piped.start()
        assert piped.take() == 0
        # Satellite contract: shutdown kills AND awaits the loop task, so
        # the leak check right after sees nothing pending.
        pipe_scheduler.shutdown(wait=True, timeout=5.0)
        assert pipe_scheduler.leaked() == []

    def test_max_linger_flushes_partial_batches(self):
        # Cooperative linger: activations are atomic on the loop, so
        # staleness is checked at activation boundaries — a partial
        # batch older than max_linger is flushed with the next item
        # instead of waiting out the full batch size.
        def trickle():
            yield 1
            yield 2
            time.sleep(0.25)  # the gap that makes [1, 2] stale
            yield from range(3, 21)

        tracer = Tracer()
        with tracer.lifecycle():
            piped = Pipe(
                trickle,
                backend="async",
                batch=10,
                capacity=20,
                max_linger=0.05,
            ).start()
            assert list(piped.iterate()) == list(range(1, 21))
        # Three flushes: the stale partial [1, 2, 3], one full batch,
        # and the exhaustion flush — a pure size-10 batcher would have
        # done two.
        sizes = flush_sizes(tracer, piped)
        assert len(sizes) == 3
        assert sum(sizes) == 20

    def test_refresh_replays_from_snapshot(self):
        piped = Pipe(lambda: counter(5), backend="async").start()
        assert piped.take() == 0
        refreshed = piped.refresh()
        piped.cancel(join=True, timeout=5.0)
        assert list(refreshed.iterate()) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# One parity table: the same bodies through the three pipe consumers.
# ---------------------------------------------------------------------------

CONSUMERS = {
    "thread": lambda body, **knobs: Pipe(body, backend="thread", **knobs),
    "async": lambda body, **knobs: Pipe(body, backend="async", **knobs),
    "AsyncPipe": AsyncPipe,
}


async def settle(step):
    """A step's value: AsyncPipe's are awaited, Pipe's are not."""
    return await step if inspect.isawaitable(step) else step


async def drain(piped):
    """Every result, then the name of the error that ended the stream."""
    got = []
    while True:
        try:
            item = await settle(piped.take())
        except Exception as error:  # noqa: BLE001 - the outcome under test
            return got + [type(error).__name__]
        if item is FAIL:
            return got
        got.append(item)


async def values_and_exhaustion(make):
    piped = make(lambda: counter(6))
    return await drain(piped), await settle(piped.take())


async def error_after_data(make):
    return await drain(make(crashing))


async def batches_unbatch(make):
    tracer = Tracer()
    with tracer.lifecycle():
        piped = make(lambda: counter(10), batch=4, capacity=8)
        return await drain(piped), flush_sizes(tracer, piped)


async def loop_session(make):
    # Both loop consumers announce the body the same way, once.
    tracer = Tracer()
    with tracer.lifecycle():
        await drain(make(lambda: counter(3)))
    return loop_workers(tracer)


async def cancel_reaches_upstream(make):
    class Upstream:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    piped = make(lambda: counter(10**6), capacity=2)
    piped.upstream = upstream = Upstream()
    first = await settle(piped.take())
    piped.cancel()
    return first, piped.cancelled, upstream.cancelled


async def producer_deadline(make):
    # The producer checks the budget before each activation: the data
    # it made goes out first, then its own expiry, where="producer".
    def late():
        yield 1
        time.sleep(0.15)
        yield 2
        yield 3

    piped = make(late, deadline=0.05).start()
    got = []
    while True:
        try:
            item = await settle(piped.out.take())
        except PipeDeadlineExceeded as error:
            return got + [error.where]
        if item is CLOSED:
            return got
        got.append(item)


async def deadline_while_buffered(make):
    # The budget is checked before the buffered slice is served.
    piped = make(lambda: counter(10), batch=5, deadline=0.1)
    first = await settle(piped.take())
    await asyncio.sleep(0.2)
    try:
        await settle(piped.take())
    except PipeDeadlineExceeded as error:
        return first, error.where, piped.cancelled
    return first, None, piped.cancelled


class ByConsumer(dict):
    """An expectation that differs by consumer."""


LOOP_SESSION = [{"transport": "loop", "name": "<lambda>"}]

PARITY = [
    (values_and_exhaustion, ([0, 1, 2, 3, 4, 5], FAIL)),
    (error_after_data, [1, 2, "ValueError"]),
    (batches_unbatch, (list(range(10)), [4, 4, 2])),
    (cancel_reaches_upstream, (0, True, True)),
    (producer_deadline, [1, 2, "producer"]),
    (deadline_while_buffered, (0, "take", True)),
    (
        loop_session,
        ByConsumer({"thread": [], "async": LOOP_SESSION, "AsyncPipe": LOOP_SESSION}),
    ),
]


@pytest.mark.parametrize("consumer", list(CONSUMERS))
@pytest.mark.parametrize(
    "case, expected", PARITY, ids=[case.__name__ for case, _ in PARITY]
)
def test_consumers_agree(case, expected, consumer):
    if isinstance(expected, ByConsumer):
        expected = expected[consumer]
    assert run(case(CONSUMERS[consumer])) == expected
